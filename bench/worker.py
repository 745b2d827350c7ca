"""One compression or decompression, run in a fresh interpreter.

Each call of the benchmark's measured path happens in its own process, as
a user of the command line would run it, so that decompression never
shares a heap (and a cyclic-GC load) with the compression before it.

Modes (PYTHONPATH must name the program's ``src`` directory):

  compress IN OUT MAX_RANK OPTIMIZE
      time ``compress_xml_bytes`` and write the stream to OUT.
  decompress IN OUT
      time ``decompress_bytes`` and write the XML to OUT.
  edges IN
      decode the stream IN and report the size of its grammar.
  staged-compress IN OUT MAX_RANK OPTIMIZE RUN_ID MEMORY
  staged-decompress IN OUT RUN_ID MEMORY
      call every pipeline stage through its public function, recording a
      span per call with its GC time and count; with MEMORY 1, under
      tracemalloc, also each stage's memory peak.

MAX_RANK is an integer or ``inf``.  The result is one JSON object on the
last line of standard output.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import tracemalloc

MB = 1024.0 * 1024.0


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def _rank(text):
    return None if text == "inf" else int(text)


def _process_facts():
    return {
        "gc_threshold": list(gc.get_threshold()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_compress(src, dst, max_rank, optimize):
    from treerepair import compress_xml_bytes

    data = _read(src)
    t0, c0 = time.perf_counter(), time.process_time()
    out = compress_xml_bytes(data, max_rank=_rank(max_rank), optimize=optimize)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    facts = _process_facts()
    _write(dst, out)
    return dict(facts, wall_s=wall, cpu_s=cpu)


def run_decompress(src, dst):
    from treerepair import decompress_bytes

    data = _read(src)
    t0, c0 = time.perf_counter(), time.process_time()
    out = decompress_bytes(data)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    facts = _process_facts()
    _write(dst, out)
    return dict(facts, wall_s=wall, cpu_s=cpu)


def run_edges(src):
    from treerepair import decode

    return {"grammar_edges": decode(_read(src)).grammar_size()}


class Tracer:
    """Spans around the stage calls, kept in memory until the process ends.

    GC time and collection count come from ``gc.callbacks``; the memory
    peak of a stage is tracemalloc's peak after ``reset_peak`` at its
    start, so it includes what earlier stages still hold.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._open = []
        self._gc_s = 0.0
        self._gc_n = 0
        self._gc_t0 = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self._gc_s += time.perf_counter() - self._gc_t0
            self._gc_n += 1

    def begin(self, name):
        parent = self._open[-1]["id"] if self._open else None
        span = {"id": "%s/%s" % (self.run_id, name), "name": name,
                "parent": parent, "run_id": self.run_id,
                "gc_s": self._gc_s, "gc_count": self._gc_n}
        self._open.append(span)
        span["start"] = time.perf_counter()
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        span["gc_s"] = self._gc_s - span["gc_s"]
        span["gc_count"] = self._gc_n - span["gc_count"]
        self._open.pop()
        self.spans.append(span)

    def stage(self, name, fn, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        span = self.begin(name)
        result = fn(*args, **kwargs)
        self.end(span)
        if tracing:
            span["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
            span["base_mb"] = base / MB
        return result

    def result(self):
        return {"spans": self.spans, "counts": self.counts}


def run_staged_compress(src, dst, max_rank, optimize, run_id, memory):
    from treerepair import (EDGES_THRESHOLD, FILESIZE_THRESHOLD,
                            build_dag_grammar, build_index, encode, parse_xml,
                            prune, run_replacement_step)

    thresholds = {"edges": EDGES_THRESHOLD, "filesize": FILESIZE_THRESHOLD}
    if memory == "1":
        tracemalloc.start()
    data = _read(src)
    tr = Tracer(run_id)
    c = tr.counts
    top = tr.begin("compress")
    # The same calls, with the same arguments, as pipeline.compress_xml_bytes.
    bt = tr.stage("parse", parse_xml, data)
    n_edges = bt.edge_count
    c["parse.nodes"] = n_edges + 1
    g = tr.stage("share", build_dag_grammar, bt)
    c["share.edges"] = g.grammar_size()
    c["share.productions"] = g.nonterminal_count
    idx = tr.stage("index", build_index, g, n_edges=n_edges,
                   max_rank=_rank(max_rank))
    c["index.records_built"] = len(idx.records)
    created = tr.stage("replace", run_replacement_step, g, idx)
    c["index.records_end"] = len(idx.records)
    c["replace.rounds"] = len(created)
    c["replace.max_rank"] = max((a.rank for a in created), default=0)
    before = g.nonterminal_count
    tr.stage("prune", prune, g, thresholds[optimize])
    c["prune.productions_removed"] = before - g.nonterminal_count
    c["grammar_edges"] = g.grammar_size()
    out = tr.stage("encode", encode, g)
    tr.end(top)
    _write(dst, out)
    return tr.result()


def run_staged_decompress(src, dst, run_id, memory):
    from treerepair import decode, serialize_xml
    from treerepair.pipeline import DEFAULT_NODE_CAP

    if memory == "1":
        tracemalloc.start()
    data = _read(src)
    tr = Tracer(run_id)
    c = tr.counts
    top = tr.begin("decompress")
    # The same calls as pipeline.decompress_bytes.
    g = tr.stage("decode", decode, data)
    c["decode.productions"] = g.nonterminal_count
    c["decode.grammar_edges"] = g.grammar_size()
    bt = tr.stage("unfold", g.unfold_value, DEFAULT_NODE_CAP)
    c["unfold.nodes"] = bt.node_count
    out = tr.stage("serialize", serialize_xml, bt)
    tr.end(top)
    _write(dst, out)
    return tr.result()


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "compress":
        result = run_compress(*args)
    elif mode == "decompress":
        result = run_decompress(*args)
    elif mode == "edges":
        result = run_edges(*args)
    elif mode == "staged-compress":
        result = run_staged_compress(*args)
    elif mode == "staged-decompress":
        result = run_staged_decompress(*args)
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
