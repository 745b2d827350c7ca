"""Time the compress and decompress stages of two source trees, A/B, in
child processes.

Usage::

    python tools/stage_ab.py OLD_SRC NEW_SRC [--pairs N] [--workload NAME]

Each ``SRC`` is a directory holding the ``treerepair`` package, such as
the ``src`` directory of a checkout.  The script makes the input of each
bench workload once, as ``bench/run.py`` does with seed 1 (the 1 MB
records document of ``records-1mb``, the depth-12 mtree document of
``M-d12-rank-inf``), and takes the workload's flags from there.  A pair runs
one child interpreter with ``PYTHONPATH=OLD_SRC`` and one with
``PYTHONPATH=NEW_SRC``, the first side alternating from pair to pair.
Each child compresses each input once through the public stage functions,
with the same arguments as ``pipeline.compress_xml_bytes``, then
decompresses its own stream as ``pipeline.decompress_bytes`` does.  It
reports the wall time of each stage and a digest of the stream and the
XML.  The stages are:

- ``parse`` and ``share``: ``parse_xml`` and ``build_dag_grammar``, the
  staged path of the bench;
- ``parse+share``: ``dag_grammar(parse_xml_classes(data))``, which
  ``compress_xml_bytes`` runs, on a side that shares subtrees while
  parsing, and the sum of ``parse`` and ``share`` on a side that does
  not;
- ``index``, ``replace``, ``prune`` and ``encode`` on the grammar of
  ``parse+share``;
- ``decode`` and ``write_xml``, after the compress objects are dropped
  and collected, as if in a process of their own.

It prints, per workload and stage and for the compress sum (``parse+share``
to ``encode``) and the decompress sum, the minimum and median seconds of
each side and in how many pairs the new side was lower, and whether the
two sides wrote the same streams and XML.  It exits 1 if they did not.
It needs no network and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
STAGED = ("parse", "share")
COMPRESS = ("parse+share", "index", "replace", "prune", "encode")
DECOMPRESS = ("decode", "write_xml")


def bench_workloads():
    """``bench/run.py``'s workload table, and its input maker."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import inputs
    from run import WORKLOADS

    return WORKLOADS, inputs


def make_jobs(workloads, inputs, names, directory):
    """Write the inputs of the workloads ``names``; returns name ->
    (input path, max_rank, optimize)."""
    jobs = {}
    for name in names:
        spec = workloads[name]
        kind, size = spec["source"]
        data = inputs.records(SEED, size) if kind == "records" else inputs.mtree(size)
        path = os.path.join(directory, name + ".xml")
        with open(path, "wb") as fh:
            fh.write(data)
        max_rank = None if spec["max_rank"] == "inf" else int(spec["max_rank"])
        jobs[name] = (path, max_rank, spec["optimize"])
    return jobs


def worker(jobs):
    """Print, as JSON, each job's stage seconds and output digest."""
    from treerepair import (build_dag_grammar, build_index, decode, encode, parse_xml,
                            prune, run_replacement_step, succinct_decoder, xml_tree)
    from treerepair.pipeline import OPTIMIZE_THRESHOLDS
    from treerepair.slcf_grammar import DEFAULT_NODE_CAP

    # a source tree whose decoder does not count the bodies leaves the
    # census to write_xml
    decode_with_census = getattr(succinct_decoder, "decode_with_census",
                                 lambda stream: (decode(stream), None))
    # a source tree that does not share while parsing shares the parsed tree
    if hasattr(xml_tree, "parse_xml_classes"):
        from treerepair.dag_builder import dag_grammar

        def parse_and_share(data):
            classes = xml_tree.parse_xml_classes(data)
            return dag_grammar(classes), classes.edge_count
    else:
        parse_and_share = None

    out = {}
    for name, (path, max_rank, optimize) in jobs.items():
        with open(path, "rb") as fh:
            data = fh.read()
        times = {}
        clock = time.perf_counter

        def stage(label, fn, *args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            times[label] = clock() - t0
            return result

        bt = stage("parse", parse_xml, data)
        n_edges = bt.edge_count
        g = stage("share", build_dag_grammar, bt)
        del bt  # the later stages run on a heap that holds one grammar
        if parse_and_share is None:
            times["parse+share"] = times["parse"] + times["share"]
        else:
            del g
            g, n_edges = stage("parse+share", parse_and_share, data)
        idx = stage("index", build_index, g, n_edges=n_edges, max_rank=max_rank)
        stage("replace", run_replacement_step, g, idx)
        stage("prune", prune, g, OPTIMIZE_THRESHOLDS[optimize])
        stream = stage("encode", encode, g)
        # decompress as in a process of its own: without the compress
        # objects, and with no collection left pending by them
        del g, idx
        gc.collect()
        decoded, census = stage("decode", decode_with_census, stream)
        xml = stage("write_xml", decoded.write_xml,
                    *() if census is None else (DEFAULT_NODE_CAP, census))
        out[name] = {"s": times, "sha256": hashlib.sha256(stream + xml).hexdigest()}
    print(json.dumps(out))


def run_side(src, jobs):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", json.dumps(jobs)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    if proc.returncode:
        sys.exit("%s: worker failed\n%s" % (src, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(runs, names):
    """Print the table; returns True if both sides wrote the same outputs."""
    print("%-15s %-11s %9s %9s %9s %9s %6s"
          % ("workload", "stage", "old min", "old med", "new min", "new med", "lower"))
    same = True
    rows = STAGED + COMPRESS + ("compress",) + DECOMPRESS + ("decompress",)
    for name in names:
        seconds = {side: [] for side in runs}
        for side, side_runs in runs.items():
            for r in side_runs:
                s = r[name]["s"]
                s["compress"] = sum(s[k] for k in COMPRESS)
                s["decompress"] = sum(s[k] for k in DECOMPRESS)
                seconds[side].append(s)
        for stage in rows:
            old = [s[stage] for s in seconds["old"]]
            new = [s[stage] for s in seconds["new"]]
            lower = sum(n < o for o, n in zip(old, new))
            print("%-15s %-11s %9.4f %9.4f %9.4f %9.4f %3d/%-2d"
                  % (name, stage, min(old), statistics.median(old),
                     min(new), statistics.median(new), lower, len(old)))
        digests = {r[name]["sha256"] for side in runs.values() for r in side}
        same = same and len(digests) == 1
    print("outputs identical" if same else "outputs DIFFERENT")
    return same


def main(argv=None):
    workloads, inputs = bench_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", choices=sorted(workloads) + ["all"], default="all")
    args = ap.parse_args(argv)
    names = sorted(workloads) if args.workload == "all" else [args.workload]
    runs = {"old": [], "new": []}
    with tempfile.TemporaryDirectory() as directory:
        jobs = make_jobs(workloads, inputs, names, directory)
        for i in range(args.pairs):
            sides = [("old", args.old_src), ("new", args.new_src)]
            for side, src in sides[::-1] if i % 2 else sides:
                runs[side].append(run_side(src, jobs))
    return 0 if report(runs, names) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(json.loads(sys.argv[2]))
    else:
        sys.exit(main())
