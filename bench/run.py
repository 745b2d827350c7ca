"""TreeRePair benchmark: round-trip time, memory and size, stage by stage.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all ...   every workload in turn
  python3 bench/run.py --smoke              small inputs, both modes

With ``--trace 0`` every compression and decompression is one call of the
public ``compress_xml_bytes`` / ``decompress_bytes`` in a fresh process
(``worker.py``), one process at a time, repeated until ``--seconds`` is
used up.  With ``--trace 1`` the run alternates a public round trip with a
staged one that calls every pipeline stage itself and records a span per
call; a last staged pass under tracemalloc gives each stage's memory peak.

Every decompressed document is checked against the input's element
skeleton with ``xml.etree.ElementTree``; every stream of a run must be
byte-identical, the staged stream identical to the public one, and the
stream, its size and the grammar size identical to what earlier runs of
the same program on the same input recorded in ``.bench_out/ledger.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH, "worker.py")

# Each workload: how ``inputs.py`` makes its input (full size, smoke size)
# and the compression flags.  Only the ``records`` input depends on the seed.
WORKLOADS = {
    "records-1mb": {"source": ("records", 1_000_000), "smoke": ("records", 20_000),
                    "max_rank": "4", "optimize": "filesize"},
    "M-d12-rank-inf": {"source": ("mtree", 12), "smoke": ("mtree", 4),
                       "max_rank": "inf", "optimize": "edges"},
}
STAGES = ("parse", "share", "index", "replace", "prune", "encode",
          "decode", "unfold", "serialize")
COUNTS = ("parse.nodes", "share.edges", "share.productions",
          "index.records_built", "index.records_end", "replace.rounds",
          "replace.max_rank", "prune.productions_removed",
          "decode.productions", "unfold.nodes")
# A run sets up SETUP_REPEATS times before it measures, and an untraced run
# once more before each compression: other tenants slow the host for
# seconds at a time, and set-ups spread over the run find the same median
# more reliably than set-ups bunched at its start.
# Serialize keeps almost no GC-tracked objects alive, so it triggers no
# collection on most runs; its GC time and count would read 0.
NO_GC = ("serialize",)
SETUP_REPEATS = 5
# A run must end within 180 s; no worker is started past this budget.
HARD_LIMIT_S = 170.0
MB = 1024.0 * 1024.0
# The CPUs this process may use, read before any runner pins it to one.
CPUS = sorted(os.sched_getaffinity(0))


class Failure(Exception):
    """A round trip whose output or bookkeeping did not check out."""


class RunBudgetExceeded(Exception):
    pass


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def program_digest():
    """Digest of the program's Python sources: the ledger compares only
    runs of the same code."""
    h = hashlib.sha256()
    for d, dirs, files in os.walk(SRC):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(x for x in files if x.endswith(".py")):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
            h.update(_read(path) + b"\0")
    return h.hexdigest()


def skeleton_digest(data):
    """Digest and element count of the start/end tag sequence of a document."""
    parser = ET.XMLPullParser(events=("start", "end"))
    parser.feed(data)
    parser.close()
    h = hashlib.sha256()
    n = 0
    for event, elem in parser.read_events():
        if event == "start":
            h.update(b"<" + elem.tag.encode("utf-8") + b">")
            n += 1
        else:
            h.update(b"/")
    return h.hexdigest(), n


def _steal_s():
    """Cumulative CPU steal time of the host, or None where not readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _reference_loop_s():
    """Time of a fixed pure-Python loop, about 15 ms on an idle core."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t0


class Runner:
    """Starts workers one at a time inside the run's time budget.

    Before each command the runner times a short reference loop on every
    CPU it may use and pins itself, and so the command, to the fastest.
    On a shared host, other tenants slow a CPU for seconds at a time,
    and not all CPUs at once.
    """

    def __init__(self, started):
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.steal = []
        self.reference_s = []     # per command: the chosen CPU's loop time

    def _pin_fastest_cpu(self):
        if len(CPUS) < 2:
            return
        times = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = _reference_loop_s()
        best = min(times, key=times.get)
        os.sched_setaffinity(0, {best})
        self.reference_s.append(times[best])

    def _timeout(self):
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 1.0:
            raise RunBudgetExceeded("run time budget used up")
        return left

    def timed(self, fn, *args):
        """Call fn on the fastest CPU; return (wall seconds, its result)."""
        self._pin_fastest_cpu()
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result

    def run(self, argv):
        """Run one command to completion; return (wall seconds, stdout)."""
        self._pin_fastest_cpu()
        s0 = _steal_s()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT,
                                  capture_output=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            raise RunBudgetExceeded("worker timed out: %s" % argv[1:3]) from None
        wall = time.perf_counter() - t0
        s1 = _steal_s()
        if s0 is not None and s1 is not None:
            self.steal.append(s1 - s0)
        if proc.returncode != 0:
            raise Failure("%s exited %d: %s" % (
                " ".join(argv[1:3]), proc.returncode,
                proc.stderr.decode("utf-8", "replace").strip()[-500:]))
        return wall, proc.stdout.decode("utf-8")

    def worker(self, *args):
        _, out = self.run([sys.executable, WORKER] + [str(a) for a in args])
        return json.loads(out.strip().splitlines()[-1])


class Workload:
    def __init__(self, name, seed, smoke, runner):
        spec = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.spec = spec
        self.source = spec["smoke"] if smoke else spec["source"]
        self.runner = runner
        self.dir = os.path.join(OUT, "work", "%s-%d" % (name, os.getpid()))
        os.makedirs(self.dir, exist_ok=True)
        self.input = os.path.join(self.dir, "input.xml")
        self.checked_outputs = set()
        self.setup_times = []
        self.setup_result = None

    def path(self, name):
        return os.path.join(self.dir, name)

    def make_input(self):
        """One set-up: generate the input, write it and take the oracle's
        skeleton of it."""
        kind, size = self.source
        data = (inputs.records(self.seed, size) if kind == "records"
                else inputs.mtree(size))
        with open(self.input, "wb") as fh:
            fh.write(data)
        return _sha(data), skeleton_digest(data)

    def set_up(self):
        """One timed set-up; every set-up must make the same input."""
        wall, result = self.runner.timed(self.make_input)
        if self.setup_result is None:
            self.setup_result = result
            self.input_sha, (self.skeleton, self.elements) = result
        elif result != self.setup_result:
            raise Failure("input generation is not deterministic")
        self.setup_times.append(wall)
        return wall

    def check_output(self, path):
        """The element skeleton of a decompressed document must equal the
        input's; a document byte-identical to one already checked passes."""
        data = _read(path)
        sha = _sha(data)
        if sha in self.checked_outputs:
            return
        digest, n = skeleton_digest(data)
        if (digest, n) != (self.skeleton, self.elements):
            raise Failure("decompressed skeleton differs from the input "
                          "(%d vs %d elements)" % (n, self.elements))
        self.checked_outputs.add(sha)


def _self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    out = {}
    for s in spans:
        kids = sorted((c["start"], c["end"]) for c in spans
                      if c.get("parent") == s["id"])
        covered, edge = 0.0, s["start"]
        for a, b in kids:
            a, b = max(a, edge), min(b, s["end"])
            if b > a:
                covered += b - a
                edge = b
        out[s["name"]] = (s["end"] - s["start"]) - covered
    return out


class Run:
    """One benchmark run of one workload: samples, checks and metrics."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.stream_sha = None
        self.output_bytes = None
        self.grammar_edges = None
        self.compress = []        # worker results of public compress calls
        self.decompress = []      # worker results of public decompress calls
        self.staged = []          # (compress result, decompress result)
        self.spans = []
        self.memory = None        # (compress, decompress) of the memory pass
        self.trace_overhead_s = None

    def fail(self, exc):
        self.failed += 1
        self.errors.append("%s: %s" % (type(exc).__name__, exc))

    def note_stream(self, path):
        data = _read(path)
        sha = _sha(data)
        if self.stream_sha is None:
            self.stream_sha, self.output_bytes = sha, len(data)
        elif sha != self.stream_sha:
            raise Failure("stream differs from the first stream of this run")

    def public_compress(self, stream):
        wl = self.wl
        c = wl.runner.worker("compress", wl.input, stream, wl.spec["max_rank"],
                             wl.spec["optimize"])
        self.note_stream(stream)
        self.compress.append(c)

    def public_decompress(self, stream, xml_out):
        d = self.wl.runner.worker("decompress", stream, xml_out)
        self.wl.check_output(xml_out)
        self.decompress.append(d)

    def public_round_trip(self, stream, xml_out):
        self.public_compress(stream)
        self.public_decompress(stream, xml_out)

    def attempt(self, fn, *args):
        """One checked operation; returns its wall time or None on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            fn(*args)
        except (Failure, OSError, ValueError, KeyError) as exc:
            self.fail(exc)
            return None
        return time.perf_counter() - t0

    def measure(self, seconds):
        """Public calls until the time is used up.

        Each compression is followed by decompressions of its stream until
        they have taken half as long as it did: decompression times spread
        less, so compression gets about two thirds of the run.  Each
        compression comes after a set-up.  No call starts unless one like
        it fits in the time left; the first compression and decompression
        always run.
        """
        stream, xml_out = self.wl.path("out.tr"), self.wl.path("out.xml")
        deadline = time.perf_counter() + seconds
        fits = lambda took: time.perf_counter() + took <= deadline
        t_s = t_c = t_d = 0.0
        while not self.compress or fits(t_s + t_c + t_d):
            t_s = self.wl.set_up()
            t_c = self.attempt(self.public_compress, stream)
            if t_c is None:
                return
            spent = 0.0
            while not spent or (2 * spent < t_c and fits(t_d)):
                t_d = self.attempt(self.public_decompress, stream, xml_out)
                if t_d is None:
                    return
                spent += t_d
        while fits(t_d):
            if self.attempt(self.public_decompress, stream, xml_out) is None:
                return
        self.grammar_edges = self.wl.runner.worker("edges", stream)["grammar_edges"]

    def staged_round_trip(self, i, memory):
        """Call every stage in two fresh processes and check the result.

        A memory pass runs under tracemalloc, which slows the stages
        several times over, so its spans are not timed.
        """
        wl = self.wl
        tag = "mem" if memory else "rt%d" % i
        stream, xml_out = wl.path("%s.tr" % tag), wl.path("%s.xml" % tag)
        run_id = "%s-%d-%s" % (wl.name, wl.seed, tag)
        t0 = time.perf_counter()
        c = wl.runner.worker("staged-compress", wl.input, stream,
                             wl.spec["max_rank"], wl.spec["optimize"], run_id,
                             int(memory))
        d = wl.runner.worker("staged-decompress", stream, xml_out, run_id,
                             int(memory))
        t1 = time.perf_counter()
        if _read(stream) != _read(wl.path("out.tr")):
            raise Failure("staged stream differs from compress_xml_bytes")
        if c["counts"]["grammar_edges"] != d["counts"]["decode.grammar_edges"]:
            raise Failure("decoded grammar size %d differs from the encoded %d"
                          % (d["counts"]["decode.grammar_edges"],
                             c["counts"]["grammar_edges"]))
        wl.check_output(xml_out)
        if memory:
            self.memory = (c, d)
            return
        top = {"id": run_id, "name": "round_trip", "parent": None,
               "run_id": run_id, "start": t0, "end": t1}
        for s in c["spans"] + d["spans"]:
            if s["parent"] is None:
                s["parent"] = run_id
        self.spans.extend([top] + c["spans"] + d["spans"])
        self.staged.append((c, d))

    def measure_traced(self, seconds):
        """Alternate public and staged round trips while another pair fits
        in the time left, then make one memory pass."""
        stream, xml_out = self.wl.path("out.tr"), self.wl.path("out.xml")
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            t0 = time.perf_counter()
            if (self.attempt(self.public_round_trip, stream, xml_out) is None
                    or self.attempt(self.staged_round_trip, i, False) is None):
                return
            i += 1
            if 2 * time.perf_counter() - t0 > deadline:
                break
        self.attempt(self.staged_round_trip, i, True)

    def per_layer(self):
        m = {}
        counts = {}
        for c, d in self.staged:
            merged = dict(c["counts"], **d["counts"])
            if counts and merged != counts:
                raise Failure("stage counts differ between staged round trips")
            counts = merged
        by_name = {}
        for spans in ([s for s in self.spans if s["run_id"] == run_id]
                      for run_id in {s["run_id"] for s in self.spans}):
            selfs = _self_times(spans)
            for s in spans:
                row = by_name.setdefault(s["name"], {"s": [], "self_s": [],
                                                     "gc_s": [], "gc_count": []})
                row["s"].append(s["end"] - s["start"])
                row["self_s"].append(selfs[s["name"]])
                if "gc_s" in s:
                    row["gc_s"].append(s["gc_s"])
                    row["gc_count"].append(s["gc_count"])
        mem = {s["name"]: s for part in self.memory for s in part["spans"]}
        for st in STAGES:
            row = by_name[st]
            m[st + ".s"] = (min(row["s"]), "s")
            if st not in NO_GC:
                m[st + ".gc_s"] = (min(row["gc_s"]), "s")
                m[st + ".gc_count"] = (statistics.median(row["gc_count"]),
                                       "count")
            m[st + ".peak_mb"] = (mem[st]["peak_mb"], "MB")
        for name in ("round_trip", "compress", "decompress"):
            m[name + ".self_s"] = (min(by_name[name]["self_s"]), "s")
        for key in COUNTS:
            m[key] = (counts[key], "count")
        m["replace.useful_ratio"] = (
            counts["replace.rounds"] / counts["index.records_end"], "ratio")
        unfold = mem["unfold"]
        m["unfold.bytes_per_node"] = (
            (unfold["peak_mb"] - unfold["base_mb"]) * MB / counts["unfold.nodes"],
            "B")
        traced = min(a + b for a, b in zip(by_name["compress"]["s"],
                                           by_name["decompress"]["s"]))
        plain = (min(c["wall_s"] for c in self.compress)
                 + min(d["wall_s"] for d in self.decompress))
        self.trace_overhead_s = traced - plain
        m["trace.overhead_ratio"] = (traced / plain, "ratio")
        return m

    def end_to_end(self):
        ok = self.attempted - self.failed
        return {
            "setup_s": (statistics.median(self.wl.setup_times), "s"),
            "compress_s": (min(c["wall_s"] for c in self.compress), "s"),
            "decompress_s": (min(d["wall_s"] for d in self.decompress), "s"),
            "compress_peak_rss_mb": (
                statistics.median([c["peak_rss_mb"] for c in self.compress]), "MB"),
            "decompress_peak_rss_mb": (
                statistics.median([d["peak_rss_mb"] for d in self.decompress]), "MB"),
            "output_bytes": (self.output_bytes, "bytes"),
            "grammar_edges": (self.grammar_edges, "count"),
            "success_rate": (ok / self.attempted if self.attempted else 0.0, "ratio"),
        }


def _check_ledger(wl, run):
    """Compare this run's stream with earlier runs of the same program on
    the same input."""
    path = os.path.join(OUT, "ledger.json")
    try:
        with open(path) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    key = "%s %s %s %s %s" % (program_digest(), wl.name, wl.input_sha,
                              wl.spec["max_rank"], wl.spec["optimize"])
    entry = {"stream_sha256": run.stream_sha, "output_bytes": run.output_bytes,
             "grammar_edges": run.grammar_edges}
    seen = ledger.setdefault(key, entry)
    if seen != entry:
        raise Failure("stream or sizes differ from an earlier run on the same "
                      "input: %s vs %s" % (entry, seen))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def run_workload(name, seed, seconds, trace, smoke=False):
    started = time.perf_counter()
    runner = Runner(started)
    wl = Workload(name, seed, smoke, runner)
    run = Run(wl)
    metrics = {}
    try:
        for _ in range(SETUP_REPEATS):
            wl.set_up()
        if trace:
            run.measure_traced(seconds)
        else:
            run.measure(seconds)
        if run.failed == 0:
            if trace:
                metrics = run.per_layer()
            else:
                _check_ledger(wl, run)
                metrics = run.end_to_end()
    except (Failure, RunBudgetExceeded, OSError, ValueError, KeyError) as exc:
        run.attempted = max(run.attempted, 1)
        run.fail(exc)
    for d in (os.path.join(wl.dir, f) for f in os.listdir(wl.dir)):
        os.remove(d)
    os.rmdir(wl.dir)
    detail = {
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
        "input_sha256": getattr(wl, "input_sha", None),
        "stream_sha256": run.stream_sha,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "gc_threshold": (run.compress or [{}])[0].get("gc_threshold"),
        "steal_s": runner.steal, "reference_loop_s": runner.reference_s,
        "setup_s": wl.setup_times,
        "compress": run.compress, "decompress": run.decompress,
        "errors": run.errors,
    }
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json" % (name, seed, trace)),
              "w") as fh:
        json.dump(dict(detail, spans=run.spans), fh, indent=1)
    return run, metrics, detail


def _mtree_matches_gen_m4():
    """The benchmark's mtree input has the form of the public gen M family."""
    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    theirs = os.path.join(work, "genM4.xml")
    Runner(time.perf_counter()).run(
        [sys.executable, "-m", "treerepair", "gen", "M", "4", theirs])
    same = inputs.mtree(16) == _read(theirs)
    os.remove(theirs)
    return same


def _report(name, run, metrics, detail):
    samples = {"compress_s": len(run.compress), "decompress_s": len(run.decompress),
               "compress_peak_rss_mb": len(run.compress),
               "decompress_peak_rss_mb": len(run.decompress),
               "setup_s": len(detail["setup_s"])}
    print("# %s seed=%d trace=%d" % (name, detail["seed"], detail["trace"]))
    print("#   input sha256  %s" % detail["input_sha256"])
    print("#   stream sha256 %s" % detail["stream_sha256"])
    print("#   python=%s nproc=%s gc_threshold=%s steal_s=%.2f" % (
        detail["python"], detail["nproc"], detail["gc_threshold"],
        sum(detail["steal_s"])))
    walls = {"compress_s": [c["wall_s"] for c in run.compress],
             "decompress_s": [d["wall_s"] for d in run.decompress]}
    for key, (value, unit) in metrics.items():
        n = samples.get(key, len(run.staged) if detail["trace"] else 1)
        extra = ""
        if key in walls:
            extra = " (fastest; median %.6g; samples %s)" % (
                statistics.median(walls[key]), " ".join("%.4g" % w for w in walls[key]))
        print("#   %-30s %14.6g %-6s n=%d%s" % (key, value, unit, n, extra))
    if run.trace_overhead_s is not None:
        print("#   %-30s %14.6g %-6s traced minus untraced round trip" % (
            "trace.overhead_s", run.trace_overhead_s, "s"))
    print("#   %-30s %14.6g %-6s failed=%d attempted=%d" % (
        "failure_rate", run.failed / max(run.attempted, 1), "ratio",
        run.failed, run.attempted))
    for err in run.errors:
        print("#   error: %s" % err)


def _result(run, metrics):
    return {"correct": run.failed == 0 and bool(metrics),
            "attempted": max(run.attempted, 1), "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, every workload, both modes")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treerepair", "__init__.py")):
        print("error: no treerepair sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.smoke:
        jobs = [(n, t) for n in WORKLOADS for t in (0, 1)]
    elif args.workload == "all":
        jobs = [(n, args.trace) for n in WORKLOADS]
    else:
        jobs = [(args.workload, args.trace)]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in jobs:
        seconds = 0.0 if args.smoke else args.seconds
        run, metrics, detail = run_workload(name, args.seed, seconds, trace,
                                            args.smoke)
        _report(name, run, metrics, detail)
        res = _result(run, metrics)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = "" if len(jobs) == 1 else "%s.trace%d." % (name, trace)
        total["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    if args.smoke:
        same = _mtree_matches_gen_m4()
        print("# inputs.mtree(16) equals treerepair gen M 4: %s" % same)
        total["correct"] &= same
    print(json.dumps(total))
    return 0 if total["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
