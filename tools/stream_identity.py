"""Check that two source trees write the same compressed streams and
statistics.

Usage::

    python tools/stream_identity.py OLD_SRC NEW_SRC

Each ``SRC`` is a directory holding the ``treerepair`` package, such as
the ``src`` directory of a checkout.  For each side, a child interpreter
with ``PYTHONPATH=SRC`` makes a fixed corpus from seed 1: 280 random
documents of up to 60 elements from ``tests/conftest.random_xml``, 20 of
up to 400 elements named from 1 000 names, whose names sections are large
enough for the decoder's run table, and from ``bench/inputs.py`` a
200 KB records document and the depth-12 ``mtree`` document of the
``M-d12-rank-inf`` bench workload.  It
compresses every document and every tree of the ``gen_M`` (0-3),
``gen_U`` (3-12) and ``gen_perfect_binary`` (1-9) families under 24 flag
sets (``max_rank`` 0, 1, 2, 3, 4 and unbounded, both objectives, DAG on
and off), 7 800 streams in all.  It decompresses each document's stream with
``decompress_bytes`` and each tree's with ``decompress_tree`` (a
``gen_*`` root has two children, so its value is no XML document) and
writes the tree's preorder as label text.  It then decompresses three
mutants of every stream, seeded by the stream's number: two with one bit
flipped, one cut after a byte, each under a cap of ``MUTANT_NODE_CAP``
value nodes.  The outcome of a mutant is its output or its
``DecodeError`` message, so a decoder change shows the same faults, in
the same order, over every stream.  It also runs ``gather_stats`` on
every document under every flag set, 7 248 reports.  It prints the
stream count and one sha256 over every stream, its decompressed output
and the outcomes of its mutants, then the report count and one sha256
over every report without its ``wall ms``.  The script prints both
sides' lines and exits 0 if they agree, 1 if not.  It needs no network
and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
DOCS = 280
# documents named from NAMES names: only a large names section builds the
# decoder's run table, and the random ones vary what follows it
NAMED_DOCS = 20
NAMES = ["n%d" % k for k in range(1000)]
FLAGS = [(max_rank, optimize, use_dag)
         for max_rank in (0, 1, 2, 3, 4, None)
         for optimize in ("edges", "filesize")
         for use_dag in (True, False)]
FAMILIES = [("gen_M", range(4)), ("gen_U", range(3, 13)),
            ("gen_perfect_binary", range(1, 10))]
# value bound of a mutant's decompression: a flipped bit can describe a
# value far larger than any in the corpus, the largest of which has about
# 8 200 nodes
MUTANT_NODE_CAP = 2 ** 16


def corpus():
    """The fixed documents, made with this interpreter's package."""
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]
    from conftest import random_shape, random_xml, shape_to_xml
    import inputs

    rng = random.Random(SEED)
    return ([random_xml(rng, 60) for _ in range(DOCS)]
            + [shape_to_xml(random_shape(rng, 400, NAMES)) for _ in range(NAMED_DOCS)]
            + [inputs.records(SEED, 200_000), inputs.mtree(12)])


def mutants(stream, number):
    """Two copies of ``stream`` with one bit flipped and one cut after a
    byte, drawn from a generator seeded by the stream's ``number``."""
    rng = random.Random(number)
    out = []
    for _ in range(2):
        bit = rng.randrange(8 * len(stream))
        flipped = bytearray(stream)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        out.append(bytes(flipped))
    out.append(stream[:rng.randrange(len(stream))])
    return out


def worker():
    """Print the stream and report counts and digests of this
    interpreter's package."""
    from treerepair import (DecodeError, compress_tree, compress_xml_bytes,
                            decompress_bytes, decompress_tree, fixtures,
                            gather_stats)
    from treerepair.slcf_grammar import DEFAULT_NODE_CAP

    def tree_text(stream, node_cap=DEFAULT_NODE_CAP):
        bt = decompress_tree(stream, node_cap)
        return " ".join(map(repr, bt.tree.preorder(bt.root))).encode()

    def outcome(decompress, stream):
        try:
            return decompress(stream, MUTANT_NODE_CAP)
        except DecodeError as exc:
            return ("DecodeError: %s" % exc).encode()

    docs = corpus()
    jobs = [(lambda flags, d=d: compress_xml_bytes(d, *flags), decompress_bytes)
            for d in docs]
    jobs += [(lambda flags, make=getattr(fixtures, name), a=a: compress_tree(make(a), *flags),
              tree_text) for name, args in FAMILIES for a in args]
    h = hashlib.sha256()
    count = 0
    for compress, decompress in jobs:
        for flags in FLAGS:
            stream = compress(flags)
            parts = [stream, decompress(stream)]
            parts += [outcome(decompress, m) for m in mutants(stream, count)]
            for part in parts:
                h.update(len(part).to_bytes(8, "big"))
                h.update(part)
            count += 1
    reports = hashlib.sha256()
    for d in docs:
        for flags in FLAGS:
            stats = gather_stats(d, *flags)
            del stats["wall ms"]
            reports.update(repr(list(stats.items())).encode())
    print("%d streams sha256 %s, %d stats sha256 %s"
          % (count, h.hexdigest(), len(docs) * len(FLAGS), reports.hexdigest()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args(argv)
    lines = []
    for src in (args.old_src, args.new_src):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
        if proc.returncode:
            sys.exit("%s: worker failed\n%s" % (src, proc.stderr))
        lines.append(proc.stdout.strip())
        print("%s: %s" % (src, lines[-1]))
    same = lines[0] == lines[1]
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
