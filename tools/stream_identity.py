"""Check that two source trees write the same compressed streams.

Usage::

    python tools/stream_identity.py OLD_SRC NEW_SRC

Each ``SRC`` is a directory holding the ``treerepair`` package, such as
the ``src`` directory of a checkout.  For each side, a child interpreter
with ``PYTHONPATH=SRC`` makes a fixed corpus from seed 1: 280 random
documents of up to 60 elements from ``tests/conftest.random_xml``, and
from ``bench/inputs.py`` a 200 KB records document and the depth-12
``mtree`` document of the ``M-d12-rank-inf`` bench workload.  It
compresses every document and every tree of the ``gen_M`` (0-3),
``gen_U`` (3-12) and ``gen_perfect_binary`` (1-9) families under 24 flag
sets (``max_rank`` 0, 1, 2, 3, 4 and unbounded, both objectives, DAG on
and off), 7 320 streams in all.  It decompresses each document's stream with
``decompress_bytes`` and each tree's with ``decompress_tree`` (a
``gen_*`` root has two children, so its value is no XML document) and
writes the tree's preorder as label text.  It prints the stream count and
one sha256 over every stream and its decompressed output.  The script
prints both lines and exits 0 if they agree, 1 if not.  It needs no
network and is not part of the test suite.
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
FLAGS = [(max_rank, optimize, use_dag)
         for max_rank in (0, 1, 2, 3, 4, None)
         for optimize in ("edges", "filesize")
         for use_dag in (True, False)]
FAMILIES = [("gen_M", range(4)), ("gen_U", range(3, 13)),
            ("gen_perfect_binary", range(1, 10))]


def corpus():
    """The fixed documents, made with this interpreter's package."""
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]
    from conftest import random_xml
    import inputs

    rng = random.Random(SEED)
    return ([random_xml(rng, 60) for _ in range(DOCS)]
            + [inputs.records(SEED, 200_000), inputs.mtree(12)])


def worker():
    """Print the stream count and digest of this interpreter's package."""
    from treerepair import (compress_tree, compress_xml_bytes, decompress_bytes,
                            decompress_tree, fixtures)

    def tree_text(stream):
        bt = decompress_tree(stream)
        return " ".join(map(repr, bt.tree.preorder(bt.root))).encode()

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
            for part in (stream, decompress(stream)):
                h.update(len(part).to_bytes(8, "big"))
                h.update(part)
            count += 1
    print("%d streams sha256 %s" % (count, h.hexdigest()))


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
