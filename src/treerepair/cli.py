"""Command line interface.

Subcommands: compress, decompress, stats, gen.  The compression flags are
single-dash long options: -max_rank <k>, -optimize edges|filesize, -no_dag.
"""

from __future__ import annotations

import argparse
import sys

from . import fixtures
from .xml_tree import ParseError, UnsupportedInputError
from .succinct_coder import DecodeError, EncodeError
from .pipeline import (OPTIMIZE_THRESHOLDS, compress_xml_bytes, decompress_bytes,
                       gather_stats)


def _add_compress_flags(sub):
    sub.add_argument("-max_rank", type=int, default=4, metavar="K",
                     help="largest pattern rank introduced (default 4)")
    sub.add_argument("-optimize", choices=tuple(OPTIMIZE_THRESHOLDS),
                     default="filesize",
                     help="pruning objective (default filesize)")
    sub.add_argument("-no_dag", action="store_true",
                     help="skip the subtree sharing stage")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="treerepair",
        description="Grammar compressor for the element structure of XML "
                    "documents.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compress", help="compress an XML file")
    _add_compress_flags(p)
    p.add_argument("input")
    p.add_argument("output")

    p = subs.add_parser("decompress", help="decompress back to XML")
    p.add_argument("input")
    p.add_argument("output")

    p = subs.add_parser("stats", help="compress and print size statistics")
    _add_compress_flags(p)
    p.add_argument("input")

    p = subs.add_parser("gen", help="write a synthetic benchmark tree as XML")
    p.add_argument("family", choices=("perfect", "M", "U"))
    p.add_argument("param", type=int,
                   help="depth for perfect, index for M, exponent for U")
    p.add_argument("output")
    return parser


def _tree_to_nested_xml(bt) -> bytes:
    """Write a ranked tree as nested elements named after its labels."""
    t = bt.tree
    out = []
    stack = [(bt.root, False)]
    while stack:
        v, closing = stack.pop()
        name = t.labels[v].name
        if closing:
            out.append("</%s>" % name)
        elif t.children[v]:
            out.append("<%s>" % name)
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(t.children[v]))
        else:
            out.append("<%s/>" % name)
    return "".join(out).encode("utf-8")


def _run(args) -> int:
    if args.command == "gen":
        gen = {"perfect": fixtures.gen_perfect_binary, "M": fixtures.gen_M,
               "U": fixtures.gen_U}[args.family]
        out = _tree_to_nested_xml(gen(args.param))
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
        if args.command == "stats":
            stats = gather_stats(data, max_rank=args.max_rank,
                                 optimize=args.optimize,
                                 use_dag=not args.no_dag)
            for key, value in stats.items():
                if isinstance(value, float):
                    print("%s: %.3f" % (key, value))
                else:
                    print("%s: %d" % (key, value))
            return 0
        if args.command == "compress":
            out = compress_xml_bytes(data, max_rank=args.max_rank,
                                     optimize=args.optimize,
                                     use_dag=not args.no_dag)
        else:
            out = decompress_bytes(data)
    with open(args.output, "wb") as fh:
        fh.write(out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ParseError, UnsupportedInputError, DecodeError, EncodeError,
            ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
