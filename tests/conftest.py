"""Shared fixtures and tree/grammar builders for the test suite."""

import os
import random
import sys

# The reference oracles and spec builders in tests/ recurse once per node.
# The library must not: TestDefaultRecursionLimit checks it at the default.
sys.setrecursionlimit(60000)

import treerepair
from treerepair.slcf_grammar import PARAMETER, SlcfGrammar
from treerepair.xml_tree import BinaryTree, Tree, TerminalSymbol

BOOKS = b"<books>" + b"<book><author/><title/><isbn/></book>" * 5 + b"</books>"

# the books grammar's value sequence (max_rank 99, optimize edges, no DAG)
# as (channel, value) pairs
BOOKS_VALUES = (
    [("c2", 6), ("c2", 2)]
    + [("tag", 0b00), ("c2", 1), ("c2", 2)]
    + [("tag", 0b01), ("c2", 2), ("c2", 3), ("c2", 4)]
    + [("tag", 0b10), ("c2", 2), ("c2", 1), ("c2", 5)]
    + [("c3", b) for b in b"books\x03isbn\x03title\x03author\x03book\x03book\x03"]
    + [("c2", 4), ("c2", 3), ("c2", 2)]
    + [("c2", 6), ("c2", 8), ("c2", 7)]
    + [("c1", v) for v in (1, 9, 9, 9, 9, 5, 8)]
)


def subprocess_env(**extra):
    """``os.environ`` plus ``extra``, with this package's source directory
    first on ``PYTHONPATH`` so that a child interpreter finds it too."""
    package_dir = os.path.dirname(os.path.dirname(treerepair.__file__))
    path = os.pathsep.join(filter(None, [package_dir, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def flat_values(segments):
    """``serialize_values`` segments as one (channel, value) pair per value."""
    return [(channel, v) for channel, values in segments for v in values]


def ranked(token):
    """'f/2' -> rank-2 terminal named f."""
    name, _, k = token.partition("/")
    return TerminalSymbol(name, rank=int(k))


def _build_node(tree, spec, on_label=None):
    token, kids = spec if isinstance(spec, tuple) else (spec, [])
    label = ranked(token)
    if on_label is not None:
        on_label(label)
    v = tree.new_node(label)
    children = [_build_node(tree, c, on_label) for c in kids]
    if children:
        tree.set_children(v, children)
    return v


def ranked_bt(spec):
    """Build a BinaryTree over generic ranked symbols from nested tuples.

    spec is 'a/0' for a leaf or ('f/2', [spec, spec]); the terminal order
    is first-use order during construction.
    """
    tree = Tree()
    order = {}
    root = _build_node(tree, spec, order.setdefault)
    return BinaryTree(tree, root, list(order))


def make_grammar(prods, dag=()):
    """Build a grammar from production specs.

    prods is an ordered list of (name, rank, spec); the production named
    'S' becomes the start.  Inside a spec, 'y' is a parameter, a name from
    prods references that nonterminal, anything else is 'name/rank'.
    Names listed in dag get subtree-sharing nonterminals.
    """
    arena = Tree()
    g = SlcfGrammar(arena, [])
    nts = {name: g.new_nonterminal(rank, is_dag=(name in dag)) for name, rank, _ in prods}
    order = {}

    def build(spec):
        token, kids = spec if isinstance(spec, tuple) else (spec, [])
        if token == "y":
            label = PARAMETER
        elif token in nts:
            label = nts[token]
        else:
            label = ranked(token)
            order.setdefault(label)
        v = g.new_node(label)
        children = [build(c) for c in kids]
        if children:
            arena.set_children(v, children)
        return v

    for name, rank, spec in prods:
        g.add_production(nts[name], build(spec), start=(name == "S"))
    g.terminal_order[:] = list(order)
    return g, nts


def random_shape(rng, max_nodes=40, names="abcdefgh"):
    """Random element shape with at least two elements and <= max_nodes."""
    budget = [rng.randint(1, max(1, max_nodes - 1))]

    def gen(depth):
        budget[0] -= 1
        kids = []
        want = rng.choice((0, 0, 1, 1, 2, 2, 3, 5)) if depth < 28 else 0
        while want > 0 and budget[0] > 0:
            kids.append(gen(depth + 1))
            want -= 1
        return (rng.choice(names), kids)

    kids = [gen(1)]
    while budget[0] > 0:
        kids.append(gen(1))
    return ("r", kids)


def shape_to_xml(shape):
    name, kids = shape
    tag = name.encode()
    if not kids:
        return b"<%s/>" % tag
    return b"<%s>%s</%s>" % (tag, b"".join(shape_to_xml(k) for k in kids), tag)


def random_xml(rng_or_seed, max_nodes=40):
    rng = rng_or_seed if isinstance(rng_or_seed, random.Random) else random.Random(rng_or_seed)
    return shape_to_xml(random_shape(rng, max_nodes))


def shape_nodes(shape):
    return 1 + sum(shape_nodes(k) for k in shape[1])


def read_header(blob):
    """Parse the fixed-length and table part of an encoded stream.

    Returns (n_s, super_count, super_lengths, [(count, table) x3], reader)
    with the reader positioned at the value sequence.
    """
    from treerepair.bitio import BitReader
    from treerepair.succinct_coder import CanonicalDecoder
    from treerepair.succinct_decoder import run_length_decode

    r = BitReader(blob)
    n_s = r.read(32)
    super_count = r.read(32)
    super_lengths = [r.read(n_s) for _ in range(super_count)]
    dec = CanonicalDecoder({s: l for s, l in enumerate(super_lengths) if l})
    tables = []
    for _ in range(3):
        count = r.read(32)
        lengths = run_length_decode(r, dec, super_count - 4, count)
        tables.append((count, [lengths.get(s, 0) for s in range(count)]))
    return n_s, super_count, super_lengths, tables, r
