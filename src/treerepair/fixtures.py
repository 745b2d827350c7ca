"""Synthetic tree families used for benchmarks and tests.

All generators return already-ranked :class:`BinaryTree` values (they do
not round-trip through XML).  Generation is iterative, so deep trees do
not hit the interpreter recursion limit.
"""

from __future__ import annotations

from .xml_tree import BinaryTree, ChildrenCharacteristic, TerminalSymbol, Tree

_CC = ChildrenCharacteristic


def _perfect(depth, leaf_symbols):
    """Perfect binary tree over f of the given depth; one leaf symbol per
    leaf position, cycled if fewer are given.  In preorder, leaf k > 0
    follows one f per trailing zero bit of k, and leaf 0 follows depth f."""
    f = TerminalSymbol("f", _CC.TWO_CHILDREN)
    labels = []
    for k in range(2 ** depth):
        labels += [f] * ((k & -k).bit_length() - 1 if k else depth)
        labels.append(leaf_symbols[k % len(leaf_symbols)])
    t = Tree()
    root, = t.add_preorder(labels)
    return BinaryTree(t, root, list(dict.fromkeys(labels)))  # first-use order


def gen_perfect_binary(depth) -> BinaryTree:
    """Perfect binary tree of the given depth: f at inner nodes, one shared
    leaf symbol a.  Has 2**(depth+1) - 2 edges."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _perfect(depth, [TerminalSymbol("a", _CC.NO_CHILDREN)])


def gen_M(i) -> BinaryTree:
    """Perfect binary tree of depth 2**i with pairwise distinct leaves.

    Distinct leaf names defeat subtree sharing, so compression must come
    from the upper f-structure alone.  Has 2**(2**i + 1) - 2 edges; i is
    capped at 4 (131070 edges) to keep generation bounded.
    """
    if not 0 <= i <= 4:
        raise ValueError("i must be between 0 and 4")
    depth = 2 ** i
    leaves = [TerminalSymbol("leaf_%d" % k, _CC.NO_CHILDREN)
              for k in range(2 ** depth)]
    return _perfect(depth, leaves)


def gen_U(n) -> BinaryTree:
    """Right spine of 2**n f-nodes over the cyclic leaf alphabet a..e.

    The i-th spine node (0-based) carries the leaf labeled "abcde"[i % 5]
    on the left and the rest of the spine on the right; the spine ends in
    the leaf for position 2**n.  Has 2**(n+1) edges.  The five-cycle keeps
    any fixed window of the spine from repeating with period under five,
    which separates rank-limited from rank-unlimited compression.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    f = TerminalSymbol("f", _CC.TWO_CHILDREN)
    letters = [TerminalSymbol(c, _CC.NO_CHILDREN) for c in "abcde"]
    count = 2 ** n
    labels = [sym for i in range(count) for sym in (f, letters[i % 5])]
    t = Tree()
    root, = t.add_preorder(labels + [letters[count % 5]])
    return BinaryTree(t, root, [f] + letters)
