"""Minimal-DAG construction by bottom-up subtree sharing.

Repeated subtrees of the input tree are replaced by references to rank-0
productions, turning the tree into a DAG-shaped grammar before digram
replacement runs.  Sharing proceeds bottom-up: a node becomes shareable
once all its children are atomic (leaf terminals or references to already
shared subtrees), so every repeated subtree is eventually captured even
though the hash table only ever keys on depth-1 views.

A production used only once saves nothing, so a final pass splices all
singly-referenced productions back into their use sites; the result is
the minimal DAG of the tree in grammar form.
"""

from __future__ import annotations

from .xml_tree import BinaryTree
from .slcf_grammar import Nonterminal, SlcfGrammar


def build_dag_grammar(bt: BinaryTree) -> SlcfGrammar:
    """Share repeated subtrees of ``bt`` and wrap it as its minimal DAG.

    The tree's arena is adopted; ``bt`` must not be used afterwards.
    """
    g = SlcfGrammar(bt.tree, bt.terminal_order)
    t = g.arena
    labels, children = t.labels, t.children
    # Depth-1 view -> first node seen with it, or its nonterminal once
    # the view has been seen twice.
    table = {}

    def key(v):
        return (labels[v], tuple(map(labels.__getitem__, children[v])))

    def flat(v):
        return not any(map(children.__getitem__, children[v]))

    def to_reference(v, nt):
        for c in children[v]:
            g.kill_node(c)
        children[v] = []
        g.relabel(v, nt)

    # Children first.  Leaves stay literal; a node with a non-atomic child
    # is skipped (its turn comes via the retroactive offer below when that
    # child gets shared).
    for v in list(t.iter_postorder(bt.root)):
        if not children[v] or not flat(v):
            continue
        k = key(v)
        hit = table.get(k)
        if hit is None:
            table[k] = v
        elif isinstance(hit, Nonterminal):
            to_reference(v, hit)
        elif hit != v:
            # Second sight: the first occurrence becomes the rhs, both
            # become references.  Its parent may have become shareable by
            # this, so it is offered to the table retroactively (unless it
            # is a production root already, or its view is taken: the
            # first registration wins).  A node offered that way finds
            # itself at its own visit and has nothing new to learn.
            p = t.parents[hit]
            table[k] = g.share(hit)
            to_reference(v, table[k])
            if t.parents[p] != -1 and flat(p):
                table.setdefault(key(p), p)
    s = g.new_nonterminal(0, is_dag=False)
    g.add_production(s, bt.root, start=True)
    g.splice_single_refs()
    return g
