"""Minimal-DAG construction by hash-consing.

``hash_cons`` gives every node, children before parents, the id of its
subtree's equality class, keyed on its label and its children's class ids
(Downey, Sethi & Tarjan, J. ACM 1980); it also sizes the DAGs for the
statistics.  ``build_dag_grammar`` walks the postorder once: the second
sighting of a class moves the first node's subtree into a fresh rank-0
production and makes both nodes references, later sightings become
references, and leaves stay literal.  A later copy's children come before
it and belong to classes already seen, so by its visit they are references
(or leaves) and only they need killing.  The same holds for the second
sighting, which thus falls where a bottom-up scheme keying only depth-1
views of references and leaves would first see a repeat: productions are
made, and numbered, in that order.  A final pass splices singly-referenced
productions back, leaving the minimal DAG in grammar form.
"""

from __future__ import annotations

from .xml_tree import BinaryTree
from .slcf_grammar import Nonterminal, SlcfGrammar


def hash_cons(nodes, kids, labels):
    """Class ids of the subtrees at ``nodes`` (children before parents;
    ``kids`` and ``labels`` are lists indexed by node): ``(cls, keys)``
    with ``cls[v]`` v's id and ``keys`` each class's ``(label id, *child
    ids)`` in id order.  Ids follow first sighting, never hash order; keys
    hold only ints, so the garbage collector stops tracking them."""
    cls = [0] * len(labels)
    table, lid = {}, {}
    add, label_id, get = table.setdefault, lid.setdefault, cls.__getitem__
    for v in nodes:
        cls[v] = add((label_id(labels[v], len(lid)), *map(get, kids[v])), len(table))
    return cls, list(table)


def build_dag_grammar(bt: BinaryTree) -> SlcfGrammar:
    """Share repeated subtrees of ``bt`` and wrap it as its minimal DAG.

    The tree's arena is adopted; ``bt`` must not be used afterwards.
    """
    g = SlcfGrammar(bt.tree, bt.terminal_order)
    labels, children = g.arena.labels, g.arena.children
    nodes = list(g.arena.iter_postorder(bt.root))
    cls, keys = hash_cons(nodes, children, labels)
    seen = [None] * len(keys)  # per class: its first node, then its nonterminal
    for v in nodes:
        if not children[v]:
            continue
        c = cls[v]
        hit = seen[c]
        if hit is None:
            seen[c] = v
            continue
        if hit.__class__ is not Nonterminal:
            hit = seen[c] = g.share(hit)
        for k in children[v]:
            g.kill_node(k)
        children[v] = []
        g.relabel(v, hit)
    s = g.new_nonterminal(0, is_dag=False)
    g.add_production(s, bt.root, start=True)
    g.splice_single_refs()
    return g
