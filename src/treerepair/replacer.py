"""Iterated replacement of the most frequent digram.

Each round retires one digram (a, i, b): a fresh nonterminal A of rank
rank(a)+rank(b)-1 gets the pattern production A(y..) -> a(y.., b(y..), ..)
and every listed occurrence is rewritten to A, splicing the child node
out.  Absorbed occurrences leave the index just before the rewrite and
the freshly created edges enter it just after, so the index stays sound
across the whole run.  The loop ends when no digram has two occurrences
(within the admitted rank bound) left.

An occurrence whose child is a reference to a DAG production is first
turned into a plain one.  A production used only once is eliminated, which
splices its rhs into the reference node itself.  A shared production is
made flat: each child of its root becomes a reference to a rank-0
production of the DAG namespace (a fresh one unless it is a DAG reference
already), and the occurrence's node gets fresh references to the same
productions in place of the child's children.  Both keep every node in
place, so no index entry changes hands.
"""

from __future__ import annotations

from .digram_index import DigramIndex
from .slcf_grammar import Nonterminal, PARAMETER, SlcfGrammar


def pattern_tree(g: SlcfGrammar, parent, index, child):
    """Build pat(parent, index, child): the parent symbol over the child
    symbol at the index, parameters everywhere else."""
    return g.new_tree([parent, *[PARAMETER] * (index - 1),
                       child, *[PARAMETER] * (child.rank + parent.rank - index)])[0]


def _split_shared(g: SlcfGrammar, X):
    """Flatten a multiply-referenced DAG production to depth 1, and return
    fresh references to the productions its root's children now are.

    Each child of its root that is not a DAG reference already is shared
    in place: it becomes a reference to a fresh rank-0 DAG production that
    holds its subtree.  Digram keys of the root's edges are unchanged
    because the fresh references resolve to the labels the children had.
    The split is idempotent: a later call finds only DAG references, and
    only makes the fresh references.
    """
    ar = g.arena
    refs = []
    for c in ar.children[X.root]:
        lc = ar.labels[c]
        if not (lc.__class__ is Nonterminal and lc.is_dag):
            lc = g.share(c)
        refs.append(g.new_node(lc))
    return refs


def replace_occurrence(g: SlcfGrammar, idx: DigramIndex, v, j, A):
    """Rewrite the single occurrence at (v, j) to the nonterminal A.

    Before any label or structure change, one ``unlink`` call drops the
    edges the rewrite absorbs, in this order: the edges into v (its parent
    edge, or the references to its production when v is a rhs root), v's
    child edges and those of the vanishing child w.  After it, one
    ``link`` call lists the edges into v and then v's new child edges,
    without an overlap re-check.  Entries of one digram may overlap for a
    while; that is harmless, as rewriting either one unlinks the other
    before it could be rewritten too.
    """
    ar = g.arena
    children = ar.children
    kids = children[v]
    w = kids[j - 1]
    lw = ar.labels[w]
    inner = children[w]
    if lw.__class__ is Nonterminal and lw.is_dag:
        if len(lw.refs) > 1:
            inner = _split_shared(g, lw)
        else:
            # Splice first: w takes the rhs root's children, whose edges go.
            g.eliminate(lw)
            inner = children[w]
    into = [v] if ar.parents[v] != -1 else list(g.root_to_prod[v].refs)
    idx.unlink(into + kids + children[w])
    kids[j - 1:j] = inner
    g.relabel(v, A)
    g.kill_node(w)
    ar.set_children(v, kids)
    idx.link(into + kids)


def run_replacement_step(g: SlcfGrammar, idx: DigramIndex):
    """Replace most-frequent digrams until none qualifies.

    Returns the created nonterminals in creation order.  The rank bound
    lives in the index (digrams beyond it are never offered)."""
    created = []
    count = idx.count
    while True:
        r = idx.pop_most_frequent()
        if r is None:
            return created
        parent, index, child = idx.digram(r)
        a = g.new_nonterminal(parent.rank + child.rank - 1, is_dag=False)
        g.add_production(a, pattern_tree(g, parent, index, child))
        created.append(a)
        while count[r]:
            replace_occurrence(g, idx, idx.head(r), index, a)
