"""Iterated replacement of the most frequent digram.

Each round retires one digram (a, i, b): a fresh nonterminal A of rank
rank(a)+rank(b)-1 gets the pattern production A(y..) -> a(y.., b(y..), ..)
and every listed occurrence is rewritten to A, splicing the child node
out.  Absorbed occurrences leave the index just before the rewrite and
the freshly created edges enter it just after, so the index stays sound
across the whole run.  The loop ends when no digram has two occurrences
(within the admitted rank bound) left.

Occurrences whose child edge crosses into a shared (DAG) production are
rewritten by first making the shared production flat: every child subtree
of its root moves into a fresh rank-0 production of the DAG namespace, so
the occurrence's node can adopt references to those instead of copies.  A
shared production used only once is simply spliced in beforehand.
"""

from __future__ import annotations

from .digram_index import DigramIndex
from .slcf_grammar import Nonterminal, PARAMETER, SlcfGrammar


def pattern_tree(g: SlcfGrammar, digram):
    """Build pat(digram): parent symbol over the child symbol at the
    digram's index, parameters everywhere else."""
    ar = g.arena
    root = g.new_node(digram.parent)
    kids = []
    for pos in range(1, digram.parent.rank + 1):
        if pos == digram.index:
            inner = g.new_node(digram.child)
            ar.set_children(
                inner, [g.new_node(PARAMETER) for _ in range(digram.child.rank)])
            kids.append(inner)
        else:
            kids.append(g.new_node(PARAMETER))
    ar.set_children(root, kids)
    return root


def _split_shared(g: SlcfGrammar, idx: DigramIndex, X):
    """Flatten a multiply-referenced DAG production to depth 1.

    Child subtrees of its root are moved into fresh rank-0 DAG
    productions; children that already are DAG references stay.  Digram
    keys of the root's edges are unchanged because the fresh references
    resolve to the labels the subtrees had, so each edge only hands its
    index entry over to the new reference node.  Idempotent: a second
    call finds only DAG references.
    """
    ar = g.arena
    r = g.productions[X.id].root
    for pos, c in enumerate(ar.children[r]):
        lc = ar.labels[c]
        if isinstance(lc, Nonterminal) and lc.is_dag:
            continue
        g.share(c)
        idx.adopt(c, ar.children[r][pos])


def _inline_single(g: SlcfGrammar, idx: DigramIndex, v, j, X):
    """Splice the rhs of a singly-referenced DAG production into its one
    use below v; returns the spliced root (the new child at position j).
    The edge (v, j) keeps its index entry."""
    ar = g.arena
    w = ar.children[v][j - 1]
    prod = g.productions.pop(X.id)
    del g.root_to_prod[prod.root]
    r = prod.root
    ar.put(v, j, r)
    idx.adopt(w, r)
    g.kill_node(w)
    del g.refs[X.id]
    return r


def _substitute_cross(g: SlcfGrammar, v, j, A, X):
    """Rewrite the cross-production occurrence at (v, j) to A.

    X has just been flattened, so its root's children are all DAG
    references; v adopts fresh references to the same productions in the
    place of the vanishing reference node."""
    ar = g.arena
    kids = ar.children[v]
    w = kids[j - 1]
    r = g.productions[X.id].root
    kids[j - 1:j] = [g.new_node(ar.labels[c]) for c in ar.children[r]]
    g.relabel(v, A)
    g.kill_node(w)
    ar.set_children(v, kids)


def _splice_plain(g: SlcfGrammar, v, j, A):
    ar = g.arena
    kids = ar.children[v]
    w = kids[j - 1]
    kids[j - 1:j] = ar.children[w]
    g.relabel(v, A)
    g.kill_node(w)
    ar.set_children(v, kids)


def replace_occurrence(g: SlcfGrammar, idx: DigramIndex, v, j, A):
    """Rewrite the single occurrence at (v, j) to the nonterminal A."""
    ar = g.arena
    w = ar.children[v][j - 1]
    lw = ar.labels[w]
    if isinstance(lw, Nonterminal) and lw.is_dag:
        if len(g.refs[lw.id]) > 1:
            _split_shared(g, idx, lw)
            idx.remove_absorbed(v, j)
            _substitute_cross(g, v, j, A, lw)
            idx.add_new(v)
            return
        # One use only: inline first, then treat as a plain occurrence.
        # The inline must come before remove_absorbed so that the child
        # edges of the inlined root count as absorbed.
        _inline_single(g, idx, v, j, lw)
    idx.remove_absorbed(v, j)
    _splice_plain(g, v, j, A)
    idx.add_new(v)


def run_replacement_step(g: SlcfGrammar, idx: DigramIndex):
    """Replace most-frequent digrams until none qualifies.

    Returns the created nonterminals in creation order.  The rank bound
    lives in the index (digrams beyond it are never offered)."""
    created = []
    while True:
        rec = idx.pop_most_frequent()
        if rec is None:
            return created
        digram = rec.digram
        a = g.new_nonterminal(digram.par, is_dag=False)
        g.add_production(a, pattern_tree(g, digram))
        created.append(a)
        while rec.count:
            replace_occurrence(g, idx, rec.head, digram.index, a)
