"""Iterated replacement of the most frequent digram.

Each round retires one digram (a, i, b): a fresh nonterminal A of rank
rank(a)+rank(b)-1 gets the pattern production A(y..) -> a(y.., b(y..), ..)
and ``replace_round`` rewrites every listed occurrence to A, splicing the
child node out, in one sweep over the digram's occurrence list (Larsson &
Moffat, *Off-line dictionary-based compression*, Proc. IEEE 2000).  Each
rewrite unlists the occurrences it absorbs before it and lists the edges
it makes after it.  The loop ends when no digram has two occurrences left.

An occurrence whose child is a reference to a DAG production is first
turned into a plain one.  A production used only once is eliminated, which
splices its rhs into the reference node.  A shared one is made flat: each
child of its root becomes a reference to a rank-0 DAG production (a fresh
one unless it is a DAG reference already), and the occurrence's node gets
fresh references to the same productions in place of the child's
children.  Both keep every node in place, so no index entry changes hands.
"""

from __future__ import annotations

from .digram_index import END, FREE, DigramIndex
from .slcf_grammar import Nonterminal, PARAMETER, SlcfGrammar


def pattern_tree(g: SlcfGrammar, parent, index, child):
    """Build pat(parent, index, child): the parent symbol over the child
    symbol at the index, parameters everywhere else."""
    return g.new_tree([parent, *[PARAMETER] * (index - 1),
                       child, *[PARAMETER] * (child.rank + parent.rank - index)])[0]


def replace_round(g: SlcfGrammar, idx: DigramIndex, r, j, A):
    """Rewrite every listed occurrence of record r, whose child index is j,
    to the nonterminal A, oldest first, in one pass over its list.

    The arena lists, ``A.refs`` and the index arrays are bound once.  An
    occurrence (v, w), w being v's j-th child, is rewritten in place: v
    takes the label A and w's children in w's place, and w dies.  First
    the edges it absorbs leave their lists, in this order: the edges into
    v (its parent edge, or the references to its production when v is a
    rhs root), v's child edges and those of w.  Last, one ``link`` call
    lists the edges into v and then v's new child edges.  Record ids and
    the order inside each bucket break ties, so this order fixes the
    grammar.  Entries of one digram may overlap for a while; rewriting
    either one drops the other before it could be rewritten too.
    """
    ar = g.arena
    labels, parents, pindex, children = ar.labels, ar.parents, ar.pindex, ar.children
    root_to_prod, refs, link = g.root_to_prod, A.refs, idx.link
    head, tail, count = idx.head, idx.tail, idx.count
    slot, nxt, prv = idx.slot, idx.next, idx.prev
    limit, top_at, buckets, top = idx.bucket_limit, idx.top_at, idx.buckets, idx.top
    while count[r]:
        v = parents[head[r]]
        kids = children[v]
        w = kids[j - 1]
        lw = labels[w]
        inner = children[w]
        if lw.__class__ is Nonterminal and lw.is_dag:
            if len(lw.refs) > 1:
                # Split: v gets fresh references to w's flattened root's children.
                inner = []
                for c in children[lw.root]:
                    lc = labels[c]
                    if not (lc.__class__ is Nonterminal and lc.is_dag):
                        lc = g.share(c)
                    u = len(labels)
                    labels.append(lc)
                    parents.append(-1)
                    pindex.append(0)
                    children.append([])
                    lc.refs[u] = None
                    inner.append(u)
            else:
                # Splice first: w takes the rhs root's label and children.
                g.eliminate(lw)
                lw = labels[w]
                inner = children[w]
        into = [v] if parents[v] != -1 else list(root_to_prod[v].refs)
        for c in into + kids + children[w]:
            s = slot[c]
            if s == FREE:
                continue
            before, after = prv[c], nxt[c]
            if before == END:
                head[s] = after
            else:
                nxt[before] = after
            if after == END:
                tail[s] = before
            else:
                prv[after] = before
            slot[c] = FREE
            n = count[s]
            count[s] = n - 1
            if n < 2:
                continue
            if n < limit:
                del buckets[n][s]
            elif n == top_at:
                del top[s]
            else:
                continue
            if n > 2:
                buckets[n - 1][s] = None
        kids[j - 1:j] = inner
        pl = labels[v]
        if pl.__class__ is Nonterminal:
            del pl.refs[v]
        labels[v] = A
        refs[v] = None
        if lw.__class__ is Nonterminal:
            del lw.refs[w]
        labels[w] = None
        parents[w] = -1
        children[w].clear()
        for i in range(j - 1, len(kids)):
            c = kids[i]
            parents[c] = v
            pindex[c] = i + 1
        link(into + kids)


def run_replacement_step(g: SlcfGrammar, idx: DigramIndex):
    """Replace most-frequent digrams until none qualifies.

    Returns the created nonterminals in creation order.  The rank bound
    lives in the index (digrams beyond it are never offered)."""
    created = []
    while True:
        r = idx.pop_most_frequent()
        if r is None:
            return created
        parent, index, child = idx.digram(r)
        a = g.new_nonterminal(parent.rank + child.rank - 1, is_dag=False)
        g.add_production(a, pattern_tree(g, parent, index, child))
        created.append(a)
        replace_round(g, idx, r, index, a)
