"""Digram occurrence index with constant-time priority maintenance.

A digram is (parent symbol, child index, child symbol).  For every digram
the index keeps a doubly linked list of its currently chosen occurrences.
An occurrence is an edge, and every edge is the parent edge of exactly
one node, so the index names an edge by its child node: the list links
live in flat arrays of the index indexed by arena node id (``slot``
holds the record whose list the edge is on, or FREE; ``next``/``prev``
the neighbouring edges).  The tree arena carries no index state.  Lists
report an occurrence by the parent node of its edge; all occurrences of
one digram share the child index.

Records are flat as well.  A record is an integer id, equal to its
creation sequence number, into per-record arrays (list ``head`` and
``tail``, ``count``).  Records exist only for digrams within the rank
bound: an edge whose digram would need a pattern of larger rank is never
listed, so it gets no record.  ``records`` maps a digram key, the plain
tuple (parent symbol, child index, resolved child symbol), to its record
id, and lives for one round: a pop that hands out a record empties it.
That is sound because between two pops ``link`` lists only edges with the
popped round's new nonterminal at one end, so no key made before a pop is
looked up after it.  Ids, lists, counts and placement outlive the keys,
so a record keeps its place in tie-breaking.  ``pop_most_frequent``
hands out record ids; ``digram(r)`` reads a record's digram off the head
edge of its list.

Two places change the lists: ``link(nodes)`` lists the parent edge of
each given node, and the replacer's round (``replacer.replace_round``)
drops the edges each rewrite absorbs.  Each places the records whose
counts it changes as it goes, edge by edge.  A node never changes the
edge it ends: grammar rewrites keep a subtree's top node in place and
change its label and children.

Digram priorities live in sqrt(n) frequency buckets plus an unsorted top
list (n = edge count of the input tree, ``bucket_limit`` its integer
square root).  A record's count places it: a count of 2 to
``bucket_limit`` - 1 in the bucket of that count, a count of at least
max(2, ``bucket_limit``) in the top list, a count below two nowhere, so
``pop_most_frequent`` never hands out a record with fewer than two
occurrences.  No bucket above the scan cursor holds a record: a pop
that finds the top list empty lowers the cursor to the highest non-empty
bucket, and ``link`` raises it to a bucket it places a record in above
it.  A record enters the top list only from bucket ``bucket_limit`` - 1
(or from no place), and the cursor falls only while the top list is
empty, so while the top list holds a record the cursor is at least
``bucket_limit`` - 1: a record that a rewrite drops out of the top list
lands at or below it.

In a DAG-shaped grammar a reference to a rank-0 DAG nonterminal counts as
an occurrence of the digram formed with the root label of its production
(the label is resolved through the reference).  Such cross-production
occurrences are never registered when parent and child symbol coincide;
same-production occurrences instead get the usual overlap check at build
time.  Frequencies count stored list entries: a digram inside a shared
production counts once however often the production is used.
"""

from __future__ import annotations

from math import inf, isqrt

from .slcf_grammar import Nonterminal, SlcfGrammar

# Edge-array sentinels.
FREE = -1  # the edge is on no occurrence list
END = -2   # no previous / next occurrence (list terminator)

# The edge arrays grow by this many entries more than the arena needs, so
# that a rewrite that makes a node or two seldom has to extend them.
_SPARE = 1024


class DigramIndex:
    def __init__(self, grammar: SlcfGrammar, n_edges=None, max_rank=None):
        self.g = grammar
        if n_edges is None:
            n_edges = grammar.grammar_size()
        self.bucket_limit = max(1, isqrt(max(1, n_edges)))
        # The count from which a record is in the top list.
        self.top_at = max(2, self.bucket_limit)
        # A listed edge's rank(parent) + rank(child) is at most _bound.
        self._bound = inf if max_rank is None else max_rank + 1
        # Per record; keys of this round's digrams only.
        self.records = {}  # (parent, index, resolved child) -> record id
        self.head = []
        self.tail = []
        self.count = []
        # Per arena node, and up to _SPARE more: the edge from its parent.
        n = len(grammar.arena)
        self.slot = [FREE] * n
        self.next = [END] * n
        self.prev = [END] * n
        # buckets[b] (2 <= b < bucket_limit) holds the placed records of
        # count b; buckets[bucket_limit] is the top list.
        self.buckets = [dict() for _ in range(self.bucket_limit + 1)]
        self.top = self.buckets[self.bucket_limit]
        # No bucket above the cursor holds a record.
        self.cursor = self.bucket_limit - 1

    # -- list updates ------------------------------------------------------------

    def link(self, nodes):
        """Append the parent edges of ``nodes`` to their digrams' lists and
        place each record at its new count; ``build_index`` and each
        rewrite of ``replacer.replace_round`` list their edges here.

        Between two pops, the given edges must each have the popped round's
        new nonterminal at one end (parent or resolved child): ``records``
        holds only this round's keys, so an edge of an older digram would
        get a second record for it.  ``build_index`` lists before the first
        pop and is bound by nothing.

        The edge arrays first grow over nodes created since they were last
        sized, with room to spare.  An edge whose digram exceeds the rank
        bound is not listed.  Nor is a cross-production edge (the node is a
        DAG-nonterminal reference) with equal parent and resolved child
        symbol: overlapping occurrence chains across a shared production
        cannot be maintained consistently, so such digrams are never offered
        for replacement.
        """
        ar = self.g.arena
        labels, parents, pindex = ar.labels, ar.parents, ar.pindex
        slot, nxt, prv = self.slot, self.next, self.prev
        grow = len(labels) - len(slot)
        if grow > 0:
            grow += _SPARE
            slot += [FREE] * grow
            nxt += [END] * grow
            prv += [END] * grow
        records = self.records
        head, tail, count = self.head, self.tail, self.count
        bound = self._bound
        limit, buckets = self.bucket_limit, self.buckets
        v = None
        for c in nodes:
            if parents[c] != v:  # child edges share their parent's lookups
                v = parents[c]
                assert v != -1, "edge without a parent"
                pl = labels[v]
                room = bound - pl.rank
            cl = labels[c]
            if cl.__class__ is Nonterminal and cl.is_dag:
                cl = labels[cl.root]
                if cl == pl:
                    continue
            if cl.rank > room:  # rank(p) + rank(c) > max_rank + 1
                continue
            key = (pl, pindex[c], cl)
            assert slot[c] == FREE, "edge already on a list"
            r = records.get(key)
            if r is None:
                r = records[key] = len(count)
                head.append(c)
                tail.append(c)
                count.append(1)
                slot[c] = r
                prv[c] = END
                nxt[c] = END
                continue
            slot[c] = r
            t = tail[r]
            if t == END:
                head[r] = c
            else:
                nxt[t] = c
            prv[c] = t
            nxt[c] = END
            tail[r] = c
            n = count[r] + 1
            count[r] = n
            if n < limit:
                if n >= 2:
                    if n > 2:
                        del buckets[n - 1][r]
                    buckets[n][r] = None
                    if n > self.cursor:
                        self.cursor = n
            elif n == self.top_at:
                if n > 2:
                    del buckets[n - 1][r]
                self.top[r] = None

    # -- priority queue --------------------------------------------------------------

    def pop_most_frequent(self):
        """Id of the most frequent replaceable digram record, or None.

        Buckets and the top list hold exactly the records with two or more
        occurrences, and every record is within the rank bound, so nothing
        found there is skipped.  Among top-list digrams the most frequent
        wins, ties going to the earliest created (smallest id); inside a
        bucket the longest-resident entry is taken.  A pop that hands out a
        record starts a round, so it empties ``records``.
        """
        count = self.count
        best = None
        for r in self.top:
            if best is None or count[r] > count[best] or (
                    count[r] == count[best] and r < best):
                best = r
        if best is None:
            b = min(self.cursor, self.bucket_limit - 1)
            while b >= 2 and not self.buckets[b]:
                b -= 1
            self.cursor = max(b, 1)
            if b < 2:
                return None
            best = next(iter(self.buckets[b]))
        self.records.clear()
        return best

    # -- reading records ---------------------------------------------------------------

    def digram(self, r):
        """(parent, index, child) of a record with a listed occurrence,
        read off its head edge."""
        g = self.g
        ar = g.arena
        c = self.head[r]
        return (ar.labels[ar.parents[c]], ar.pindex[c],
                g.resolve_label(ar.labels[c]))


def build_index(grammar: SlcfGrammar, n_edges=None, max_rank=None) -> DigramIndex:
    """Scan every production bottom-up and register all occurrences.

    Same-production edges get the greedy overlap check; a reference to a
    DAG nonterminal registers its use edge under the resolved root label
    (unconditionally, except for the equal-symbol restriction).  Pattern
    right-hand sides created later by the replacer are never scanned, so a
    fresh production's internal digram does not count occurrences.

    Nodes are linked in runs.  Only a node labeled like its parent has an
    overlap check, and only that check reads the lists, so the pending run
    is linked just before it.
    """
    idx = DigramIndex(grammar, n_edges, max_rank)
    g = grammar
    ar = g.arena
    labels, parents, pindex, children = ar.labels, ar.parents, ar.pindex, ar.children
    slot = idx.slot
    run = []
    for nt in list(g.productions.values()):
        root = nt.root
        for v in ar.iter_postorder(root):
            if v == root:
                continue
            lv = labels[v]
            # v itself already chosen as an occurrence of the same digram
            # means (p, v) would overlap it; skip then.  A DAG reference
            # has rank 0, so it never equals its parent's label.
            if lv == labels[parents[v]]:
                idx.link(run)
                run.clear()
                kids = children[v]
                i = pindex[v]
                if (i <= len(kids) and slot[kids[i - 1]] != FREE
                        and g.resolve_label(labels[kids[i - 1]]) == lv):
                    continue
            run.append(v)
    idx.link(run)
    return idx
