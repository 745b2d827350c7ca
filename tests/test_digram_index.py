"""Digram bookkeeping: counts, the priority structure, occurrence lists."""

import pytest

from treerepair import (ChildrenCharacteristic, build_dag_grammar, build_index,
                        parse_xml, run_replacement_step)
from treerepair.digram_index import END, FREE
from treerepair.fixtures import gen_M, gen_perfect_binary
from treerepair.replacer import pattern_tree, replace_round
from treerepair.slcf_grammar import SlcfGrammar

from conftest import BOOKS, make_grammar, random_xml, ranked, ranked_bt
from oracles import (digram_record, max_nonoverlapping, occurrence_nodes, unlink,
                     validate_grammar)

CC = ChildrenCharacteristic


def cterm(name, bits):
    from treerepair.xml_tree import TerminalSymbol

    return TerminalSymbol(name, characteristic=CC(int(bits, 2)))


def chain(token, depth, leaf="a/0"):
    spec = leaf
    for _ in range(depth):
        spec = (token, [spec])
    return spec


class TestInitialCounts:
    def test_books_digram_table(self):
        g = SlcfGrammar.from_tree(parse_xml(BOOKS))
        idx = build_index(g)
        expected = {
            (cterm("title", "01"), 1, cterm("isbn", "00")): 5,
            (cterm("author", "01"), 1, cterm("title", "01")): 5,
            (cterm("book", "11"), 1, cterm("author", "01")): 4,
            (cterm("book", "11"), 2, cterm("book", "11")): 2,
            (cterm("book", "11"), 2, cterm("book", "10")): 1,
            (cterm("books", "10"), 1, cterm("book", "11")): 1,
            (cterm("book", "10"), 1, cterm("author", "01")): 1,
        }
        for (parent, i, child), count in expected.items():
            assert len(occurrence_nodes(idx, parent, i, child)) == count, (
                parent, i, child)

    def test_books_first_pop_takes_the_oldest_tie(self):
        g = SlcfGrammar.from_tree(parse_xml(BOOKS))
        idx = build_index(g)
        r = idx.pop_most_frequent()
        assert idx.digram(r) == (cterm("title", "01"), 1, cterm("isbn", "00"))
        assert idx.count[r] == 5

    def test_pop_falls_back_to_bucket_walk(self):
        # ten edges put the top-list threshold at 3, so the count-2 digram
        # is only reachable through the frequency buckets
        g = SlcfGrammar.from_tree(ranked_bt(
            ("f/5", [("g/1", ["a/0"]), ("g/1", ["a/0"]),
                     ("p/1", ["q/0"]), ("r/1", ["s/0"]), ("t/1", ["u/0"])])
        ))
        idx = build_index(g)
        r = idx.pop_most_frequent()
        assert idx.digram(r) == (ranked("g/1"), 1, ranked("a/0"))
        assert idx.count[r] == 2

    def test_chain_keeps_alternate_occurrences(self):
        g = SlcfGrammar.from_tree(ranked_bt(chain("f/1", 6)))
        idx = build_index(g)
        f = ranked("f/1")
        assert len(occurrence_nodes(idx, f, 1, f)) == 3
        assert max_nonoverlapping(g.arena, g.start().root, f, 1, f) == 3

    def test_perfect_tree_right_slot_occurrences(self):
        g = SlcfGrammar.from_tree(gen_perfect_binary(4))
        idx = build_index(g)
        f = cterm("f", "11")
        assert len(occurrence_nodes(idx, f, 2, f)) == 5
        assert max_nonoverlapping(g.arena, g.start().root, f, 2, f) == 5

    def test_matches_oracle_on_random_trees(self):
        for seed in range(120):
            bt = parse_xml(random_xml(seed, 120))
            digrams = set()
            for v in bt.tree.iter_postorder(bt.root):
                for i, w in enumerate(bt.tree.children[v]):
                    if w >= 0:
                        digrams.add((bt.tree.labels[v], i + 1, bt.tree.labels[w]))
            idx = build_index(SlcfGrammar.from_tree(bt))
            for parent, i, child in digrams:
                got = len(occurrence_nodes(idx, parent, i, child))
                want = max_nonoverlapping(bt.tree, bt.root, parent, i, child)
                assert got == want, (seed, parent, i, child)


class TestRankBound:
    def test_digrams_beyond_the_bound_are_never_offered(self):
        f, a = cterm("f", "11"), cterm("a", "00")
        g = SlcfGrammar.from_tree(gen_perfect_binary(3))
        idx = build_index(g)
        assert len(occurrence_nodes(idx, f, 1, f)) == 2
        g = SlcfGrammar.from_tree(gen_perfect_binary(3))
        idx = build_index(g, max_rank=1)
        r = idx.pop_most_frequent()
        # (f,1,f) would need a rank-3 pattern, so the bounded queue only
        # ever offers the leaf digrams
        parent, _, child = idx.digram(r)
        assert parent.rank + child.rank - 1 <= 1
        assert idx.digram(r) == (f, 1, a)
        assert idx.count[r] == 4

    def test_pop_is_empty_when_every_repeat_is_over_the_bound(self):
        spec = ("r/3", [
            ("f/2", ["b1/0", ("f/2", ["c1/0", "d1/0"])]),
            ("f/2", ["b2/0", ("f/2", ["c2/0", "d2/0"])]),
            ("f/2", ["b3/0", ("f/2", ["c3/0", "d3/0"])]),
        ])
        f = ranked("f/2")
        g = SlcfGrammar.from_tree(ranked_bt(spec))
        idx = build_index(g)
        assert len(occurrence_nodes(idx, f, 2, f)) == 3
        r = idx.pop_most_frequent()
        assert idx.digram(r) == (f, 2, f)
        # (f,2,f) would need a rank-3 pattern: the bounded index lists
        # none of its occurrences, so nothing is offered
        g = SlcfGrammar.from_tree(ranked_bt(spec))
        idx = build_index(g, max_rank=2)
        assert occurrence_nodes(idx, f, 2, f) == []
        assert idx.pop_most_frequent() is None


class TestSharedProductions:
    def test_each_reference_counts_once(self):
        g, _ = make_grammar([
            ("A", 0, ("f/2", ["a/0", ("f/2", ["a/0", ("f/2", ["a/0", "a/0"])])])),
            ("S", 0, ("f/2", [("f/2", ["b/0", "A"]), ("f/2", ["c/0", "A"])])),
        ], dag={"A"})
        idx = build_index(g)
        f = ranked("f/2")
        assert len(occurrence_nodes(idx, f, 2, f)) == 2
        # the flattened tree chains through the shared subtree twice, so the
        # sharing-aware index undercounts against the unfolded optimum
        bt = g.unfold_value()
        assert max_nonoverlapping(bt.tree, bt.root, f, 2, f) == 4

    def test_one_node_can_host_occurrences_of_two_digrams(self):
        g, nts = make_grammar([
            ("A", 0, ("g/3", ["a/0", "b/0", "c/0"])),
            ("S", 0, ("f/2", ["A", "A"])),
        ], dag={"A"})
        idx = build_index(g)
        s_root = g.start().root
        f, gsym = ranked("f/2"), ranked("g/3")
        assert occurrence_nodes(idx, f, 1, gsym) == [s_root]
        assert occurrence_nodes(idx, f, 2, gsym) == [s_root]


class TestIncrementalMaintenance:
    def test_replacement_can_lose_occurrences_a_rescan_would_find(self):
        g = SlcfGrammar.from_tree(
            ranked_bt(("f/2", ["a/0", ("f/2", ["b/0", ("f/2", ["c/0", "d/0"])])]))
        )
        idx = build_index(g)
        f, c = ranked("f/2"), ranked("c/0")
        assert len(occurrence_nodes(idx, f, 2, f)) == 1
        assert len(occurrence_nodes(idx, f, 1, c)) == 1
        a = g.new_nonterminal(f.rank + c.rank - 1, is_dag=False)
        g.add_production(a, pattern_tree(g, f, 1, c))
        replace_round(g, idx, digram_record(idx, f, 1, c), 1, a)
        validate_grammar(g)
        # the maintained set is now empty although the rewritten tree
        # still contains one occurrence
        assert occurrence_nodes(idx, f, 2, f) == []
        root = g.start().root
        assert max_nonoverlapping(g.arena, root, f, 2, f) == 1


def check_index(idx, max_rank):
    """Occurrence lists, counts and queue placement agree with the arena;
    every listed record is within the rank bound and is the only listed
    record of its digram; every key in ``records`` names its record's
    digram."""
    g = idx.g
    ar = g.arena
    listed = set()
    owner = {}  # digram -> the record listing it
    for r in range(len(idx.count)):
        entries = []
        prev, c = END, idx.head[r]
        while c != END:
            assert idx.slot[c] == r
            assert idx.prev[c] == prev
            entries.append(c)
            prev, c = c, idx.next[c]
        assert idx.tail[r] == prev
        assert len(entries) == idx.count[r]
        if not entries:
            continue
        # every entry has the head's digram
        want = idx.digram(r)
        parent, _, child = want
        assert max_rank is None or parent.rank + child.rank - 1 <= max_rank
        # a dropped key looked up again would list its digram twice
        assert owner.setdefault(want, r) == r, (want, owner[want], r)
        for c in entries:
            p, i = ar.parents[c], ar.pindex[c]
            assert ar.labels[c] is not None and p != -1
            assert ar.children[p][i - 1] == c
            assert (ar.labels[p], i, g.resolve_label(ar.labels[c])) == want
        listed.update(entries)
    assert listed == {c for c, r in enumerate(idx.slot) if r != FREE}
    for key, r in idx.records.items():
        assert owner.get(key, r) == r
        assert not idx.count[r] or idx.digram(r) == key

    limit = idx.bucket_limit
    placed = [r for b in range(2, limit) for r in idx.buckets[b]] + list(idx.top)
    assert len(placed) == len(set(placed))
    assert set(placed) == {r for r, n in enumerate(idx.count) if n >= 2}
    for b in range(2, limit):
        assert all(idx.count[r] == b for r in idx.buckets[b])
    assert all(idx.count[r] >= limit for r in idx.top)
    assert not any(idx.buckets[b] for b in range(idx.cursor + 1, limit))
    # so a record falling out of the top list lands at or below the cursor
    assert not idx.top or idx.cursor >= limit - 1


def run_checked(g, idx, max_rank):
    """``run_replacement_step`` with ``check_index`` before every pop, and
    every popped record checked to have two or more occurrences."""
    pop = idx.pop_most_frequent

    def checked_pop():
        check_index(idx, max_rank)
        r = pop()
        assert r is None or idx.count[r] >= 2, (r, idx.count[r])
        return r

    idx.pop_most_frequent = checked_pop
    return run_replacement_step(g, idx)


class TestRunInvariants:
    @pytest.mark.parametrize("max_rank", [2, None])
    def test_index_is_consistent_after_every_round(self, max_rank):
        # At 300 nodes these documents share enough for rounds to meet
        # both shared and single-use DAG children.
        rounds = 0
        for seed in range(40):
            g = build_dag_grammar(parse_xml(random_xml(seed + 300, 300)))
            idx = build_index(g, max_rank=max_rank)
            rounds += len(run_checked(g, idx, max_rank))
            validate_grammar(g)
        assert rounds > 250

    @pytest.mark.parametrize("n_edges, limit", [(1, 1), (4, 2), (9, 3)])
    def test_placement_at_the_smallest_bucket_limits(self, n_edges, limit):
        # The top list starts at count 2, 2 and 3: a record crosses from no
        # place to the top list, or from a bucket to it, at the boundary.
        # At limit 1 every placed record is in the top list, so one whose
        # count falls below two must leave it, or a pop hands it out again
        # and the run never ends.
        rounds = 0
        for seed in range(40):
            g = build_dag_grammar(parse_xml(random_xml(seed + 300, 300)))
            idx = build_index(g, n_edges=n_edges)
            assert idx.bucket_limit == limit
            rounds += len(run_checked(g, idx, None))
            validate_grammar(g)
        assert rounds > 250


def listed_off_round(g, idx):
    """Run ``run_replacement_step`` with ``idx.link`` wrapped: returns the
    number of edges linked and those without the round's new nonterminal
    at one end (as parent or as resolved child)."""
    ar = g.arena
    link, new_nonterminal = idx.link, g.new_nonterminal
    rounds = []
    edges = []
    off = []

    def tracked_new_nonterminal(rank, is_dag):
        nt = new_nonterminal(rank, is_dag)
        if not is_dag:
            rounds.append(nt)
        return nt

    def checked_link(nodes):
        a = rounds[-1]
        edges.extend(nodes)
        for c in nodes:
            parent = ar.labels[ar.parents[c]]
            if parent is not a and g.resolve_label(ar.labels[c]) is not a:
                off.append((parent, ar.pindex[c], ar.labels[c]))
        link(nodes)

    g.new_nonterminal = tracked_new_nonterminal
    idx.link = checked_link
    run_replacement_step(g, idx)
    return len(edges), off


class TestRoundContract:
    """Between two pops ``link`` lists only edges with the popped round's
    new nonterminal at one end, which is what lets ``records`` forget the
    keys of earlier rounds."""

    @pytest.mark.parametrize("use_dag", [True, False])
    def test_every_linked_edge_has_the_round_symbol(self, use_dag):
        edges = 0
        for max_rank in (0, 1, 2, 3, 4, None):
            for seed in range(25):
                bt = parse_xml(random_xml(seed + 500, 600))
                n_edges = bt.edge_count
                g = build_dag_grammar(bt) if use_dag else SlcfGrammar.from_tree(bt)
                idx = build_index(g, n_edges=n_edges, max_rank=max_rank)
                n, off = listed_off_round(g, idx)
                assert off == [], (max_rank, seed, off[:3])
                edges += n
        assert edges > 10_000

    def test_unbounded_gen_M(self):
        bt = gen_M(3)
        n_edges = bt.edge_count
        g = build_dag_grammar(bt)
        n, off = listed_off_round(g, build_index(g, n_edges=n_edges))
        assert off == [] and n > 1000


class TestCursor:
    """No bucket above the cursor holds a record: a record placed above a
    cursor that a pop has lowered must raise it, or the next pop misses
    the record."""

    def popped_round(self):
        # Three occurrences of (f,1,a) and single edges otherwise; at 100
        # edges the buckets run to 9, so the pop lowers the cursor to 3.
        g = SlcfGrammar.from_tree(ranked_bt(
            ("r/3", [("f/1", ["a/0"]), ("f/1", ["a/0"]), ("f/1", ["a/0"])])))
        idx = build_index(g, n_edges=100)
        assert (idx.bucket_limit, idx.cursor) == (10, 9)
        r = idx.pop_most_frequent()
        assert idx.digram(r) == (ranked("f/1"), 1, ranked("a/0"))
        assert idx.cursor == 3
        return g, idx, r

    def round_edges(self, g, k):
        """k fresh edges (A, 1, b) of the round's new nonterminal A."""
        a = g.new_nonterminal(1, is_dag=False)
        return [root + 1 for root in g.new_tree([a, ranked("b/0")] * k)]

    def test_link_past_the_cursor_raises_it(self):
        g, idx, r = self.popped_round()
        idx.link(self.round_edges(g, 4))
        new = idx.pop_most_frequent()
        assert new != r and idx.count[new] == 4
        check_index(idx, None)

    def test_a_record_falling_from_the_top_list_is_not_above_the_cursor(self):
        # The record climbs through the buckets into the top list, raising
        # the cursor on its way, so unlink has no cursor to raise.
        g, idx, r = self.popped_round()
        edges = self.round_edges(g, idx.top_at)
        idx.link(edges)
        new = idx.slot[edges[0]]
        assert new in idx.top and idx.cursor == idx.top_at - 1
        unlink(idx, edges[:1])
        assert new in idx.buckets[idx.top_at - 1]
        check_index(idx, None)
        assert idx.pop_most_frequent() == new
