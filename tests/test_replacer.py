"""Digram replacement: pattern production, splice, shared-production cases."""

import cProfile
import pstats

import pytest

from treerepair import (DigramIndex, build_dag_grammar, build_index, compress_tree,
                        compress_xml_bytes, digram_index, parse_xml, replacer,
                        run_replacement_step, slcf_grammar, xml_tree)
from treerepair.digram_index import END
from treerepair.fixtures import gen_M
from treerepair.replacer import pattern_tree, replace_round
from treerepair.slcf_grammar import SlcfGrammar

from conftest import BOOKS, make_grammar, random_xml, ranked, ranked_bt
from oracles import (canonical_text, digram_record, occurrence_nodes,
                     replace_round_by_occurrence, same_structure, validate_grammar)
from test_slcf_grammar import G4_TEXT


def chain(token, depth, leaf="a/0"):
    spec = leaf
    for _ in range(depth):
        spec = (token, [spec])
    return spec


class TestPlainReplacement:
    def test_books_full_replacement_stage(self):
        g = SlcfGrammar.from_tree(parse_xml(BOOKS))
        created = run_replacement_step(g, build_index(g))
        assert [nt.rank for nt in created] == [0, 0, 1, 1]
        assert canonical_text(g) == G4_TEXT
        assert g.grammar_size() == 10
        validate_grammar(g)
        assert same_structure(g.unfold_value(), parse_xml(BOOKS))

    def test_chain_tolerates_transient_overlap(self):
        g = SlcfGrammar.from_tree(ranked_bt(chain("f/1", 6)))
        run_replacement_step(g, build_index(g))
        assert canonical_text(g) == (
            "A_1(y) -> f/1(f/1(y))\nA_2(y) -> A_1(A_1(y))\nS -> A_1(A_2(a/0))"
        )
        validate_grammar(g)
        want = ranked_bt(chain("f/1", 6))
        assert same_structure(g.unfold_value(), want)

    def test_rank_bound_is_respected(self):
        for seed in range(15):
            for bound in (1, 2):
                g = SlcfGrammar.from_tree(parse_xml(random_xml(seed, 90)))
                created = run_replacement_step(g, build_index(g, max_rank=bound))
                assert all(nt.rank <= bound for nt in created)
                validate_grammar(g)

    def test_value_preserved_on_random_trees(self):
        for seed in range(30):
            data = random_xml(seed + 500, 150)
            g = SlcfGrammar.from_tree(parse_xml(data))
            run_replacement_step(g, build_index(g))
            validate_grammar(g)
            assert same_structure(g.unfold_value(), parse_xml(data)), data


class TestSharedChild:
    def test_multiply_referenced_child_is_split(self):
        g, _ = make_grammar([
            ("A", 0, ("h/2", ["b/0", "c/0"])),
            ("S", 0, ("f/2", [("g/2", ["a/0", "A"]), "A"])),
        ], dag={"A"})
        want = g.unfold_value()
        g, _ = make_grammar([
            ("A", 0, ("h/2", ["b/0", "c/0"])),
            ("S", 0, ("f/2", [("g/2", ["a/0", "A"]), "A"])),
        ], dag={"A"})
        idx = build_index(g)
        f, h = ranked("f/2"), ranked("h/2")
        assert len(occurrence_nodes(idx, f, 2, h)) == 1
        a = g.new_nonterminal(f.rank + h.rank - 1, is_dag=False)
        assert a.rank == 3
        g.add_production(a, pattern_tree(g, f, 2, h))
        replace_round(g, idx, digram_record(idx, f, 2, h), 2, a)
        assert canonical_text(g) == (
            "A_1(y,y,y) -> f/2(y,h/2(y,y))\n"
            "A_2 -> b/0\n"
            "A_3 -> c/0\n"
            "A_4 -> h/2(A_2,A_3)\n"
            "S -> A_1(g/2(a/0,A_4),A_2,A_3)"
        )
        assert g.grammar_size() == 11
        validate_grammar(g)
        assert same_structure(g.unfold_value(), want)

    def test_singly_referenced_child_is_inlined(self):
        g, _ = make_grammar([
            ("A", 0, ("g/2", ["a/0", "b/0"])),
            ("S", 0, ("f/2", ["A", "c/0"])),
        ], dag={"A"})
        want = g.unfold_value()
        g, _ = make_grammar([
            ("A", 0, ("g/2", ["a/0", "b/0"])),
            ("S", 0, ("f/2", ["A", "c/0"])),
        ], dag={"A"})
        idx = build_index(g)
        f, gsym = ranked("f/2"), ranked("g/2")
        assert len(occurrence_nodes(idx, f, 1, gsym)) == 1
        a = g.new_nonterminal(f.rank + gsym.rank - 1, is_dag=False)
        g.add_production(a, pattern_tree(g, f, 1, gsym))
        replace_round(g, idx, digram_record(idx, f, 1, gsym), 1, a)
        assert canonical_text(g) == (
            "A_1(y,y,y) -> f/2(g/2(y,y),y)\nS -> A_1(a/0,b/0,c/0)"
        )
        assert g.nonterminal_count == 2
        validate_grammar(g)
        assert same_structure(g.unfold_value(), want)

    def test_replacement_over_shared_layers_preserves_value(self):
        for seed in range(30):
            data = random_xml(seed + 900, 150)
            g = build_dag_grammar(parse_xml(data))
            run_replacement_step(g, build_index(g))
            validate_grammar(g)
            assert same_structure(g.unfold_value(), parse_xml(data)), data


def index_state(g, idx):
    """What a round leaves behind: the grammar up to renaming, the record
    counts, each record's list of edges in order, the key order of every
    bucket and of the top list, and the cursor."""
    lists = []
    for r in range(len(idx.count)):
        c, edges = idx.head[r], []
        while c != END:
            edges.append(c)
            c = idx.next[c]
        lists.append(edges)
    return (canonical_text(g), idx.count, lists, [list(b) for b in idx.buckets],
            idx.cursor)


class TestRoundOracle:
    """``replace_round`` leaves the grammar and the index as the
    per-occurrence rewrite through the grammar's helpers does
    (``oracles.replace_occurrence``), round by round."""

    @pytest.mark.parametrize("max_rank", [2, None])
    @pytest.mark.parametrize("n_edges, limit", [(1, 1), (4, 2), (9, 3)])
    def test_round_equals_the_per_occurrence_rewrite(self, max_rank, n_edges, limit):
        rounds = 0
        for seed in range(40):
            # At 300 nodes these documents share enough for rounds to meet
            # both shared and single-use DAG children.
            data = random_xml(seed + 300, 300)
            sides = []
            for rewrite in (replace_round, replace_round_by_occurrence):
                g = build_dag_grammar(parse_xml(data))
                idx = build_index(g, n_edges=n_edges, max_rank=max_rank)
                assert idx.bucket_limit == limit
                sides.append((g, idx, rewrite))
            (g1, idx1, _), (g2, idx2, _) = sides
            while True:
                r = idx1.pop_most_frequent()
                assert idx2.pop_most_frequent() == r
                if r is None:
                    break
                rewrite_both(sides, r)
                assert index_state(g1, idx1) == index_state(g2, idx2), (seed, r)
                rounds += 1
        assert rounds > 250

    def test_edges_into_v_drop_before_its_child_edges(self):
        # One rewrite drops the edge into v, of X = (q, 1, p), and v's
        # child edge of Y = (p, 2, x), both at count 3 in the top list, so
        # both land in bucket 2.  Their order there is the drop order, and
        # the next pop takes the first of them.
        tops = [("q/1", [("p/2", ["a/0", "x/0"])]),
                ("q/1", [("p/2", ["z1/0", "u1/0"])]),
                ("q/1", [("p/2", ["z2/0", "u2/0"])]),
                ("m1/1", [("p/2", ["z3/0", "x/0"])]),
                ("m2/1", [("p/2", ["z4/0", "x/0"])]),
                ("t1/1", [("p/2", ["a/0", "w1/0"])]),
                ("t2/1", [("p/2", ["a/0", "w2/0"])])]
        sides = []
        for rewrite in (replace_round, replace_round_by_occurrence):
            g, _ = make_grammar([("S", 0, ("R/7", tops))])
            idx = build_index(g, n_edges=9)
            assert idx.bucket_limit == 3
            sides.append((g, idx, rewrite))
        (g1, idx1, _), (g2, idx2, _) = sides
        q, p, a, x = ranked("q/1"), ranked("p/2"), ranked("a/0"), ranked("x/0")
        r = digram_record(idx1, p, 1, a)
        X, Y = digram_record(idx1, q, 1, p), digram_record(idx1, p, 2, x)
        assert [idx1.count[s] for s in (r, X, Y)] == [3, 3, 3]
        assert idx1.pop_most_frequent() == idx2.pop_most_frequent() == r
        rewrite_both(sides, r)
        assert index_state(g1, idx1) == index_state(g2, idx2)
        assert list(idx1.buckets[2]) == [X, Y]
        assert idx1.pop_most_frequent() == idx2.pop_most_frequent() == X


def rewrite_both(sides, r):
    """Make each side's pattern production for record r and run that
    side's round rewrite on it."""
    for g, idx, rewrite in sides:
        parent, index, child = idx.digram(r)
        a = g.new_nonterminal(parent.rank + child.rank - 1, is_dag=False)
        g.add_production(a, pattern_tree(g, parent, index, child))
        rewrite(g, idx, r, index, a)


class TestIndexProtocol:
    """Call counts, not wall time: a round rewrites its occurrences itself,
    with one ``link`` call per rewrite and none of the per-node arena and
    grammar helpers, and the index places records inside ``link``."""

    def test_each_rewrite_links_once_and_calls_no_node_helper(self, monkeypatch):
        # A round's rewrites are its nonterminal's references at the next
        # pop, wrapping pop_most_frequent as run_checked does.
        rounds, rewrites = [], []
        new_nonterminal = SlcfGrammar.new_nonterminal
        pop = DigramIndex.pop_most_frequent

        def tracked_new_nonterminal(g, rank, is_dag):
            nt = new_nonterminal(g, rank, is_dag)
            if not is_dag:
                rounds.append(nt)
            return nt

        def counting_pop(idx):
            while rounds:
                rewrites.append(len(rounds.pop().refs))
            return pop(idx)

        monkeypatch.setattr(SlcfGrammar, "new_nonterminal", tracked_new_nonterminal)
        monkeypatch.setattr(DigramIndex, "pop_most_frequent", counting_pop)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            compress_tree(gen_M(3))
            compress_xml_bytes(random_xml(5, max_nodes=300))
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler).stats
        assert sum(rewrites) > 0
        rnd, = [f for f in stats if f[0] == replacer.__file__ and f[2] == "replace_round"]
        callees = {(f[0], f[2]): callers[rnd][0]
                   for f, (*_, callers) in stats.items() if rnd in callers}
        assert callees.get((digram_index.__file__, "link")) == sum(rewrites)
        helpers = {(xml_tree.__file__, "new_node"), (xml_tree.__file__, "kill"),
                   (xml_tree.__file__, "set_children"),
                   (slcf_grammar.__file__, "new_node"), (slcf_grammar.__file__, "relabel"),
                   (slcf_grammar.__file__, "kill_node")}
        assert not callees.keys() & helpers
        # Both DAG branches ran: a shared child was split, a single-use
        # one spliced.
        assert {(slcf_grammar.__file__, "share"),
                (slcf_grammar.__file__, "eliminate")} <= callees.keys()
        # link places records itself: it calls none of the index's own
        # functions.
        link, = [f for f in stats if f[0] == digram_index.__file__ and f[2] == "link"]
        assert not {f for f, (*_, callers) in stats.items()
                    if f[0] == digram_index.__file__ and link in callers}
