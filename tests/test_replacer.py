"""Digram replacement: pattern production, splice, shared-production cases."""

import cProfile
import pstats

from treerepair import (build_index, compress_tree, compress_xml_bytes, digram_index,
                        parse_xml, replacer, run_replacement_step, slcf_grammar)
from treerepair.fixtures import gen_M
from treerepair.replacer import pattern_tree, replace_occurrence
from treerepair.slcf_grammar import SlcfGrammar

from conftest import BOOKS, make_grammar, random_xml, ranked, ranked_bt
from oracles import canonical_text, occurrence_nodes, same_structure, validate_grammar
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
        [v] = occurrence_nodes(idx, f, 2, h)
        a = g.new_nonterminal(f.rank + h.rank - 1, is_dag=False)
        assert a.rank == 3
        g.add_production(a, pattern_tree(g, f, 2, h))
        replace_occurrence(g, idx, v, 2, a)
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
        [v] = occurrence_nodes(idx, f, 1, gsym)
        a = g.new_nonterminal(f.rank + gsym.rank - 1, is_dag=False)
        g.add_production(a, pattern_tree(g, f, 1, gsym))
        replace_occurrence(g, idx, v, 1, a)
        assert canonical_text(g) == (
            "A_1(y,y,y) -> f/2(g/2(y,y),y)\nS -> A_1(a/0,b/0,c/0)"
        )
        assert g.nonterminal_count == 2
        validate_grammar(g)
        assert same_structure(g.unfold_value(), want)

    def test_replacement_over_shared_layers_preserves_value(self):
        from treerepair import build_dag_grammar

        for seed in range(30):
            data = random_xml(seed + 900, 150)
            g = build_dag_grammar(parse_xml(data))
            run_replacement_step(g, build_index(g))
            validate_grammar(g)
            assert same_structure(g.unfold_value(), parse_xml(data)), data


class TestIndexProtocol:
    """Call counts, not wall time: a rewrite drives the digram index
    through one unlink and one link, and the index places records inside
    those two calls."""

    def test_each_rewrite_unlinks_once_and_links_once(self):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            compress_tree(gen_M(3))
            compress_xml_bytes(random_xml(5, max_nodes=300))
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler).stats
        rewrite, = [f for f in stats
                    if f[0] == replacer.__file__ and f[2] == "replace_occurrence"]
        rewrites = stats[rewrite][1]
        assert rewrites > 0
        called = {f[2]: callers[rewrite][0]
                  for f, (*_, callers) in stats.items()
                  if f[0] == digram_index.__file__ and rewrite in callers}
        assert called == {"unlink": rewrites, "link": rewrites}
        # link and unlink place records themselves: they call none of the
        # index's own functions.
        lists = {f for f in stats
                 if f[0] == digram_index.__file__ and f[2] in ("link", "unlink")}
        callees = {f[2] for f, (*_, callers) in stats.items()
                   if f[0] == digram_index.__file__ and callers.keys() & lists}
        assert not callees
        # Both DAG branches ran: a shared child was split, a single-use
        # one spliced.
        branches = {f[2] for f, (*_, callers) in stats.items()
                    if rewrite in callers
                    and (f[0], f[2]) in {(replacer.__file__, "_split_shared"),
                                         (slcf_grammar.__file__, "eliminate")}}
        assert branches == {"_split_shared", "eliminate"}
