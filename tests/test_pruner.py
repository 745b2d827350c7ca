"""Two-phase pruning and the savings heuristic."""

from treerepair import build_index, parse_xml, prune, run_replacement_step
from treerepair.pruner import EDGES_THRESHOLD, FILESIZE_THRESHOLD
from treerepair.slcf_grammar import SlcfGrammar

from conftest import BOOKS, make_grammar, ranked_bt
from oracles import canonical_text, same_structure, validate_grammar


def three_production_grammar():
    return make_grammar([
        ("A", 2, ("f/2", [("B", ["y"]), "y"])),
        ("B", 1, ("f/2", ["y", "a/0"])),
        ("S", 0, ("f/2", [("A", ["a/0", "a/0"]), ("B", [("A", ["a/0", "a/0"])])])),
    ])


def books_replaced():
    g = SlcfGrammar.from_tree(parse_xml(BOOKS))
    run_replacement_step(g, build_index(g))
    return g


class TestThresholds:
    def test_objective_constants(self):
        assert EDGES_THRESHOLD == 0
        assert FILESIZE_THRESHOLD == 2


class TestEliminationOrder:
    def test_savings_of_the_worked_three_production_grammar(self):
        g, nts = three_production_grammar()
        assert g.grammar_size() == 12
        assert g.sav(nts["A"]) == -1
        assert g.sav(nts["B"]) == 0

    def test_pruning_visits_users_before_their_suppliers(self):
        g, _ = three_production_grammar()
        prune(g, EDGES_THRESHOLD)
        assert canonical_text(g) == (
            "A_1(y) -> f/2(y,a/0)\n"
            "S -> f/2(f/2(A_1(a/0),a/0),A_1(f/2(A_1(a/0),a/0)))"
        )
        assert g.grammar_size() == 11
        validate_grammar(g)

    def test_supplier_first_order_would_end_larger(self):
        g, nts = three_production_grammar()
        want = g.unfold_value()
        g.eliminate(nts["B"])
        assert g.grammar_size() == 12
        assert g.sav(nts["A"]) == 0
        g.eliminate(nts["A"])
        assert canonical_text(g) == (
            "S -> f/2(f/2(f/2(a/0,a/0),a/0),f/2(f/2(f/2(a/0,a/0),a/0),a/0))"
        )
        assert g.grammar_size() == 12
        assert same_structure(g.unfold_value(), want)

    def test_savings_are_recomputed_after_each_elimination(self):
        # the fourth replacement nonterminal starts with sav 0 and falls;
        # the third is kept only because eliminating the fourth raised its
        # reference count from 2 to 4
        g = books_replaced()
        prune(g, EDGES_THRESHOLD)
        assert canonical_text(g) == (
            "A_1 -> author^01(title^01(isbn^00))\n"
            "A_2(y) -> book^11(A_1,y)\n"
            "S -> books^10(A_2(A_2(A_2(A_2(book^10(A_1))))))"
        )
        assert g.grammar_size() == 10
        assert g.nonterminal_count == 3


class TestPhaseOne:
    def test_singly_referenced_production_is_merged(self):
        g, _ = make_grammar([
            ("A", 0, ("g/1", ["a/0"])),
            ("S", 0, ("f/2", ["A", "b/0"])),
        ])
        prune(g, EDGES_THRESHOLD)
        assert canonical_text(g) == "S -> f/2(g/1(a/0),b/0)"

    def test_chain_helper_production_is_merged(self):
        g = SlcfGrammar.from_tree(ranked_bt(
            ("f/1", [("f/1", [("f/1", [("f/1", [("f/1", [("f/1", ["a/0"])])])])])])
        ))
        run_replacement_step(g, build_index(g))
        prune(g, EDGES_THRESHOLD)
        assert canonical_text(g) == "A_1(y) -> f/1(f/1(y))\nS -> A_1(A_1(A_1(a/0)))"
        assert g.grammar_size() == 5


class TestObjectives:
    def test_boundary_savings_split_the_two_objectives(self):
        prods = [
            ("A", 0, ("g/2", ["a/0", "b/0"])),
            ("S", 0, ("f/2", ["A", "A"])),
        ]
        g, nts = make_grammar(prods)
        assert g.sav(nts["A"]) == 2
        prune(g, EDGES_THRESHOLD)
        assert canonical_text(g) == "A_1 -> g/2(a/0,b/0)\nS -> f/2(A_1,A_1)"
        g, _ = make_grammar(prods)
        prune(g, FILESIZE_THRESHOLD)
        assert canonical_text(g) == "S -> f/2(g/2(a/0,b/0),g/2(a/0,b/0))"

    def test_books_file_size_objective_keeps_only_the_chain(self):
        g = books_replaced()
        prune(g, FILESIZE_THRESHOLD)
        assert canonical_text(g) == (
            "A_1 -> author^01(title^01(isbn^00))\n"
            "S -> books^10(book^11(A_1,book^11(A_1,book^11(A_1,"
            "book^11(A_1,book^10(A_1))))))"
        )
        assert g.grammar_size() == 12
        assert g.nonterminal_count == 2

    def test_start_production_always_survives(self):
        g = SlcfGrammar.from_tree(parse_xml(b"<a><b/></a>"))
        prune(g, FILESIZE_THRESHOLD)
        assert g.nonterminal_count == 1
        assert g.grammar_size() == 1
