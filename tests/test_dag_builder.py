"""Subtree sharing (minimal-DAG grammar construction)."""

from treerepair import build_dag_grammar, parse_xml
from treerepair.fixtures import gen_perfect_binary

from conftest import BOOKS, make_grammar, random_xml, ranked_bt
from oracles import canonical_text, same_structure, validate_grammar

BOOKS_DAG_TEXT = (
    "A_1 -> author^01(title^01(isbn^00))\n"
    "S -> books^10(book^11(A_1,book^11(A_1,book^11(A_1,book^11(A_1,book^10(A_1))))))"
)


class TestSharing:
    def test_books_shares_the_record_chain(self):
        g = build_dag_grammar(parse_xml(BOOKS))
        assert canonical_text(g) == BOOKS_DAG_TEXT
        assert g.grammar_size() == 12
        assert g.nonterminal_count == 2
        validate_grammar(g)

    def test_repeated_subtree_with_inner_repeat(self):
        sub = ("f/2", ["a/0", ("f/2", ["a/0", "a/0"])])
        g = build_dag_grammar(ranked_bt(("f/2", [sub, sub])))
        assert canonical_text(g) == "A_1 -> f/2(a/0,f/2(a/0,a/0))\nS -> f/2(A_1,A_1)"
        assert g.grammar_size() == 6

    def test_perfect_tree_shares_every_level(self):
        g = build_dag_grammar(gen_perfect_binary(3))
        assert canonical_text(g) == (
            "A_1 -> f^11(a^00,a^00)\nA_2 -> f^11(A_1,A_1)\nS -> f^11(A_2,A_2)"
        )
        for d in range(1, 9):
            g = build_dag_grammar(gen_perfect_binary(d))
            assert g.nonterminal_count == d
            assert g.grammar_size() == 2 * d
            validate_grammar(g)

    def test_leaves_are_never_shared(self):
        g = build_dag_grammar(ranked_bt(("f/2", ["a/0", "a/0"])))
        assert canonical_text(g) == "S -> f/2(a/0,a/0)"
        assert g.nonterminal_count == 1

    def test_single_node_repeated_subtree(self):
        sub = ("g/1", ["a/0"])
        g = build_dag_grammar(ranked_bt(("f/2", [sub, sub])))
        assert canonical_text(g) == "A_1 -> g/1(a/0)\nS -> f/2(A_1,A_1)"
        assert g.grammar_size() == 3


class TestCollapse:
    SPEC = ("f/2", [("g/1", [("h/2", ["a/0", "b/0"])]), ("g/1", [("h/2", ["a/0", "b/0"])])])

    def test_collapse_inlines_singly_referenced_productions(self):
        g = build_dag_grammar(ranked_bt(self.SPEC))
        assert canonical_text(g) == "A_1 -> g/1(h/2(a/0,b/0))\nS -> f/2(A_1,A_1)"

    def test_splice_single_refs_moves_nodes_without_copying(self):
        # D -> C -> B -> A is a chain of single uses: C's rhs is a bare
        # reference to D, and B has a parameter.  E is used twice.
        g, nts = make_grammar([
            ("D", 0, ("f/2", ["a/0", "b/0"])),
            ("C", 0, "D"),
            ("B", 1, ("g/2", ["y", "C"])),
            ("A", 0, ("B", ["c/0"])),
            ("E", 0, ("e/1", ["a/0"])),
            ("S", 0, ("s/3", ["A", "E", "E"])),
        ])
        want = g.unfold_value()
        arena_size = len(g.arena)
        g.splice_single_refs()
        assert canonical_text(g) == (
            "A_1 -> e/1(a/0)\nS -> s/3(g/2(c/0,f/2(a/0,b/0)),A_1,A_1)")
        assert list(g.productions) == [nts["E"].id, nts["S"].id]
        assert len(g.arena) == arena_size
        assert same_structure(g.unfold_value(), want)
        validate_grammar(g)

    def test_value_is_preserved(self):
        for seed in range(25):
            data = random_xml(seed + 7, 120)
            g = build_dag_grammar(parse_xml(data))
            validate_grammar(g)
            assert same_structure(g.unfold_value(), parse_xml(data)), data
