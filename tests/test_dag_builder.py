"""Subtree sharing (minimal-DAG grammar construction)."""

import random

import pytest

from treerepair import ParseError, UnsupportedInputError, build_dag_grammar, parse_xml
from treerepair.dag_builder import dag_grammar
from treerepair.fixtures import gen_perfect_binary
from treerepair.xml_tree import parse_xml_classes

from conftest import BOOKS, make_grammar, random_shape, random_xml, ranked_bt, shape_to_xml
from oracles import canonical_text, dag_grammar_by_sharing, same_structure, validate_grammar

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


def grammar_facts(g):
    """What two builds of one grammar must agree on: the production ids,
    the start id, the next free id, the canonical text, each production's
    references as (user id, preorder position) pairs in reference order,
    and the terminal order."""
    t = g.arena
    place = {}
    for i, nt in g.productions.items():
        stack = [nt.root]
        k = 0
        while stack:
            v = stack.pop()
            place[v] = (i, k)
            k += 1
            stack += reversed(t.children[v])
    refs = {i: [place[v] for v in nt.refs] for i, nt in g.productions.items()}
    return (list(g.productions), g.start_id, g._next_id, canonical_text(g), refs,
            g.terminal_order)


def few_names_xml(seed, max_nodes):
    rng = random.Random(seed)
    return shape_to_xml(random_shape(rng, max_nodes, names="ab"))


# a repeat nested inside a repeat, and each repeat also on its own
NESTED_REPEATS = (b"<r>" + b"<a><b><c/><c/></b><b><c/><c/></b><d/></a>" * 3
                  + b"<b><c/><c/></b><a><b><c/><c/></b><b><c/><c/></b><d/></a></r>")

# inputs for which the binary model's parse fails, or has one element
BAD_INPUTS = (b"", b"junk", b"<a>", b"<a><b/>", b"<a><b></a>", b"<a/><b/>",
              b"<a><b/></a><c/>", b"<a/>", b"<a></a>", b"<a>just text</a>")



class TestSharingWhileParsing:
    """``dag_grammar(parse_xml_classes(d))`` is the grammar that
    ``build_dag_grammar(parse_xml(d))`` makes, and that sharing repeats
    one by one and splicing makes (``dag_grammar_by_sharing``); the class
    table counts the tree's edges."""

    def check(self, data, by_sharing=True):
        classes = parse_xml_classes(data)
        assert classes.edge_count == parse_xml(data).edge_count
        g = dag_grammar(classes)
        facts = grammar_facts(g)
        assert facts == grammar_facts(build_dag_grammar(parse_xml(data)))
        if by_sharing:
            assert facts == grammar_facts(dag_grammar_by_sharing(parse_xml(data)))
        return g

    def test_random_documents(self):
        for seed in range(60):
            self.check(random_xml(seed, 20 + 10 * seed))
            self.check(few_names_xml(seed, 20 + 10 * seed))

    def test_repeat_inside_a_repeat(self):
        g = self.check(NESTED_REPEATS)
        validate_grammar(g)
        # b^11(A_1,d^00) is sighted twice and takes id 1, but stays inline:
        # its one DAG parent is the b^11 above it
        assert list(g.productions) == [0, 2, 3]
        assert canonical_text(g) == (
            "A_1 -> c^01(c^00)\n"
            "A_2 -> b^11(A_1,b^11(A_1,d^00))\n"
            "S -> r^10(a^11(A_2,a^11(A_2,a^11(A_2,b^11(A_1,a^10(A_2))))))")

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_and_wide_documents(self):
        # too large for the oracle, which keys by preorder and recurses
        depth = 50_000
        self.check(b"<a>" * depth + b"</a>" * depth, by_sharing=False)
        g = self.check(b"<r>" + b"<a><b><c/></b></a>" * 50_000 + b"</r>", by_sharing=False)
        shared, = (nt for nt in g.productions.values() if nt.is_dag)
        assert len(shared.refs) == 50_000

    def test_bad_inputs_raise_the_same_errors(self):
        for data in BAD_INPUTS:
            with pytest.raises((ParseError, UnsupportedInputError)) as want:
                parse_xml(data)
            with pytest.raises(type(want.value)) as got:
                parse_xml_classes(data)
            assert str(got.value) == str(want.value), data
