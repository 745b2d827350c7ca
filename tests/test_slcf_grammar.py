"""Grammar container: unfolding, ordering, elimination, bookkeeping."""

import random

import pytest

from treerepair import (BinaryTree, ChildrenCharacteristic, TerminalSymbol,
                        UnsupportedInputError, parse_xml, serialize_xml)
from treerepair.slcf_grammar import GrammarError, SlcfGrammar, _tag_table

from conftest import BOOKS, make_grammar
from oracles import (LazyTags, canonical_text, postorder_nodes, same_structure,
                     validate_grammar)

G4_TEXT = (
    "A_1 -> title^01(isbn^00)\n"
    "A_2 -> author^01(A_1)\n"
    "A_3(y) -> book^11(A_2,y)\n"
    "A_4(y) -> A_3(A_3(y))\n"
    "S -> books^10(A_4(A_4(book^10(A_2))))"
)


def books_g4():
    from treerepair import build_index, run_replacement_step

    g = SlcfGrammar.from_tree(parse_xml(BOOKS))
    run_replacement_step(g, build_index(g))
    return g


def unfold_example():
    return make_grammar([
        ("A", 1, ("g/2", [("i/2", ["a/0", "a/0"]), ("i/2", ["a/0", "y"])])),
        ("B", 0, ("h/1", ["a/0"])),
        ("S", 0, ("f/3", [("A", ["a/0"]), ("A", ["b/0"]), "B"])),
    ])


class TestUnfold:
    def test_parameters_substitute_positionally(self):
        g, _ = unfold_example()
        bt = g.unfold_value()
        assert bt.node_count == 17
        names = [bt.tree.labels[v].name for v in bt.tree.iter_postorder(bt.root)]
        assert names == list("aaiaaigaaiabigahf")

    def test_list_matches_recursive_postorder(self):
        g, _ = unfold_example()
        bt = g.unfold_value()
        assert list(bt.tree.iter_postorder(bt.root)) == postorder_nodes(bt.tree, bt.root)

    def test_wrapped_tree_survives_replacement(self):
        g = books_g4()
        assert same_structure(g.unfold_value(), parse_xml(BOOKS))

    def test_node_cap_limits_expansion(self):
        prods = [("A1", 0, ("f/2", ["a/0", "a/0"]))]
        for i in range(2, 6):
            prods.append(("A%d" % i, 0, ("f/2", ["A%d" % (i - 1)] * 2)))
        prods.append(("S", 0, ("f/2", ["A5", "A5"])))
        g, _ = make_grammar(prods)
        assert g.unfold_value().node_count == 127
        g, _ = make_grammar(prods)
        with pytest.raises(GrammarError):
            g.unfold_value(node_cap=50)


class TestHierarchicalOrder:
    def test_referenced_productions_come_first(self):
        g = books_g4()
        order = g.hierarchical_order()
        assert order[-1] == g.start_id
        pos = {nid: i for i, nid in enumerate(order)}
        for nid, (_, uses) in g.census().items():
            for used in uses:
                assert pos[used] < pos[nid]

    def test_three_production_chain(self):
        g, nts = make_grammar([
            ("A", 2, ("f/2", [("B", ["y"]), "y"])),
            ("B", 1, ("f/2", ["y", "a/0"])),
            ("S", 0, ("f/2", [("A", ["a/0", "a/0"]), ("B", [("A", ["a/0", "a/0"])])])),
        ])
        assert g.hierarchical_order() == [nts["B"].id, nts["A"].id, nts["S"].id]

    def test_cycle_is_rejected(self):
        g, _ = make_grammar([
            ("A", 0, ("g/1", ["B"])),
            ("B", 0, ("h/1", ["A"])),
            ("S", 0, ("f/1", ["A"])),
        ])
        with pytest.raises(GrammarError):
            g.hierarchical_order()


class TestEliminate:
    def test_every_reference_gets_a_copy(self):
        g, nts = make_grammar([
            ("A", 1, ("g/2", ["y", "c/0"])),
            ("S", 0, ("f/2", [("A", ["a/0"]), ("A", ["b/0"])])),
        ])
        g.eliminate(nts["A"])
        assert canonical_text(g) == "S -> f/2(g/2(a/0,c/0),g/2(b/0,c/0))"
        assert g.nonterminal_count == 1
        validate_grammar(g)

    def test_bare_reference_right_hand_side(self):
        g, nts = make_grammar([
            ("A", 0, ("f/2", ["a/0", "b/0"])),
            ("S", 0, "A"),
        ])
        g.eliminate(nts["A"])
        assert canonical_text(g) == "S -> f/2(a/0,b/0)"
        validate_grammar(g)

    def test_elimination_preserves_the_derived_tree(self):
        g = books_g4()
        want = g.unfold_value()  # independent arena, safe to keep
        nts = [nt for n, nt in g.productions.items() if n != g.start_id]
        for nt in reversed(nts):
            g.eliminate(nt)
            validate_grammar(g)
        assert g.nonterminal_count == 1
        assert same_structure(g.unfold_value(), want)


def slot(t, v):
    return t.parents[v], t.pindex[v]


class TestNodeIdentity:
    """Sharing and elimination rewrite the reference node in place: the
    node under a parent keeps its slot, only its label and children
    change."""

    def test_share_keeps_the_node_as_the_reference(self):
        g, nts = make_grammar([
            ("A", 1, ("k/1", ["y"])),
            ("S", 0, ("f/2", [("A", [("g/1", ["a/0"])]), "b/0"])),
        ])
        t = g.arena
        v = t.children[g.start().root][0]
        where, kids = slot(t, v), t.children[v]
        dag = g.share(v)
        assert slot(t, v) == where
        assert t.labels[v] is dag and dag.is_dag and t.children[v] == []
        assert list(dag.refs) == [v]
        root = dag.root
        assert root != v and g.root_to_prod[root] is dag
        assert t.labels[root] is nts["A"] and t.children[root] is kids
        assert [slot(t, c) for c in kids] == [(root, 1)]
        assert list(nts["A"].refs) == [root]
        assert canonical_text(g) == (
            "A_1(y) -> k/1(y)\nA_2 -> A_1(g/1(a/0))\nS -> f/2(A_2,b/0)")
        validate_grammar(g)

    def test_eliminating_a_single_use_splices_into_the_reference(self):
        g, nts = make_grammar([
            ("A", 0, ("g/1", ["a/0"])),
            ("S", 0, ("f/2", ["A", "b/0"])),
        ])
        t = g.arena
        r, = nts["A"].refs
        where, root = slot(t, r), nts["A"].root
        label, kids = t.labels[root], list(t.children[root])
        g.eliminate(nts["A"])
        assert slot(t, r) == where
        assert t.labels[r] == label and t.children[r] == kids
        assert [slot(t, c) for c in kids] == [(r, 1)]
        assert t.labels[root] is None
        assert canonical_text(g) == "S -> f/2(g/1(a/0),b/0)"
        validate_grammar(g)

    def test_eliminating_a_shared_production_copies_into_the_references(self):
        g, nts = make_grammar([
            ("A", 0, ("g/1", ["a/0"])),
            ("S", 0, ("f/3", ["A", "b/0", "A"])),
        ])
        t = g.arena
        first, last = nts["A"].refs
        where = [slot(t, first), slot(t, last)]
        root = nts["A"].root
        label, kids = t.labels[root], list(t.children[root])
        g.eliminate(nts["A"])
        assert [slot(t, first), slot(t, last)] == where
        assert t.labels[first] == label and t.labels[last] == label
        assert t.children[last] == kids
        copy, = t.children[first]
        assert copy not in kids and t.labels[copy] == t.labels[kids[0]]
        assert canonical_text(g) == "S -> f/3(g/1(a/0),b/0,g/1(a/0))"
        validate_grammar(g)

    def test_arguments_move_under_the_reference(self):
        g, nts = make_grammar([
            ("A", 2, ("g/3", ["y", "c/0", "y"])),
            ("S", 0, ("f/1", [("A", ["a/0", "b/0"])])),
        ])
        t = g.arena
        r, = nts["A"].refs
        where, (a, b) = slot(t, r), t.children[r]
        g.eliminate(nts["A"])
        assert slot(t, r) == where
        assert t.labels[r].name == "g"
        kids = t.children[r]
        assert (kids[0], kids[2]) == (a, b)
        assert [slot(t, c) for c in kids] == [(r, 1), (r, 2), (r, 3)]
        assert canonical_text(g) == "S -> f/1(g/3(a/0,c/0,b/0))"
        validate_grammar(g)

    def test_a_reference_at_a_production_root_stays_that_root(self):
        g, nts = make_grammar([
            ("A", 0, ("h/2", ["a/0", "b/0"])),
            ("B", 0, "A"),
            ("S", 0, ("f/2", ["B", "B"])),
        ])
        t = g.arena
        owner = nts["B"].root
        g.eliminate(nts["A"])
        assert nts["B"].root == owner
        assert g.root_to_prod[owner] is nts["B"]
        assert t.parents[owner] == -1 and t.labels[owner].name == "h"
        assert canonical_text(g) == "A_1 -> h/2(a/0,b/0)\nS -> f/2(A_1,A_1)"
        validate_grammar(g)


class TestAccounting:
    def test_replacement_stage_sizes_refs_and_savings(self):
        g = books_g4()
        assert canonical_text(g) == G4_TEXT
        assert g.grammar_size() == 10
        assert g.nonterminal_count == 5
        rows = []
        for nid, nt in g.productions.items():
            if nid == g.start_id:
                continue
            rows.append((nt.rank, len(nt.refs), g.production_size(nid), g.sav(nt)))
        assert rows == [(0, 1, 1, 0), (0, 2, 1, 1), (1, 2, 2, 0), (1, 2, 2, 0)]

    def test_validate_accepts_goldens(self):
        validate_grammar(books_g4())
        g, _ = unfold_example()
        validate_grammar(g)

    def test_validate_rejects_rank_mismatch(self):
        g, _ = make_grammar([
            ("A", 1, ("f/1", ["y"])),
            ("S", 0, "A"),
        ])
        with pytest.raises(AssertionError):
            validate_grammar(g)


class TestTagTable:
    """The tag writer's table, built in one pass over the alphabet, is
    the lazy per-terminal table (``oracles.LazyTags``) with every
    terminal that has a children characteristic looked up."""

    def test_equals_the_lazy_table(self):
        for seed in range(40):
            rng = random.Random(seed)
            alphabet = []
            for _ in range(rng.randint(1, 30)):
                name = "".join(rng.choice("ab-é_xyz") for _ in range(rng.randint(1, 4)))
                char = rng.choice([None, *ChildrenCharacteristic])
                alphabet.append(TerminalSymbol(name, rank=rng.randint(0, 3)) if char is None
                                else TerminalSymbol(name, char))
            lazy, want = LazyTags(), {}
            for sym in alphabet:
                if sym.characteristic is None:
                    with pytest.raises(UnsupportedInputError):
                        lazy[sym]
                else:
                    want[sym] = lazy[sym]
            assert _tag_table(alphabet) == want

    def test_only_a_used_terminal_without_a_characteristic_stops_the_writer(self):
        bare = TerminalSymbol("isbn", rank=0)
        with pytest.raises(UnsupportedInputError) as lazy_error:
            LazyTags()[bare]
        g = SlcfGrammar.from_tree(parse_xml(BOOKS))
        g.terminal_order.append(bare)
        assert g.write_xml() == serialize_xml(g.unfold_value()) == BOOKS
        isbn = next(v for v, label in enumerate(g.arena.labels) if label.name == "isbn")
        g.arena.labels[isbn] = bare
        for write in (g.write_xml, lambda: serialize_xml(g.unfold_value())):
            with pytest.raises(UnsupportedInputError) as error:
                write()
            assert str(error.value) == str(lazy_error.value)

    def test_a_used_terminal_outside_the_alphabet_is_reported(self):
        bt = parse_xml(BOOKS)
        with pytest.raises(UnsupportedInputError, match="not in the alphabet"):
            serialize_xml(BinaryTree(bt.tree, bt.root, bt.terminal_order[1:]))
