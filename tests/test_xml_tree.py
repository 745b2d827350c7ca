"""Parsing, the binary tree model, and the arena primitives."""

import copy
import pickle

import pytest

from treerepair import ChildrenCharacteristic, ParseError, UnsupportedInputError, parse_xml, serialize_xml
from treerepair.xml_tree import BinaryTree, TerminalSymbol, Tree

from conftest import BOOKS, random_xml, ranked_bt
from oracles import (binary_shape, element_shape, fcns_shape, postorder_nodes,
                     same_structure, validate_tree)

CC = ChildrenCharacteristic


class TestCharacteristics:
    def test_bit_values(self):
        assert int(CC.NO_CHILDREN) == 0b00
        assert int(CC.NO_LEFT_CHILD) == 0b01
        assert int(CC.NO_RIGHT_CHILD) == 0b10
        assert int(CC.TWO_CHILDREN) == 0b11

    def test_rank_is_popcount(self):
        assert [c.rank for c in (CC.NO_CHILDREN, CC.NO_LEFT_CHILD, CC.NO_RIGHT_CHILD, CC.TWO_CHILDREN)] == [0, 1, 1, 2]


class TestTerminalSymbol:
    def test_requires_exactly_one_arity_source(self):
        with pytest.raises(ValueError):
            TerminalSymbol("x")
        with pytest.raises(ValueError):
            TerminalSymbol("x", characteristic=CC.NO_CHILDREN, rank=0)

    def test_rejects_bad_names(self):
        for name in ("", "a\x03b", "a\x00"):
            with pytest.raises(ValueError):
                TerminalSymbol(name, rank=0)

    def test_value_equality_and_repr(self):
        a = TerminalSymbol("f", rank=2)
        b = TerminalSymbol("f", rank=2)
        assert a == b and hash(a) == hash(b)
        assert a != TerminalSymbol("f", rank=1)
        assert repr(a) == "f/2"
        assert repr(TerminalSymbol("book", characteristic=CC.TWO_CHILDREN)) == "book^11"
        assert TerminalSymbol("f", rank=2) != TerminalSymbol("f", characteristic=CC.TWO_CHILDREN)

    def test_is_its_tuple_and_survives_copy_and_pickle(self):
        for sym, plain in ((TerminalSymbol("f", rank=2), ("f", None, 2)),
                           (TerminalSymbol("b", CC.NO_LEFT_CHILD), ("b", CC.NO_LEFT_CHILD, 1))):
            assert sym == plain and hash(sym) == hash(plain)
            for twin in (copy.copy(sym), copy.deepcopy(sym), pickle.loads(pickle.dumps(sym))):
                assert twin == sym and type(twin) is TerminalSymbol


class TestParse:
    def test_books_counts(self):
        bt = parse_xml(BOOKS)
        assert bt.node_count == 21
        assert bt.edge_count == 20

    def test_books_terminal_order(self):
        bt = parse_xml(BOOKS)
        got = [(t.name, int(t.characteristic)) for t in bt.terminal_order]
        assert got == [
            ("books", 0b10),
            ("isbn", 0b00),
            ("title", 0b01),
            ("author", 0b01),
            ("book", 0b10),
            ("book", 0b11),
        ]

    def test_books_structure_matches_reference_encoding(self):
        bt = parse_xml(BOOKS)
        assert binary_shape(bt) == fcns_shape(element_shape(BOOKS))

    def test_random_structure_matches_reference_encoding(self):
        for seed in range(40):
            data = random_xml(seed, 60)
            assert binary_shape(parse_xml(data)) == fcns_shape(element_shape(data)), data

    def test_root_characteristic_has_child_no_sibling(self):
        bt = parse_xml(b"<a><b/></a>")
        assert bt.tree.labels[bt.root].characteristic == CC.NO_RIGHT_CHILD

    def test_attributes_text_and_comments_are_ignored(self):
        plain = parse_xml(b"<a><b/><c/></a>")
        noisy = parse_xml(b'<a x="1">text<b y="2"/>tail<!-- note --><c/>more</a>')
        assert same_structure(noisy, plain)
        assert [t.name for t in noisy.terminal_order] == [t.name for t in plain.terminal_order]

    def test_declaration_and_unicode_names(self):
        data = "<?xml version='1.0'?><café><x/></café>".encode("utf-8")
        bt = parse_xml(data)
        assert bt.tree.labels[bt.root].name == "café"
        assert serialize_xml(bt) == "<café><x/></café>".encode("utf-8")

    def test_single_element_documents_are_rejected(self):
        for data in (b"<a/>", b"<a></a>", b"<a>just text</a>"):
            with pytest.raises(UnsupportedInputError):
                parse_xml(data)

    def test_malformed_input_raises_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_xml(b"<a><b></a>")
        assert err.value.line == 1
        assert err.value.column >= 0
        with pytest.raises(ParseError):
            parse_xml(b"")
        with pytest.raises(ParseError):
            parse_xml(b"<a><b/>")


class TestSerialize:
    def test_books_roundtrip_is_byte_identical(self):
        assert serialize_xml(parse_xml(BOOKS)) == BOOKS

    def test_random_roundtrip_preserves_structure(self):
        for seed in range(30):
            data = random_xml(seed + 1000, 80)
            again = serialize_xml(parse_xml(data))
            assert again == data  # generator emits the compact form already

    def test_rejects_root_without_child_slot(self):
        bt = parse_xml(b"<a><b/></a>")
        bt.tree.labels[bt.root] = TerminalSymbol("a", characteristic=CC.NO_CHILDREN)
        with pytest.raises(UnsupportedInputError):
            serialize_xml(bt)

    def test_rejects_symbols_without_characteristic(self):
        rank_only = ranked_bt(("f/1", [("f/1", ["a/0"])]))
        with pytest.raises(UnsupportedInputError, match="no children characteristic"):
            serialize_xml(rank_only)
        # below an XML-origin root too
        bt = parse_xml(b"<a><b/></a>")
        bt.tree.labels[bt.tree.children[bt.root][0]] = TerminalSymbol("b", rank=0)
        with pytest.raises(UnsupportedInputError, match="no children characteristic"):
            serialize_xml(bt)


class TestArena:
    def _sample(self):
        t = Tree()
        f = TerminalSymbol("f", rank=2)
        a = TerminalSymbol("a", rank=0)
        leaves = [t.new_node(a) for _ in range(4)]
        left = t.new_node(f)
        t.set_children(left, leaves[:2])
        right = t.new_node(f)
        t.set_children(right, leaves[2:])
        root = t.new_node(f)
        t.set_children(root, [left, right])
        return t, root

    def test_counts_and_parents(self):
        t, root = self._sample()
        assert t.node_count(root) == 7
        assert t.edge_count(root) == 6
        for slot, child in enumerate(t.children[root]):
            assert t.parents[child] == root
            assert t.pindex[child] == slot + 1

    def test_postorder_matches_recursive_oracle(self):
        t, root = self._sample()
        assert list(t.iter_postorder(root)) == postorder_nodes(t, root)
        bt = parse_xml(BOOKS)
        assert list(bt.tree.iter_postorder(bt.root)) == postorder_nodes(bt.tree, bt.root)

    def test_preorder_rebuilds_an_equal_disjoint_tree(self):
        sample, sample_root = self._sample()
        rank3 = ranked_bt(("h/3", ["a/0", ("h/3", ["b/0", ("g/1", ["a/0"]), "b/0"]),
                                   ("g/1", [("h/3", ["a/0", "a/0", "b/0"])])]))
        sources = [BinaryTree(sample, sample_root, []), parse_xml(BOOKS), rank3]
        for source in sources:
            t, root = self._sample()
            n = len(t)
            labels = source.tree.preorder(source.root)
            new_root, = t.add_preorder(labels)
            copy = BinaryTree(t, new_root, [])
            assert all(v >= n for v in t.iter_postorder(new_root))
            assert len(t) == n + len(labels) == n + source.node_count
            assert t.parents[new_root] == -1
            assert t.preorder(new_root) == labels
            assert same_structure(copy, source)
            validate_tree(copy)
            # the nodes already there are untouched
            validate_tree(BinaryTree(t, root, []))
            assert same_structure(BinaryTree(t, root, []),
                                  BinaryTree(sample, sample_root, []))
        # a forest in one call: the roots come back in order
        t, _ = self._sample()
        roots = t.add_preorder([label for source in sources
                                for label in source.tree.preorder(source.root)])
        assert len(roots) == len(sources)
        for root, source in zip(roots, sources):
            assert t.parents[root] == -1
            assert same_structure(BinaryTree(t, root, []), source)
            validate_tree(BinaryTree(t, root, []))

    def test_same_structure_detects_differences(self):
        t, root = self._sample()
        u, uroot = self._sample()
        assert same_structure(BinaryTree(t, root, []), BinaryTree(u, uroot, []))
        u.labels[u.children[uroot][0]] = TerminalSymbol("g", rank=2)
        assert not same_structure(BinaryTree(t, root, []), BinaryTree(u, uroot, []))
