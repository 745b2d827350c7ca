"""Synthetic tree families: sizes, labels, and compressibility."""

import pytest

from treerepair import ChildrenCharacteristic, SlcfGrammar, compress_tree, decompress_tree
from treerepair.fixtures import gen_M, gen_perfect_binary, gen_U

from oracles import binary_shape, postorder_nodes, validate_grammar, validate_tree


class TestPerfect:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_edge_count(self, depth):
        assert gen_perfect_binary(depth).edge_count == 2 ** (depth + 1) - 2

    def test_labels(self):
        bt = gen_perfect_binary(3)
        names = sorted({lbl.name for lbl in (bt.tree.labels[v] for v in postorder_nodes(bt.tree, bt.root))})
        assert names == ["a", "f"]
        assert [(s.name, s.characteristic) for s in bt.terminal_order] == [
            ("f", ChildrenCharacteristic.TWO_CHILDREN),
            ("a", ChildrenCharacteristic.NO_CHILDREN),
        ]

    def test_shape_is_symmetric(self):
        shape = binary_shape(gen_perfect_binary(4))
        assert shape[1] == shape[2]

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            gen_perfect_binary(0)


class TestM:
    @pytest.mark.parametrize("i,edges", [(0, 2), (1, 6), (2, 30), (3, 510)])
    def test_edge_count(self, i, edges):
        assert gen_M(i).edge_count == edges

    def test_leaves_are_pairwise_distinct(self):
        bt = gen_M(2)
        leaves = [bt.tree.labels[v].name
                  for v in postorder_nodes(bt.tree, bt.root)
                  if bt.tree.labels[v].rank == 0]
        assert len(leaves) == 16
        assert len(set(leaves)) == 16

    @pytest.mark.parametrize("i", [-1, 5])
    def test_rejects_out_of_range(self, i):
        with pytest.raises(ValueError):
            gen_M(i)


class TestU:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_edge_count(self, n):
        assert gen_U(n).edge_count == 2 ** (n + 1)

    def test_spine_leaves_cycle(self):
        bt = gen_U(3)
        t = bt.tree
        seen = []
        v = bt.root
        while t.labels[v].rank == 2:
            left, v = t.children[v]
            seen.append(t.labels[left].name)
        seen.append(t.labels[v].name)
        assert "".join(seen) == ("abcde" * 2)[: 2 ** 3 + 1]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gen_U(2)


class TestRoundtrips:
    @pytest.mark.parametrize("make,arg", [
        (gen_perfect_binary, 1),
        (gen_perfect_binary, 5),
        (gen_M, 0),
        (gen_M, 2),
        (gen_U, 3),
        (gen_U, 5),
    ])
    def test_compress_decompress(self, make, arg):
        want = binary_shape(make(arg))
        blob = compress_tree(make(arg))
        assert binary_shape(decompress_tree(blob)) == want

    def test_generated_trees_make_valid_grammars(self):
        for bt in (gen_perfect_binary(4), gen_M(1), gen_U(4)):
            validate_tree(bt)
            validate_grammar(SlcfGrammar.from_tree(bt))
