"""Streams of grammars built directly, not by the compressor.

Compressor output only reaches the grammar shapes that replacement and
pruning make.  ``slcf_grammars`` draws SLCF grammars of any shape the
format holds: nonterminals of rank 0 to 3, parameters, rank-0
productions, bodies without terminals, alias bodies ``A(y..) -> B(y..)``
and terminals of all four characteristics.  The start body's root has
characteristic 10, so every value is an XML document.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treerepair import (
    PARAMETER,
    ChildrenCharacteristic as CC,
    DecodeError,
    SlcfGrammar,
    TerminalSymbol,
    Tree,
    decode,
    decompress_bytes,
    decompress_tree,
    encode,
    serialize_xml,
)

from oracles import (canonical_text, decompress_bytes_by_unfolding, same_structure,
                     value_by_substitution)

ROOT = TerminalSymbol("r", CC.NO_RIGHT_CHILD)
LEAF = TerminalSymbol("l", CC.NO_CHILDREN)
# one terminal of each characteristic, so every grammar can use all four
BASE = [ROOT, LEAF, TerminalSymbol("s", CC.NO_LEFT_CHILD),
        TerminalSymbol("t", CC.TWO_CHILDREN)]

# bounds on the drawn grammars; most values stay under CAP nodes, and the
# few above it compare the value-size check's errors
MAX_PRODUCTIONS = 5
MAX_DEPTH = 4
MAX_RANK = 3
CAP = 500

terminal_sets = st.lists(
    st.builds(TerminalSymbol, st.sampled_from("abc"), st.sampled_from(list(CC))),
    unique=True, max_size=5)


@st.composite
def slcf_grammars(draw):
    """A grammar over BASE and a drawn set of further terminals.

    Each non-start production is an alias of an earlier one, or a tree
    over terminals (unless drawn terminal-free), earlier nonterminals and
    at most MAX_RANK parameter leaves, never a bare parameter; its rank is
    the number of parameter leaves it got.
    """
    terminals = BASE + draw(terminal_sets)
    g = SlcfGrammar(Tree(), terminals)
    nts = []

    def subtree(depth, free, params):
        if depth and params[0] and draw(st.integers(0, 3)):
            params[0] -= 1
            return g.new_node(PARAMETER)
        pool = nts if free else terminals + nts
        # a body that still wants parameters gets a root with room for them
        choices = [s for s in pool if (depth or not params[0] or s.rank)
                   and (depth < MAX_DEPTH or not s.rank)]
        sym = draw(st.sampled_from(choices or [LEAF]))
        v = g.new_node(sym)
        if sym.rank:
            g.arena.set_children(
                v, [subtree(depth + 1, free, params) for _ in range(sym.rank)])
        return v

    for _ in range(draw(st.integers(0, MAX_PRODUCTIONS))):
        if nts and draw(st.booleans()):
            target = draw(st.sampled_from(nts))
            root = g.new_node(target)
            g.arena.set_children(
                root, [g.new_node(PARAMETER) for _ in range(target.rank)])
            rank = target.rank
        else:
            params = [draw(st.integers(0, MAX_RANK))]
            budget = params[0]
            root = subtree(0, draw(st.booleans()), params)
            rank = budget - params[0]
        nt = g.new_nonterminal(rank, is_dag=False)
        g.add_production(nt, root)
        nts.append(nt)
    root = g.new_node(ROOT)
    # below its root, the start body refers to productions where there are any
    g.arena.set_children(root, [subtree(1, bool(nts), [0])])
    g.add_production(g.new_nonterminal(0, is_dag=False), root, start=True)
    return g


def outcome(decompress, blob):
    """The XML bytes under CAP, or the message of the DecodeError raised
    instead."""
    try:
        return decompress(blob, CAP)
    except DecodeError as exc:
        return str(exc)


RELAXED = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDirectGrammars:
    @given(g=slcf_grammars())
    @RELAXED
    def test_stream_survives_a_decode(self, g):
        blob = encode(g)
        decoded = decode(blob)
        assert encode(decoded) == blob
        assert canonical_text(decoded) == canonical_text(g)

    @given(g=slcf_grammars())
    @RELAXED
    def test_writer_matches_the_unfolding_path(self, g):
        blob = encode(g)
        written = outcome(decompress_bytes, blob)
        assert written == outcome(decompress_bytes_by_unfolding, blob)
        try:
            tree = decompress_tree(blob, CAP)
        except DecodeError:
            return  # the value has more than CAP nodes
        # both consumers of the derivation walk meet the recursive oracle
        want = value_by_substitution(g)
        assert same_structure(tree, want)
        if isinstance(written, bytes):
            assert written == serialize_xml(want)

    @given(g=slcf_grammars())
    @RELAXED
    def test_the_value_size_check_is_exact(self, g):
        """A cap of exactly the value's node count passes and one less
        fails: the check counts the value, it does not merely bound it."""
        blob = encode(g)
        try:
            decompress_tree(blob, CAP)
        except DecodeError:
            return  # the value has more than CAP nodes
        n = value_by_substitution(g).node_count
        # every drawn value is XML-rooted: the start body's root is ROOT
        for decompress in (decompress_tree, decompress_bytes):
            decompress(blob, n)
            with pytest.raises(DecodeError, match="exceeds %d nodes" % (n - 1)):
                decompress(blob, n - 1)
