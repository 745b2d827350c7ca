"""Streams of grammars built directly, not by the compressor.

Compressor output only reaches the grammar shapes that replacement and
pruning make.  ``slcf_grammars`` draws SLCF grammars of any shape the
format holds: nonterminals of rank 0 to 3, parameters, rank-0
productions, bodies without terminals, alias bodies ``A(y..) -> B(y..)``
and terminals of all four characteristics.  The start body's root has
characteristic 10, so every value is an XML document.
"""

import sys

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from treerepair import (
    PARAMETER,
    ChildrenCharacteristic as CC,
    DecodeError,
    SlcfGrammar,
    TerminalSymbol,
    Tree,
    decompress_bytes,
    decompress_tree,
    encode,
    serialize_xml,
)
from treerepair.slcf_grammar import _derive
from treerepair.succinct_decoder import decode_with_census

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
# bounds for size-aware grammars: more productions, and a body refers only
# to productions whose values still fit in SIZED_VALUE nodes of its own
SIZED_PRODUCTIONS = 10
SIZED_VALUE = 400

terminal_sets = st.lists(
    st.builds(TerminalSymbol, st.sampled_from("abc"), st.sampled_from(list(CC))),
    unique=True, max_size=5)


@st.composite
def slcf_grammars(draw, sized=False):
    """A grammar over BASE and a drawn set of further terminals.

    Each non-start production is an alias of an earlier one, or a tree
    over terminals (unless drawn terminal-free), earlier nonterminals and
    at most MAX_RANK parameter leaves, never a bare parameter; its rank is
    the number of parameter leaves it got.

    Such values have a median of about five nodes.  With ``sized``, a
    grammar has 4 to SIZED_PRODUCTIONS productions, a body's root has rank
    2 where it can, and below it a body mostly refers to the largest
    production whose value fits in what is left of SIZED_VALUE nodes for
    its own.  The values then have a median of about twenty nodes and
    reach SIZED_VALUE, under CAP, and in about half of the grammars the
    values of all productions sum to more than twice the start's, so
    ``_derive`` evaluates some productions once and walks others.
    """
    terminals = BASE + draw(terminal_sets)
    g = SlcfGrammar(Tree(), terminals)
    nts = []
    size = {}  # nonterminal -> value nodes
    room = [0]  # value nodes left for the body being drawn

    def subtree(depth, free, params):
        if depth and params[0] and draw(st.integers(0, 3)):
            params[0] -= 1
            return g.new_node(PARAMETER)
        refs = [nt for nt in nts if size[nt] <= room[0]] if sized else nts
        pool = refs if free else terminals + refs
        # a body that still wants parameters gets a root with room for them
        choices = [s for s in pool if (depth or not params[0] or s.rank)
                   and (depth < MAX_DEPTH or not s.rank)]
        if sized:  # an inner root, then mostly the largest reference that fits
            if not depth:
                choices = [s for s in choices if s.rank > 1] or choices
            fits = [s for s in choices if s in refs]
            if fits:
                choices = [max(fits, key=size.get)] * len(choices) + choices
        sym = draw(st.sampled_from(choices or [LEAF]))
        room[0] -= size.get(sym, 1)
        v = g.new_node(sym)
        if sym.rank:
            g.arena.set_children(
                v, [subtree(depth + 1, free, params) for _ in range(sym.rank)])
        return v

    productions = SIZED_PRODUCTIONS if sized else MAX_PRODUCTIONS
    for _ in range(draw(st.integers(4 if sized else 0, productions))):
        if nts and draw(st.booleans()):
            target = draw(st.sampled_from(nts))
            root = g.new_node(target)
            g.arena.set_children(
                root, [g.new_node(PARAMETER) for _ in range(target.rank)])
            rank = target.rank
            value = size[target]
        else:
            params = [draw(st.integers(0, MAX_RANK))]
            budget = params[0]
            room[0] = SIZED_VALUE
            root = subtree(0, draw(st.booleans()), params)
            rank = budget - params[0]
            value = SIZED_VALUE - room[0]
        nt = g.new_nonterminal(rank, is_dag=False)
        g.add_production(nt, root)
        nts.append(nt)
        size[nt] = value
    root = g.new_node(ROOT)
    # below its root, the start body refers to productions where there are any
    room[0] = SIZED_VALUE - 1
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
# both kinds of drawn grammar
GRAMMARS = st.one_of(slcf_grammars(), slcf_grammars(sized=True))
# line events of ``_derive`` allowed per value node and rhs node; the drawn
# grammars take at most about 12 (the most for a few-node grammar, whose
# setup lines weigh most), the bench streams 3 to 5
STEPS_PER_NODE = 16


def derive_steps(g):
    """``(line events of _derive, value)`` while ``g.unfold_value(CAP)``
    runs: a tracer counts the lines of ``_derive``'s frames alone."""
    steps = 0

    def count(frame, what, arg):
        nonlocal steps
        steps += what == "line"
        return count

    old = sys.gettrace()
    sys.settrace(lambda frame, what, arg: count if frame.f_code is _derive.__code__ else None)
    try:
        value = g.unfold_value(CAP)
    finally:
        sys.settrace(old)
    return steps, value


def evaluated_and_walked(g):
    """Counts of the productions reachable from the start, other than it
    and aliases, that ``_derive`` evaluates once and that it walks."""
    plan, entry = g._check_value_size(CAP)
    census = g.census()
    seen, todo = set(), list(census[g.start_id][1])
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo += census[i][1]
    bodies = [g.productions[i].root for i in seen if entry[i] == g.productions[i].root]
    evaluated = len(set(bodies) & set(plan))
    return evaluated, len(bodies) - evaluated


class TestDirectGrammars:
    @given(g=slcf_grammars())
    @RELAXED
    def test_stream_survives_a_decode(self, g):
        blob = encode(g)
        decoded, census = decode_with_census(blob)
        assert encode(decoded) == blob
        assert canonical_text(decoded) == canonical_text(g)
        # the decoder counts each body as it reads it
        assert census == decoded.census()

    @given(g=GRAMMARS)
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

    @given(g=GRAMMARS)
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

    @given(g=slcf_grammars(sized=True))
    @settings(RELAXED, max_examples=1000)
    def test_the_derivation_walk_is_linear(self, g):
        """``_derive``'s steps are bounded by the value's nodes plus the
        rhs nodes, whichever productions it evaluates and walks."""
        evaluated, walked = evaluated_and_walked(g)
        event("evaluated and walked productions" if evaluated and walked
              else "walked productions only" if walked
              else "evaluated productions only" if evaluated
              else "no production below the start")
        steps, value = derive_steps(g)
        rhs = sum(g.arena.node_count(nt.root) for nt in g.productions.values())
        assert steps <= STEPS_PER_NODE * (value.node_count + rhs)
