"""Decoder for the succinct grammar format.

Inverse of :mod:`treerepair.succinct_coder`.  Every malformed input is
reported as :class:`DecodeError`; no input may crash or hang the decoder.
"""

from __future__ import annotations

from .bitio import BitReader, BitstreamEnd
from .xml_tree import ETX, ChildrenCharacteristic, TerminalSymbol, Tree
from .slcf_grammar import PARAMETER, SlcfGrammar
from .succinct_coder import FIELD_BITS, MAX_CODE_BITS, CanonicalDecoder, DecodeError


def run_length_decode(reader, super_decoder, n, expected) -> dict:
    """Decode one run-length encoded length table of ``expected`` entries.

    Values above ``n`` are run indicators: an n+1 token plus a 2-bit count c
    stands for c+4 copies of the preceding value, the first token of a run
    absorbing the explicit sample written before it; n+2 plus 3 bits c is a
    run of c+4 zeros; n+3 plus 7 bits c is a run of c+12 zeros.

    Returns the table's nonzero entries as ``{symbol: length}``.  Zeros
    only advance the position, so memory follows the tokens read, not the
    table size the stream claims.
    """
    lengths = {}
    i = 0
    last = None
    first_unit = True
    while i < expected:
        tok = super_decoder.read(reader)
        if tok <= n:
            if tok:
                lengths[i] = tok
            i += 1
            last = tok
            first_unit = True
        elif tok == n + 1:
            if last is None:
                raise DecodeError("run continuation without a sample value")
            k = reader.read(2) + (3 if first_unit else 4)
            if last:
                for j in range(i, i + k):
                    lengths[j] = last
            i += k
            first_unit = False
        elif tok == n + 2:
            i += reader.read(3) + 4
            last = None
            first_unit = True
        else:
            i += reader.read(7) + 12
            last = None
            first_unit = True
    if i != expected:
        raise DecodeError("run-length data overruns its table")
    return lengths


class _PendingNode:
    __slots__ = ("node", "rank", "kids")

    def __init__(self, node, rank):
        self.node = node
        self.rank = rank
        self.kids = []


def _parse_body(reader, decoder, grammar, symbols, max_id):
    """Parse one production body written as a preorder id sequence.

    Returns (root node, parameter count).  Ranks are implied by the symbols,
    so the body is complete exactly when every node has its children.  A
    body that is a bare parameter (``A(y) -> y``) is rejected: the encoder
    never writes one, and a chain of references through it would derive
    a small value from an exponentially long walk.
    """
    t = grammar.arena
    y_count = 0
    root = None
    pending = []
    while True:
        sid = decoder.read(reader)
        if not 1 <= sid <= max_id:
            raise DecodeError("symbol id %d out of range" % sid)
        sym = symbols[sid]
        if sym is PARAMETER:
            if root is None:
                raise DecodeError("production body is a bare parameter")
            y_count += 1
            rank = 0
        else:
            rank = sym.rank
        v = grammar.new_node(sym)
        if root is None:
            root = v
        else:
            pending[-1].kids.append(v)
        if rank:
            pending.append(_PendingNode(v, rank))
        while pending and len(pending[-1].kids) == pending[-1].rank:
            done = pending.pop()
            t.set_children(done.node, done.kids)
        if not pending:
            return root, y_count


def decode(data: bytes) -> SlcfGrammar:
    reader = BitReader(data)
    try:
        grammar = _decode(reader)
    except BitstreamEnd:
        raise DecodeError("truncated input") from None
    if reader.remaining_bits >= 8:
        raise DecodeError("trailing data after the grammar")
    if reader.remaining_bits and reader.read(reader.remaining_bits) != 0:
        raise DecodeError("nonzero padding bits")
    return grammar


def _decode(reader) -> SlcfGrammar:
    n_s = reader.read(FIELD_BITS)
    if not 1 <= n_s <= MAX_CODE_BITS:
        raise DecodeError("implausible super code width %d" % n_s)
    super_count = reader.read(FIELD_BITS)
    if super_count < 5:
        raise DecodeError("implausible super alphabet size %d" % super_count)
    n = super_count - 4
    super_lengths = {}
    for s in range(super_count):
        length = reader.read(n_s)
        if length:
            super_lengths[s] = length
    super_decoder = CanonicalDecoder(super_lengths)

    decoders = []
    for _ in range(3):
        count = reader.read(FIELD_BITS)
        if count < 1:
            raise DecodeError("empty code length table")
        # every run token yields at most 139 entries from >= 1 input bit
        if count > 139 * max(reader.remaining_bits, 1):
            raise DecodeError("length table larger than the input allows")
        decoders.append(CanonicalDecoder(
            run_length_decode(reader, super_decoder, n, count)))
    c1, c2, c3 = decoders

    def read_c2():
        return c2.read(reader)

    n_terminals = read_c2()
    if n_terminals < 1:
        raise DecodeError("no terminal symbols")
    n_other = read_c2()

    char_of = {}
    seen_tags = set()
    for _ in range(3):
        tag = reader.read(2)
        if tag not in (0, 1, 2) or tag in seen_tags:
            raise DecodeError("bad characteristic tag %d" % tag)
        seen_tags.add(tag)
        count = read_c2()
        for _ in range(count):
            sid = read_c2()
            if not 1 <= sid <= n_terminals or sid in char_of:
                raise DecodeError("bad terminal id %d in characteristic block" % sid)
            char_of[sid] = ChildrenCharacteristic(tag)

    terminals = []
    seen_terms = set()
    for sid in range(1, n_terminals + 1):
        raw = bytearray()
        while True:
            b = c3.read(reader)
            if b == ETX:
                break
            if b > 0xFF:
                raise DecodeError("name byte %d out of range" % b)
            raw.append(b)
        char = char_of.get(sid, ChildrenCharacteristic.TWO_CHILDREN)
        try:
            sym = TerminalSymbol(raw.decode("utf-8"), char)
        except (UnicodeDecodeError, ValueError) as exc:
            raise DecodeError("bad terminal name: %s" % exc) from None
        if sym in seen_terms:
            raise DecodeError("duplicate terminal %r" % sym)
        seen_terms.add(sym)
        terminals.append(sym)

    grammar = SlcfGrammar(Tree(), terminals)
    symbols = {i: sym for i, sym in enumerate(terminals, start=1)}
    symbols[n_terminals + 1] = PARAMETER
    max_id = n_terminals + 1
    for k in range(n_other):
        root, y_count = _parse_body(reader, c2, grammar, symbols, max_id)
        nt = grammar.new_nonterminal(y_count, is_dag=False)
        grammar.add_production(nt, root)
        max_id += 1
        symbols[max_id] = nt
    root, y_count = _parse_body(reader, c1, grammar, symbols, max_id)
    if y_count:
        raise DecodeError("parameters in the start production")
    start = grammar.new_nonterminal(0, is_dag=False)
    grammar.add_production(start, root, start=True)
    return grammar
