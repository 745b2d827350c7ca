"""Decoder for the succinct grammar format.

Inverse of :mod:`treerepair.succinct_coder`.  Every malformed input is
reported as :class:`DecodeError`; no input may crash or hang the decoder.

Each characteristic block, the names section and each production body is
one ``CanonicalDecoder.read_block`` whose balance ends the block: ids count
-1 against the block's count, ETX bytes -1 against the terminal count, body
ids rank - 1 against 1.  So are a length table's run-length tokens up to
each run indicator, every length counting -1 against the table's size.
The decoder calls ``CanonicalDecoder.read`` only for the five lone counts:
the terminal and production counts and the three characteristic block
counts.  A body's ids are its preorder, from which ``SlcfGrammar.new_tree``
makes its nodes in one pass, and which :func:`slcf_grammar.rhs_census`
counts, so that a decoded grammar comes with its census and the value-size
check walks no rhs again.  Faults get the messages and the order a read
per value would give them.

The names read takes several name bytes per lookup with a run table of
the C3 code (``CanonicalDecoder.run_table``) when the section is large
enough for its build to pay: its size is estimated from the terminal
count and the length of ETX's code word (:func:`_name_runs`).  The last
name, a byte over 0xFF and the last bits of the input are read a code
word at a time, so the read ends, and fails, where a read per byte
would.

The names section makes the terminal alphabet in a few C-level passes
when its last name is complete: one UTF-8 decode of the whole section,
one split, one test for an empty name and one ``xml_tree.LOW_CHAR``
search per name (the rule ``TerminalSymbol`` checks), a tuple per symbol
with no second check and its rank from a per-characteristic table, and
one ``dict.fromkeys`` whose size shows a duplicate.  Any fault, or a last
name cut by a failed read, hands the section to a loop that makes one
checked symbol per name and reports the first faulty name, so the
messages and their order are those of a read per name.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import repeat

from .bitio import BitReader, BitstreamEnd
from .xml_tree import ETX, LOW_CHAR, ChildrenCharacteristic, TerminalSymbol, Tree
from .slcf_grammar import PARAMETER, SlcfGrammar, rhs_census
from .succinct_coder import FIELD_BITS, MAX_CODE_BITS, CanonicalDecoder, DecodeError

# name-section deltas: each ETX ends one of the names the read counts down
_NAME_DELTAS = tuple(-(b == ETX) for b in range(256))
# widest run table of the names read: on the M-d12 names, a lookup of 10,
# 11 and 12 bits takes 2.27, 2.52 and 2.56 bytes, while the build doubles
# with each bit
NAME_RUN_BITS = 11
_RANK = {char: char.rank for char in ChildrenCharacteristic}
# a symbol from (name, characteristic, rank), for a name that keeps the rule
_new_symbol = partial(tuple.__new__, TerminalSymbol)


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
    deltas = defaultdict(lambda: -1)  # every value counts -1 against the table
    i = 0
    last = None
    first_unit = True
    while i < expected:
        values = []
        tok = super_decoder.read_block(reader, values, deltas, expected - i, n)
        for value in values:
            if value:
                lengths[i] = value
            i += 1
        if values:
            last = values[-1]
            first_unit = True
        if tok is None:
            break
        if tok == n + 1:
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
        else:
            i += reader.read(7) + 12
            last = None
    if i != expected:
        raise DecodeError("run-length data overruns its table")
    return lengths


def _parse_body(reader, decoder, grammar, symbols, deltas, parameter_id):
    """Parse one production body written as a preorder id sequence.

    ``symbols`` and ``deltas`` give each id's symbol and rank - 1 (None for
    id 0).  The body is complete exactly when every node has its children,
    when the balance, 1 plus the deltas, reaches 0; its symbols are then
    the preorder that ``SlcfGrammar.new_tree`` builds the nodes from.

    Returns (root node, parameter count, :func:`rhs_census` of the
    body).  A body that is a bare parameter (``A(y) -> y``) is rejected:
    the encoder never writes one, and a chain of references through it
    would derive a small value from an exponentially long walk.
    """
    ids = []
    bad = decoder.read_block(reader, ids, deltas, 1, len(deltas) - 1)
    if bad is not None:
        raise DecodeError("symbol id %d out of range" % bad)
    if ids[0] == parameter_id:
        raise DecodeError("production body is a bare parameter")
    labels = list(map(symbols.__getitem__, ids))
    root, = grammar.new_tree(labels)
    return root, ids.count(parameter_id), rhs_census(labels)


def _read_terminals(raw, char_of) -> dict:
    """The terminals of the complete names in ``raw``, as an ordered set.

    Name i (from 1) gets characteristic ``char_of[i]``, TWO_CHILDREN when
    unlisted.  ``raw`` is emptied once its text is decoded, so the bytes,
    the text and the split names are never held at once; a fault writes
    the text back to bytes for the loop.
    """
    text = None
    if raw and raw[-1] == ETX:
        try:
            text = str(raw, "utf-8")
        except UnicodeDecodeError:
            pass
    if text is not None:
        raw.clear()
        names = text.split(chr(ETX))
        names.pop()  # the empty string after the last ETX
        if "" not in names and not any(map(LOW_CHAR.search, names)):
            chars = list(map(char_of.get, range(1, len(names) + 1),
                             repeat(ChildrenCharacteristic.TWO_CHILDREN)))
            terminals = dict.fromkeys(
                map(_new_symbol, zip(names, chars, map(_RANK.__getitem__, chars))))
            if len(terminals) == len(names):
                return terminals
        raw = text.encode("utf-8")  # for the loop to find the fault in
    terminals = {}
    begin, end = 0, raw.find(ETX)
    view = memoryview(raw)  # a name's str is its one copy
    while end >= 0:
        char = char_of.get(len(terminals) + 1, ChildrenCharacteristic.TWO_CHILDREN)
        try:
            sym = TerminalSymbol(str(view[begin:end], "utf-8"), char)
        except (UnicodeDecodeError, ValueError) as exc:
            raise DecodeError("bad terminal name: %s" % exc) from None
        if sym in terminals:
            raise DecodeError("duplicate terminal %r" % (sym,))
        terminals[sym] = None
        begin, end = end + 1, raw.find(ETX, end + 1)
    return terminals


def _name_runs(c3, etx_bits, n_terminals):
    """The run table of the names read, or None when it would not pay.

    A Huffman code gives a byte that makes up about 2**-l of the section
    a word of length l, so with ``etx_bits`` the length of ETX, which
    ends each of the ``n_terminals`` names, the section holds about
    ``n_terminals << etx_bits`` bytes.  A slot costs about as much to
    build as the run lookup saves on two name bytes, so the table has at
    most half as many slots as that, and at most ``2**NAME_RUN_BITS``.
    It is built only when it is wider than the longest code word, so
    that a slot can hold more than one.
    """
    if etx_bits is None:
        return None
    wide = min(NAME_RUN_BITS, (n_terminals << etx_bits >> 1).bit_length() - 1)
    return c3.run_table(_NAME_DELTAS, 0xFF, wide) if wide > c3.max_len else None


def decode(data: bytes) -> SlcfGrammar:
    return decode_with_census(data)[0]


def decode_with_census(data: bytes):
    """The grammar of a stream and its :meth:`SlcfGrammar.census`,
    counted from the bodies as they are read."""
    reader = BitReader(data)
    try:
        decoded = _decode(reader)
    except BitstreamEnd:
        raise DecodeError("truncated input") from None
    if reader.remaining_bits >= 8:
        raise DecodeError("trailing data after the grammar")
    if reader.remaining_bits and reader.read(reader.remaining_bits) != 0:
        raise DecodeError("nonzero padding bits")
    return decoded


def _decode(reader):
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
        lengths = run_length_decode(reader, super_decoder, n, count)
        decoders.append(CanonicalDecoder(lengths))
    c1, c2, c3 = decoders
    etx_bits = lengths.get(ETX)  # the last table read is C3's

    n_terminals = c2.read(reader)
    if n_terminals < 1:
        raise DecodeError("no terminal symbols")
    n_other = c2.read(reader)

    # A block read's values are checked in a ``finally``, so when the read
    # fails, a fault among the values read before it is what is reported:
    # the first fault in the stream.
    char_of = {}
    seen_tags = set()
    # every id counts -1 and id 0 stops the read; a dict, as a list sized
    # by the terminal count, unchecked against the input, could be huge
    id_deltas = defaultdict(lambda: -1, {0: None})
    for _ in range(3):
        tag = reader.read(2)
        if tag not in (0, 1, 2) or tag in seen_tags:
            raise DecodeError("bad characteristic tag %d" % tag)
        seen_tags.add(tag)
        char = ChildrenCharacteristic(tag)
        # more ids than unlisted terminals repeat one among the first unlisted + 1
        count = min(c2.read(reader), n_terminals - len(char_of) + 1)
        ids = []
        try:
            bad = c2.read_block(reader, ids, id_deltas, count, n_terminals)
        finally:
            for sid in ids:
                if sid in char_of:
                    raise DecodeError("bad terminal id %d in characteristic block" % sid)
                char_of[sid] = char
        if bad is not None:
            raise DecodeError("bad terminal id %d in characteristic block" % bad)

    raw = bytearray()
    try:
        bad = c3.read_block(reader, raw, _NAME_DELTAS, n_terminals, 0xFF,
                            _name_runs(c3, etx_bits, n_terminals))
    finally:
        terminals = _read_terminals(raw, char_of)
    if bad is not None:
        raise DecodeError("name byte %d out of range" % bad)

    grammar = SlcfGrammar(Tree(), terminals)
    parameter_id = n_terminals + 1
    symbols = [None, *terminals, PARAMETER]
    deltas = [None, *[sym.rank - 1 for sym in terminals], -1]
    census = {}
    for _ in range(n_other):
        root, y_count, counts = _parse_body(reader, c2, grammar, symbols, deltas, parameter_id)
        nt = grammar.new_nonterminal(y_count, is_dag=False)
        grammar.add_production(nt, root)
        census[nt.id] = counts
        symbols.append(nt)
        deltas.append(y_count - 1)
    root, y_count, counts = _parse_body(reader, c1, grammar, symbols, deltas, parameter_id)
    if y_count:
        raise DecodeError("parameters in the start production")
    start = grammar.new_nonterminal(0, is_dag=False)
    grammar.add_production(start, root, start=True)
    census[start.id] = counts
    return grammar, census
