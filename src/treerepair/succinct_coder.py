"""Succinct binary coding of a linear tree grammar.

Layout of the compressed stream, all bit-level, MSB first:

1. fixed 32-bit field: bit width n_s of the super code length entries
2. fixed 32-bit field: size of the super alphabet (= n + 4, where n is the
   largest code length over the three base codings)
3. the super code length table, one raw n_s-bit entry per super symbol
4. for each base coding, in the order C1, C2, C3: a 32-bit entry count
   followed by the run-length encoded code length table, tokens written in
   the super code and run counts as raw bits
5. the value sequence itself, every integer written in its base coding and
   characteristic tags written as raw 2-bit fields
6. zero padding to a byte boundary

Base codings: C1 codes the start production's symbol ids, C2 codes every
other integer (counts, alphabet ids, non-start production bodies), C3 codes
the name bytes.

The value sequence is:

- |F| and |N|-1 (terminal count, non-start production count), in C2
- three blocks, one per characteristic 00, 01, 10: a raw 2-bit tag, the
  number of terminals with that characteristic (C2), then their ids in
  ascending order (C2); terminals missing from all blocks have rank 2
- the terminal names in ascending id order, UTF-8 bytes in C3, each name
  terminated by ETX (0x03); names must not contain ETX
- the non-start production bodies in ascending id order, then the start
  production body: preorder label id sequences, ranks implied by the ids

Every code word and fixed-width field is a string of '0' and '1'
characters; :func:`encode` joins them into one bit string and converts it
to bytes once.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat

from .bitio import BitReader, BitstreamEnd, bits_to_bytes
from .xml_tree import ETX, ChildrenCharacteristic
from .slcf_grammar import PARAMETER, SlcfGrammar

FIELD_BITS = 32

# the Huffman-coded channels, in the order of their length tables
CODED_CHANNELS = ('c1', 'c2', 'c3')

# characteristics listed explicitly in the terminal alphabet blocks;
# TWO_CHILDREN is implied by absence
LISTED_CHARACTERISTICS = (
    ChildrenCharacteristic.NO_CHILDREN,
    ChildrenCharacteristic.NO_LEFT_CHILD,
    ChildrenCharacteristic.NO_RIGHT_CHILD,
)

# tags are not Huffman-coded: each is its raw 2-bit characteristic
TAG_CODES = {char.value: format(char.value, "02b") for char in LISTED_CHARACTERISTICS}


class EncodeError(ValueError):
    pass


class DecodeError(ValueError):
    pass


def huffman_code_lengths(freqs) -> dict:
    """Code length per symbol for a Huffman code over ``freqs``.

    Deterministic: each merge takes the two least items by ``(freq, kind,
    ident)``, where a leaf (kind 0, ident its symbol) precedes a merged
    node (kind 1, ident its creation number) of equal frequency.

    Two-queue construction (van Leeuwen, ICALP 1976): the leaves, sorted
    once by ``(freq, symbol)``, form one queue; merged nodes join a second
    queue in creation order.  Each pop takes the front of the leaf queue
    unless the merged queue's front has a smaller frequency, and this pops
    in the ``(freq, kind, ident)`` order above, because the merged queue is
    sorted by ``(freq, creation number)``: merged frequencies never
    decrease.  Indeed, let a <= b be the two items a merge pops.  Every
    item left behind is at least b, and so is the new item a + b
    (frequencies are non-negative); the next merge pops two items of at
    least a and b, so its sum is at least a + b.  A code length is the
    depth of a leaf in the merge tree; as every merged node is created
    before its parent, one pass over the parent indices from the root down
    gives all depths (Moffat & Katajainen, WADS 1995).
    """
    if not freqs:
        return {}
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    leaves = sorted([(f, sym) for sym, f in freqs.items()])
    n = len(leaves)
    # nodes 0..n-1 are the leaves in queue order, n.. the merged nodes
    weight = [f for f, _ in leaves]
    parent = [0] * (2 * n - 1)
    leaf = 0      # front of the leaf queue
    merged = n    # front of the merged queue; it ends before node k
    for k in range(n, 2 * n - 1):
        total = 0
        for _ in (0, 1):  # pop the two least items
            if leaf < n and (merged == k or weight[leaf] <= weight[merged]):
                a = leaf
                leaf += 1
            else:
                a = merged
                merged += 1
            parent[a] = k
            total += weight[a]
        weight.append(total)
    depth = [0] * (2 * n - 1)
    for k in range(2 * n - 3, -1, -1):
        depth[k] = depth[parent[k]] + 1
    return {sym: depth[k] for k, (_, sym) in enumerate(leaves)}


def fixed_bits(value, width) -> str:
    """``value`` as a ``width``-bit string, MSB first (``width`` >= 1)."""
    if value >> width:
        raise EncodeError("field value %d too large" % value)
    return format(value, "0%db" % width)


def canonical_layout(lengths):
    """The canonical code of a length table (Moffat & Turpin, IEEE Trans.
    Comm. 1997) as ``(symbols, first, fits)``.

    ``symbols[l]`` lists the symbols of length l in ascending order; they
    take consecutive code words from ``first[l]`` on, the code after the
    previous length's last word shifted left.  ``fits`` holds when the code
    after the last word is at most ``2**max_len``: when the lengths satisfy
    Kraft's inequality.
    """
    max_len = max(lengths.values())
    symbols = [[] for _ in range(max_len + 1)]
    for sym, l in lengths.items():
        symbols[l].append(sym)
    first = [0] * (max_len + 1)
    code = 0
    for l in range(1, max_len + 1):
        symbols[l].sort()
        code <<= 1
        first[l] = code
        code += len(symbols[l])
    return symbols, first, code <= 1 << max_len


def canonical_codes(lengths) -> dict:
    """Canonical code word per symbol: ``{symbol: bit string}``, laid out
    by :func:`canonical_layout`."""
    if not lengths:
        return {}
    symbols, first, fits = canonical_layout(lengths)
    if not fits:
        raise EncodeError("code lengths overflow the code space")
    codes = {}
    for l in range(1, len(symbols)):
        width = "0%db" % l
        for code, sym in enumerate(symbols[l], first[l]):
            codes[sym] = format(code, width)
    return codes


# widest plausible code word: length tables are byte-sized in practice,
# anything past 64 bits cannot come from this encoder.  The decoder builds
# per-length tables, so an unchecked corrupt length would size allocations.
MAX_CODE_BITS = 64

# width of the decoder's lookup list: one slot per LOOKUP_BITS-bit prefix
LOOKUP_BITS = 14

# lookup slot of a prefix that no code word of the lookup width starts;
# its infinite length fails every remaining-bits check
_UNASSIGNED = (None, math.inf)

# run-table slot of a prefix that starts no run; its infinite count sends
# the read to the one-word lookup
_NO_RUN = (b"", 0, math.inf)

# bytes a block read adds to its window at once: a refill costs a few
# lookup steps, and 16 bytes against 8 took about 6% off the M-d12 decode
REFILL_BYTES = 16

# run-lookup width of a read without a run table: no window is that wide,
# as one holds fewer than LOOKUP_BITS + 8 * REFILL_BYTES bits
_NO_RUN_WIDTH = 1 << 20


class CanonicalDecoder:
    """Decoder for a canonical code given its length table.

    ``read`` decodes one code word by the canonical walk (Moffat &
    Turpin): it peeks ``avail = min(max_len, bits left)`` bits and tries
    lengths 1, 2, .. avail in turn, taking the first whose prefix lies in
    that length's run of code words, which starts at its first code.
    Canonical code words of one length follow those of all shorter
    lengths, so at most one length matches.  No match is an invalid code
    word, or a truncated one when fewer than ``max_len`` bits are left.

    ``read_block`` decodes a run of code words with no call per code
    word, by a table lookup: a list of ``2**w`` slots, ``w = min(max_len,
    LOOKUP_BITS)``, where a code word of length l <= w fills the
    ``2**(w-l)`` slots that start with it with ``(symbol, l)``, so by
    Kraft the fill costs at most ``2**w`` writes whatever the lengths.
    The fill makes one slot per symbol and copies it into its slots with
    list slices, so its Python work follows the symbols, not the slots.
    What the lookup cannot settle (code words longer than w, prefixes no
    code word starts with in an incomplete code, fewer than w bits left)
    it hands to ``read``.  Either way the reader ends where a bit-by-bit
    walk would, and raises the same errors.

    A run table (:meth:`run_table`) lets the same lookup loop take
    several code words per step, the k-bit tables of Choueka, Klein &
    Perl (*Efficient variants of Huffman codes in high level languages*,
    SIGIR 1985): a slot lists every whole code word its prefix starts
    with.  A step takes a slot's words only when the one-word lookup
    would read all of them and go on; every other step is a one-word
    step, so the result is the same.
    """

    def __init__(self, lengths):
        if not lengths:
            raise DecodeError("empty code")
        max_len = self.max_len = max(lengths.values())
        if max_len > MAX_CODE_BITS:
            raise DecodeError("implausible code length %d" % max_len)
        self._syms, self._first, fits = canonical_layout(lengths)
        if not fits:
            raise DecodeError("code lengths overflow the code space")
        width = self._width = min(max_len, LOOKUP_BITS)
        lookup = self._lookup = [_UNASSIGNED] * (1 << width)
        # the code words of one length fill one run of slots, each word
        # ``span`` slots: a strided slice per slot offset, or a slice per
        # word, whichever makes fewer
        for l in range(1, width + 1):
            slots = list(zip(self._syms[l], repeat(l)))
            span = 1 << (width - l)
            start = self._first[l] << (width - l)
            end = start + len(slots) * span
            if span <= len(slots):
                for j in range(start, start + span):
                    lookup[j:end:span] = slots
            else:
                for j, slot in zip(range(start, end, span), slots):
                    lookup[j:j + span] = [slot] * span

    def code_word(self, sym):
        """``(code, length)`` of ``sym``'s code word, or None if it has none."""
        return next(((self._first[l] + syms.index(sym), l)
                     for l, syms in enumerate(self._syms) if sym in syms), None)

    def read(self, reader: BitReader):
        avail = min(self.max_len, reader.remaining_bits)
        bits = reader.peek(avail)
        for l in range(1, avail + 1):
            d = (bits >> (avail - l)) - self._first[l]
            if 0 <= d < len(self._syms[l]):
                reader.skip(l)
                return self._syms[l][d]
        reader.skip(avail)
        if avail < self.max_len:
            raise BitstreamEnd()
        raise DecodeError("invalid code word")

    def read_block(self, reader: BitReader, out, deltas, balance, limit, runs=None):
        """Append symbols to ``out`` until ``balance`` reaches 0.

        Each symbol s adds ``deltas[s]`` to the balance.  The read also
        stops right after a symbol over ``limit`` or one whose delta is
        None, and returns that symbol without appending it; otherwise it
        returns None.  On an error, ``out`` holds the symbols before it.

        ``runs``, a :meth:`run_table` for the same ``deltas`` and
        ``limit``, appends a slot's symbols in one step while they leave
        the balance above 0; a slot without a run, one that would end
        the read and the last bits of the input take a one-word step.
        """
        lookup, width, read = self._lookup, self._width, self.read
        mask = (1 << width) - 1
        if runs is None:
            need, wide, wmask = width, _NO_RUN_WIDTH, 0
        else:
            wide = len(runs).bit_length() - 1
            need, wmask = max(width, wide), (1 << wide) - 1
        data, append = reader._data, out.append
        # a window on the reader's bytes: the low ``have`` bits of ``acc`` are
        # the input from bit (byte << 3) - have; refills drop a negative have
        pos = reader._pos
        byte, have, acc = pos >> 3, -(pos & 7), 0
        while balance > 0:
            if have < need:
                chunk = data[byte:byte + REFILL_BYTES]
                byte += len(chunk)
                have += len(chunk) << 3
                acc = (acc << 8 * len(chunk) | int.from_bytes(chunk, "big")) & ((1 << have) - 1)
            if have >= wide:
                run, length, count = runs[acc >> (have - wide) & wmask]
                if count < balance:
                    out += run
                    have -= length
                    balance -= count
                    continue
            # fewer bits than the lookup width are left only at the end
            sym, length = lookup[acc >> (have - width) & mask] if have >= width else _UNASSIGNED
            if length > have:
                reader._pos = (byte << 3) - have
                sym = read(reader)
                pos = reader._pos
                byte, have, acc = pos >> 3, -(pos & 7), 0
            else:
                have -= length
            if sym > limit or (d := deltas[sym]) is None:
                break
            append(sym)
            balance += d
        else:
            sym = None
        reader._pos = (byte << 3) - have
        return sym

    def run_table(self, deltas, limit, wide):
        """The ``2**wide`` slots of a several-words lookup for
        :meth:`read_block` with ``deltas`` and ``limit``.

        The slot of a ``wide``-bit prefix is ``(run, bits, count)``: the
        symbols of the whole code words the prefix starts with, as bytes,
        the bits they take and minus the sum of their deltas.  A run ends
        before a symbol over ``limit`` or over 0xFF, or one whose delta is
        None or positive: with deltas of at most 0, a run that leaves the
        balance above 0 never passes 0 on its way.  A prefix that starts
        no run gets ``_NO_RUN``.

        The slots of k bits that start with a code word of length l are
        that word before each slot of k - l bits, so the table is built
        from the tables of the widths below it that ``wide`` minus a sum
        of code lengths reaches, one tuple per slot.
        """
        words = []  # (code, length, symbol byte, minus delta) of the run symbols
        for l in range(1, min(self.max_len, wide) + 1):
            for code, s in enumerate(self._syms[l], self._first[l]):
                d = deltas[s] if s <= min(limit, 0xFF) else None
                if d is not None and d <= 0:
                    words.append((code, l, bytes((s,)), -d))
        tables = {}

        def table(k):
            if k not in tables:
                empty = _NO_RUN if k == wide else (b"", 0, 0)
                slots = []
                for code, l, byte, count in words:
                    if l > k:
                        break
                    start = code << (k - l)
                    slots += [empty] * (start - len(slots))
                    slots += [(byte + run, l + bits, count + c) for run, bits, c in table(k - l)]
                slots += [empty] * ((1 << k) - len(slots))
                tables[k] = slots
            return tables[k]

        return table(wide)


def lengths_table(lengths) -> list:
    """Dense code length list indexed by symbol, up to the largest symbol."""
    size = max(lengths) + 1
    return [lengths.get(s, 0) for s in range(size)]


def run_length_encode(values, n) -> list:
    """Run-length encode a code length table.

    ``n`` is the largest code length over all three base codings; values
    n+1, n+2 and n+3 act as run indicators.  Tokens are plain ints (super
    coded later) or ``('bits', width, value)`` for raw binary run lengths.

    - runs of up to three values are written verbatim
    - a nonzero run of k > 3 copies of m: m itself, then floor(k/7) tokens
      (n+1, bin2(3)); a leftover l = k mod 7 above 3 becomes (n+1, bin2(l-4)),
      otherwise l verbatim copies.  An (n+1, bin2(c)) token stands for c+4
      occurrences, the first one absorbing the explicit sample.
    - a zero run of k > 3: floor(k/139) tokens (n+3, bin7(127)); the leftover
      l = k mod 139 becomes (n+3, bin7(l-12)) if l > 11, (n+2, bin3(l-4)) if
      l > 3, else l verbatim zeros.  Zero run tokens carry no sample.
    """
    out = []
    i = 0
    total = len(values)
    while i < total:
        m = values[i]
        k = 1
        while i + k < total and values[i + k] == m:
            k += 1
        i += k
        if k <= 3:
            out.extend([m] * k)
        elif m != 0:
            out.append(m)
            full, l = divmod(k, 7)
            for _ in range(full):
                out.append(n + 1)
                out.append(('bits', 2, 3))
            if l > 3:
                out.append(n + 1)
                out.append(('bits', 2, l - 4))
            else:
                out.extend([m] * l)
        else:
            full, l = divmod(k, 139)
            for _ in range(full):
                out.append(n + 3)
                out.append(('bits', 7, 127))
            if l > 11:
                out.append(n + 3)
                out.append(('bits', 7, l - 12))
            elif l > 3:
                out.append(n + 2)
                out.append(('bits', 3, l - 4))
            else:
                out.extend([0] * l)
    return out


def assign_ids(grammar: SlcfGrammar):
    """Symbol ids used by the value sequence, as ``(nonterminals, id_of)``.

    Terminals get ids 1..|F| in ``grammar.terminal_order``, the formal
    parameter gets |F|+1, and ``nonterminals``, the non-start ones in
    hierarchical order, get |F|+2.. (the start production needs no id).
    ``id_of`` maps each symbol to its id.
    """
    terminals = grammar.terminal_order
    for sym in terminals:
        if sym.characteristic is None:
            raise EncodeError("terminal %r has no children characteristic" % sym.name)
        if ETX in sym.name.encode("utf-8"):
            raise EncodeError("terminal name contains the ETX byte")
    nonterminals = [grammar.productions[i] for i in grammar.hierarchical_order()
                    if i != grammar.start_id]
    id_of = {sym: i for i, sym in enumerate([*terminals, PARAMETER, *nonterminals],
                                            start=1)}
    return nonterminals, id_of


def _preorder_ids(grammar: SlcfGrammar, roots, id_of) -> list:
    """Symbol ids of the rhs trees at ``roots``, each in preorder."""
    preorder, id_of = grammar.arena.preorder, id_of.__getitem__
    out = []
    for root in roots:
        out += map(id_of, preorder(root))
    return out


def serialize_values(grammar: SlcfGrammar, ids) -> list:
    """Value sequence as ``(channel, values)`` segments in stream order;
    ``ids`` is what :func:`assign_ids` returns.

    Channels: 'c1' start production ids, 'c2' every other integer, 'c3'
    name bytes (one ``bytes`` segment), 'tag' raw 2-bit characteristic
    tags.
    """
    nonterminals, id_of = ids
    terminals = grammar.terminal_order
    segments = [('c2', [len(terminals), len(nonterminals)])]
    for char in LISTED_CHARACTERISTICS:
        listed = [i for i, sym in enumerate(terminals, start=1)
                  if sym.characteristic == char]
        segments.append(('tag', [char.value]))
        segments.append(('c2', [len(listed)] + listed))
    etx = bytes([ETX])
    segments.append(('c3', b"".join([sym.name.encode("utf-8") + etx
                                     for sym in terminals])))
    bodies = [nt.root for nt in nonterminals]
    segments.append(('c2', _preorder_ids(grammar, bodies, id_of)))
    segments.append(('c1', _preorder_ids(grammar, [grammar.start().root], id_of)))
    return segments


def encode(grammar: SlcfGrammar) -> bytes:
    segments = serialize_values(grammar, assign_ids(grammar))

    freqs = {ch: Counter() for ch in CODED_CHANNELS}
    for channel, values in segments:
        if channel in freqs:
            freqs[channel].update(values)
    lengths = {ch: huffman_code_lengths(freqs[ch]) for ch in CODED_CHANNELS}
    codes = {ch: canonical_codes(lengths[ch]) for ch in CODED_CHANNELS}
    codes['tag'] = TAG_CODES
    n = max(max(l.values()) for l in lengths.values())

    length_tables = [lengths_table(lengths[ch]) for ch in CODED_CHANNELS]
    streams = [run_length_encode(tbl, n) for tbl in length_tables]

    super_freqs = Counter(tok for stream in streams for tok in stream
                          if not isinstance(tok, tuple))
    super_lengths = huffman_code_lengths(super_freqs)
    super_codes = canonical_codes(super_lengths)
    n_s = max(super_lengths.values()).bit_length()

    bits = [fixed_bits(n_s, FIELD_BITS), fixed_bits(n + 4, FIELD_BITS)]
    bits += [fixed_bits(super_lengths.get(s, 0), n_s) for s in range(n + 4)]
    for tbl, stream in zip(length_tables, streams):
        bits.append(fixed_bits(len(tbl), FIELD_BITS))
        bits += [fixed_bits(tok[2], tok[1]) if isinstance(tok, tuple)
                 else super_codes[tok] for tok in stream]
    for channel, values in segments:
        bits += map(codes[channel].__getitem__, values)
    return bits_to_bytes("".join(bits))
