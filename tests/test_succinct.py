"""Binary coding: Huffman tables, run-length coding, the output format."""

import cProfile
import inspect
import math
import pstats
import random
import sys
import time
import tracemalloc
from collections import Counter
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from treerepair import (compress_tree, compress_xml_bytes, decode, decompress_bytes, encode,
                        parse_xml, succinct_coder, succinct_decoder, xml_tree)
from treerepair.fixtures import gen_M, gen_U
from treerepair.pipeline import build_grammar
from treerepair.succinct_coder import (
    DecodeError,
    EncodeError,
    LOOKUP_BITS,
    CanonicalDecoder,
    canonical_codes,
    fixed_bits,
    huffman_code_lengths,
    lengths_table,
    run_length_encode,
    assign_ids,
    serialize_values,
)
from treerepair.bitio import BitReader, BitstreamEnd, bits_to_bytes
from treerepair.slcf_grammar import PARAMETER
from treerepair.succinct_decoder import _NAME_DELTAS, _read_terminals
from treerepair.xml_tree import ETX, ChildrenCharacteristic

from conftest import BOOKS, BOOKS_VALUES, flat_values, make_grammar, read_header
from oracles import (bitwise_reader, canonical_text, huffman_cost, kraft_sum, prefix_free,
                     read_block_by_reads, rle_expand, same_structure, validate_grammar)


def books_grammar():
    return build_grammar(parse_xml(BOOKS), max_rank=99, optimize="edges", use_dag=False)


BOOKS_BLOB = encode(books_grammar())


class TestHuffmanLengths:
    def test_books_channel_tables(self):
        got = {}
        for channel, freqs in (
            ("c1", {1: 1, 5: 1, 8: 1, 9: 4}),
            ("c2", {1: 2, 2: 5, 3: 2, 4: 2, 5: 1, 6: 2, 7: 1, 8: 1}),
            ("c3", {3: 6, 97: 1, 98: 4, 101: 1, 104: 1, 105: 2, 107: 3, 108: 1,
                    110: 1, 111: 7, 114: 1, 115: 2, 116: 3, 117: 1}),
        ):
            lengths = huffman_code_lengths(freqs)
            got[channel] = lengths
            cost = sum(freqs[s] * l for s, l in lengths.items())
            assert cost == huffman_cost(freqs), channel
            assert kraft_sum(lengths) == 1, channel
        assert got["c1"] == {1: 3, 5: 3, 8: 2, 9: 1}
        assert got["c2"] == {1: 3, 2: 2, 3: 3, 4: 3, 5: 4, 6: 3, 7: 4, 8: 3}
        assert got["c3"] == {3: 3, 97: 5, 98: 3, 101: 5, 104: 5, 105: 4, 107: 4,
                             108: 5, 110: 5, 111: 2, 114: 5, 115: 4, 116: 4, 117: 4}

    def test_single_symbol_gets_a_one_bit_code(self):
        assert huffman_code_lengths({7: 5}) == {7: 1}
        assert canonical_codes({7: 1}) == {7: "0"}

    def test_optimal_cost_on_assorted_distributions(self):
        import random

        rng = random.Random(5)
        for _ in range(60):
            freqs = {s: rng.randint(1, 50) for s in rng.sample(range(200), rng.randint(1, 24))}
            lengths = huffman_code_lengths(freqs)
            assert sum(freqs[s] * l for s, l in lengths.items()) == huffman_cost(freqs)


class TestCanonicalCodes:
    def test_length_sorted_consecutive_assignment(self):
        codes = canonical_codes({97: 2, 98: 1, 99: 3, 101: 3})
        assert codes == {97: "10", 98: "0", 99: "110", 101: "111"}
        assert lengths_table({97: 2, 98: 1, 99: 3, 101: 3})[97:102] == [2, 1, 3, 0, 3]

    def test_oversubscribed_lengths_are_rejected(self):
        with pytest.raises(EncodeError):
            canonical_codes({1: 1, 2: 1, 3: 1})

    def test_fixed_width_field_rejects_a_wider_value(self):
        assert fixed_bits(5, 32) == "0" * 29 + "101"
        with pytest.raises(EncodeError, match="field value 4294967296 too large"):
            fixed_bits(1 << 32, 32)

    def test_prefix_freedom_and_decoder_roundtrip(self):
        import random

        rng = random.Random(11)
        for _ in range(40):
            freqs = {s: rng.randint(1, 30) for s in rng.sample(range(140), rng.randint(1, 20))}
            lengths = huffman_code_lengths(freqs)
            codes = canonical_codes(lengths)
            assert prefix_free(list(codes.values()))
            symbols = list(codes) * 3
            rng.shuffle(symbols)
            r = BitReader(bits_to_bytes("".join(codes[s] for s in symbols)))
            dec = CanonicalDecoder(lengths)
            assert [dec.read(r) for _ in symbols] == symbols


@st.composite
def prefix_codes(draw):
    """Length table of a prefix code with lengths 1-20.

    The leaves of a random binary tree give a complete code; splitting the
    newest leaf again and again grows the long codes.  Dropping leaves
    gives an incomplete one (Kraft sum below 1).  The splits, the dropped
    leaves and the symbols come from a few draws of fixed strategies, so
    that shrinking a failure has few choices to work through.
    """
    depths = [1, 1]
    splits = draw(st.integers(0, 60))
    for pick in draw(st.lists(st.integers(0, 2 ** 12), min_size=splits,
                              max_size=splits)):
        # two splits in three take the newest leaf
        i = len(depths) - 1 if pick % 3 else pick // 3 % len(depths)
        if depths[i] < 20:
            d = depths.pop(i)
            depths += [d + 1, d + 1]
    drop = draw(st.integers(0, 2 ** len(depths) - 1)) if draw(st.booleans()) else 0
    depths = [d for k, d in enumerate(depths) if not drop >> k & 1] or depths[:1]
    syms = draw(st.randoms(use_true_random=True)).sample(range(301), len(depths))
    return dict(zip(syms, depths))


def code_stream(lengths, picks, noise, cut, skip):
    """``skip`` one bits, the code words of ``picks`` (small picks are the
    longest ones), then the bits of ``noise``, maybe cut at a random bit."""
    texts = canonical_codes(lengths)
    syms = sorted(texts, key=lambda s: (-lengths[s], s))
    bits = "1" * skip + "".join(texts[syms[p % len(syms)]] for p in picks)
    bits += "".join("1" if b else "0" for b in noise)
    if cut is not None:
        bits = bits[:skip + cut % (len(bits) - skip + 1)]
    return bits_to_bytes(bits)


def decode_until_error(read, data, skip):
    """Symbols read after ``skip`` bits until the reader raises, the error
    (type and message) and the bits left at that point."""
    reader = BitReader(data)
    reader.read(skip)
    out = []
    try:
        while True:
            out.append(read(reader))
    except (DecodeError, BitstreamEnd) as exc:
        return out, type(exc), str(exc), reader.remaining_bits


class TestTableDecoder:
    @given(lengths=prefix_codes(), picks=st.lists(st.integers(0, 60), max_size=30),
           noise=st.lists(st.booleans(), max_size=40),
           cut=st.one_of(st.none(), st.integers(0, 10 ** 6)), skip=st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_bitwise_walk(self, lengths, picks, noise, cut, skip):
        """Code words, then random bits, maybe cut at a random bit: both
        decoders read the same symbols and stop with the same error at the
        same bit."""
        data = code_stream(lengths, picks, noise, cut, skip)
        dec = CanonicalDecoder(lengths)
        got = decode_until_error(dec.read, data, skip)
        want = decode_until_error(bitwise_reader(lengths), data, skip)
        assert got == want

    def test_codes_longer_than_the_lookup_width(self):
        # lengths 1, 2, ..., 20, 20: a complete code past LOOKUP_BITS
        lengths = {s: min(s + 1, 20) for s in range(21)}
        assert max(lengths.values()) > LOOKUP_BITS
        codes = canonical_codes(lengths)
        symbols = list(range(21)) * 2
        random.Random(3).shuffle(symbols)
        data = bits_to_bytes("".join(codes[s] for s in symbols))
        dec = CanonicalDecoder(lengths)
        got = decode_until_error(dec.read, data, 0)
        assert got[0][:len(symbols)] == symbols
        assert got == decode_until_error(bitwise_reader(lengths), data, 0)

    def test_implausible_code_length_is_rejected(self):
        with pytest.raises(DecodeError, match="implausible code length 65"):
            CanonicalDecoder({0: 65, 1: 1})
        # the length check comes before the Kraft check
        with pytest.raises(DecodeError, match="implausible code length 70"):
            CanonicalDecoder({0: 1, 1: 1, 2: 1, 3: 70})

    def test_oversubscribed_lengths_are_rejected(self):
        with pytest.raises(DecodeError, match="code lengths overflow the code space"):
            CanonicalDecoder({1: 1, 2: 1, 3: 1})
        with pytest.raises(DecodeError, match="code lengths overflow the code space"):
            CanonicalDecoder({s: 64 for s in range(2 ** 6)} | {100: 1, 101: 1})

    @pytest.mark.parametrize("lengths", [
        {1: 1, 2: 2, 3: 3, 4: 3},
        # lengths 1..63 and two of 64: complete at the widest plausible length
        {s: min(s + 1, 64) for s in range(65)},
    ])
    def test_a_complete_code_is_accepted_by_both_sides(self, lengths):
        assert kraft_sum(lengths) == 1
        codes = canonical_codes(lengths)
        symbols = sorted(lengths) * 2
        random.Random(6).shuffle(symbols)
        data = bits_to_bytes("".join(codes[s] for s in symbols))
        r = BitReader(data)
        dec = CanonicalDecoder(lengths)
        assert [dec.read(r) for _ in symbols] == symbols
        assert r.remaining_bits < 8

    def test_unassigned_prefix_is_an_invalid_code_word(self):
        dec = CanonicalDecoder({5: 1, 6: 2})  # "11" is no code word's prefix
        r = BitReader(b"\xc0\x00")
        with pytest.raises(DecodeError, match="invalid code word"):
            dec.read(r)
        assert r.remaining_bits == 14


def block_read_until_error(block_read, data, skip, deltas, balance, limit):
    """Symbols a block read appends after ``skip`` bits, what it returns
    or raises (type and message), and the bits left after it."""
    reader = BitReader(data)
    reader.read(skip)
    out = []
    try:
        result = block_read(reader, out, deltas, balance, limit)
    except (DecodeError, BitstreamEnd) as exc:
        result = type(exc), str(exc)
    return out, result, reader.remaining_bits


class TestBlockRead:
    @given(lengths=prefix_codes(), picks=st.lists(st.integers(0, 60), max_size=40),
           noise=st.lists(st.booleans(), max_size=40),
           cut=st.one_of(st.none(), st.integers(0, 10 ** 6)), skip=st.integers(0, 7),
           balance=st.integers(0, 30), limit=st.sampled_from([300, 150, 10]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_loop_of_reads(self, lengths, picks, noise, cut, skip, balance,
                                     limit, seed):
        """The streams of test_matches_the_bitwise_walk; each symbol's delta
        is -1, 0, 1 or None, and the symbols go up to 300: both reads append
        the same symbols and stop at the same symbol or error, at the same
        bit."""
        data = code_stream(lengths, picks, noise, cut, skip)
        rng = random.Random(seed)
        none_share = rng.choice((0, 0.05, 0.3))
        deltas = [None if rng.random() < none_share else rng.choice((-1, -1, 0, 1))
                  for _ in range(limit + 1)]
        dec = CanonicalDecoder(lengths)
        args = data, skip, deltas, balance, limit
        got = block_read_until_error(dec.read_block, *args)
        want = block_read_until_error(partial(read_block_by_reads, dec), *args)
        assert got == want

    def test_long_codes_and_the_input_end_go_through_read(self):
        # lengths 1, 2, ..., 20, 20: a complete code past LOOKUP_BITS;
        # every symbol counts -1, so the read takes all but the last
        lengths = {s: min(s + 1, 20) for s in range(21)}
        codes = canonical_codes(lengths)
        symbols = list(range(21)) * 2
        random.Random(4).shuffle(symbols)
        data = bits_to_bytes("".join(codes[s] for s in symbols))
        dec = CanonicalDecoder(lengths)
        deltas = [-1] * 21
        r = BitReader(data)
        out = bytearray()
        assert dec.read_block(r, out, deltas, len(symbols) - 1, 20) is None
        assert list(out) == symbols[:-1]
        assert dec.read(r) == symbols[-1]
        assert r.remaining_bits < 8


@st.composite
def name_codes(draw):
    """Length table of a names code: a ``prefix_codes`` table, most often
    with ETX among its symbols, so that names end; its symbols up to 300
    include some over 0xFF."""
    lengths = draw(prefix_codes())
    if ETX not in lengths and draw(st.integers(0, 3)):
        syms = sorted(lengths)
        etx_for = syms[draw(st.integers(0, len(syms) - 1))]
        lengths[ETX] = lengths.pop(etx_for)
    return lengths


# lengths 1, 2, .., 63, 64, 64 on ETX and the bytes 'a'..: a complete code
# up to the widest plausible word
WIDEST_NAME_CODE = {s: min(k + 1, 64) for k, s in enumerate([ETX, *range(97, 97 + 64)])}


def names_read_turns(blob):
    """Loop turns of ``read_block`` in the names read while ``blob``
    decodes, and the grammar: a tracer counts the line events of the loop
    head in the names read's frame alone."""
    code = CanonicalDecoder.read_block.__code__
    lines, first = inspect.getsourcelines(CanonicalDecoder.read_block)
    head = first + next(i for i, line in enumerate(lines) if "while balance > 0" in line)
    turns = 0

    def count(frame, what, arg):
        nonlocal turns
        turns += what == "line" and frame.f_lineno == head
        return count

    def names_frame(frame, what, arg):
        if frame.f_code is code and frame.f_locals["deltas"] is _NAME_DELTAS:
            return count
        return None

    old = sys.gettrace()
    sys.settrace(names_frame)
    try:
        g = decode(blob)
    finally:
        sys.settrace(old)
    return turns, g


class TestRunRead:
    """The names read with a run table, which takes several code words per
    lookup, against the one-word ``read_block``."""

    @given(lengths=name_codes(), picks=st.lists(st.integers(0, 60), max_size=60),
           noise=st.lists(st.booleans(), max_size=40),
           cut=st.one_of(st.none(), st.integers(0, 10 ** 6)), skip=st.integers(0, 7),
           names=st.integers(0, 12), limit=st.sampled_from([0xFF, 150]),
           wide=st.integers(1, 12), seed=st.one_of(st.none(), st.integers(0, 2 ** 16)))
    @settings(max_examples=200, deadline=None)
    @example(lengths=WIDEST_NAME_CODE, picks=[64, 64, 0, 64, 63, 1] * 3, noise=[], cut=None,
             skip=3, names=4, limit=0xFF, wide=12, seed=None)
    # ETX ends the last name inside a slot of four words: a ETX a a
    @example(lengths={ETX: 2, 97: 2, 98: 2, 99: 2}, picks=[1, 0, 1, 1], noise=[], cut=None,
             skip=0, names=1, limit=0xFF, wide=8, seed=None)
    def test_matches_the_one_word_read(self, lengths, picks, noise, cut, skip, names,
                                       limit, wide, seed):
        """The streams of test_matches_a_loop_of_reads; a table of ``wide``
        bits, whose longest word may pass wide/2 or wide itself; the names
        deltas, or for a ``seed`` random ones of -1, 0, 1 and None: both
        reads append the same bytes and stop at the same symbol or error,
        at the same bit."""
        data = code_stream(lengths, picks, noise, cut, skip)
        deltas = _NAME_DELTAS
        if seed is not None:
            rng = random.Random(seed)
            deltas = [rng.choice((-1, -1, 0, 1, None)) for _ in range(limit + 1)]
        dec = CanonicalDecoder(lengths)
        runs = dec.run_table(deltas, limit, wide)
        args = data, skip, deltas, names, limit
        got = block_read_until_error(partial(dec.read_block, runs=runs), *args)
        want = block_read_until_error(dec.read_block, *args)
        assert got == want

    def test_a_cut_at_every_bit(self):
        """A names section of the gen_M(2) leaves in its Huffman code, cut
        after each of its bits: both reads end alike at every cut."""
        section = b"".join(b"leaf_%d\x03" % k for k in range(16))
        lengths = huffman_code_lengths(Counter(section))
        codes = canonical_codes(lengths)
        bits = "".join(codes[b] for b in section)
        dec = CanonicalDecoder(lengths)
        runs = dec.run_table(_NAME_DELTAS, 0xFF, 2 * dec.max_len)
        for cut in range(len(bits) + 1):
            args = bits_to_bytes(bits[:cut]), 0, _NAME_DELTAS, 16, 0xFF
            got = block_read_until_error(partial(dec.read_block, runs=runs), *args)
            assert got == block_read_until_error(dec.read_block, *args)

    def test_slots_list_the_whole_code_words(self):
        # ETX 0, a 10, b 110, symbol 300 111
        dec = CanonicalDecoder({ETX: 1, 97: 2, 98: 3, 300: 3})
        runs = dec.run_table(_NAME_DELTAS, 0xFF, 3)
        assert runs[0b000] == (b"\x03\x03\x03", 3, 3)
        assert runs[0b010] == (b"\x03a", 3, 1)
        assert runs[0b101] == (b"a", 2, 0)  # "1" starts a longer word
        assert runs[0b110] == (b"b", 3, 0)
        assert runs[0b111] == (b"", 0, math.inf)  # symbol 300 is over 0xFF

    def test_a_run_ends_before_a_positive_delta(self):
        # balance 1 and the words 0 (delta -1) then 1 (delta +1): the read
        # stops after the first, though the two sum to 0
        dec = CanonicalDecoder({0: 1, 1: 1})
        runs = dec.run_table([-1, 1], 1, 2)
        assert runs[0b01] == (b"\x00", 1, 1)
        r = BitReader(b"\x40")
        out = []
        assert dec.read_block(r, out, [-1, 1], 1, 1, runs) is None
        assert out == [0] and r.remaining_bits == 7

    def test_names_read_takes_two_bytes_per_turn(self):
        """Line events, not wall time: the gen_M(3) names, 2 196 bytes of a
        code whose longest word is 6 bits, take at most one loop turn per
        two bytes, where the one-word read takes one per byte."""
        turns, g = names_read_turns(compress_tree(gen_M(3), max_rank=None))
        name_bytes = sum(len(sym.name) + 1 for sym in g.terminal_order)
        assert name_bytes == 2196
        assert 2 * turns <= name_bytes


def bit_string(data):
    return "".join(format(b, "08b") for b in data)


class TestBitIo:
    @given(data=st.binary(max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_read_and_peek_match_a_bit_string(self, data):
        bits = bit_string(data)
        for pos in range(len(bits) + 1):
            for n in range(65):
                r = BitReader(data)
                assert r.read(pos) == int(bits[:pos] or "0", 2)
                if pos + n > len(bits):
                    with pytest.raises(BitstreamEnd):
                        r.read(n)
                    assert r.remaining_bits == len(bits) - pos
                else:
                    assert r.peek(n) == int(bits[pos:pos + n] or "0", 2)
                    assert r.remaining_bits == len(bits) - pos
                    assert r.read(n) == int(bits[pos:pos + n] or "0", 2)
                    assert r.remaining_bits == len(bits) - pos - n

    @given(pieces=st.lists(st.tuples(st.integers(0, 70), st.integers(0, 2 ** 70)),
                           max_size=12))
    @example(pieces=[])
    def test_bits_to_bytes_round_trips_through_the_reader(self, pieces):
        """Fields of width 0-70 joined as one bit string: one byte per
        started 8 bits, the fields read back in order, zero padding."""
        pieces = [(nbits, value & ((1 << nbits) - 1)) for nbits, value in pieces]
        bits = "".join(format(value, "0%db" % nbits) if nbits else ""
                       for nbits, value in pieces)
        data = bits_to_bytes(bits)
        assert len(data) == -(-len(bits) // 8)
        r = BitReader(data)
        assert [r.read(nbits) for nbits, _ in pieces] == [v for _, v in pieces]
        assert r.remaining_bits < 8
        assert r.read(r.remaining_bits) == 0


class TestRunLength:
    def test_textbook_sequence(self):
        values = [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5] + [0] * 9
        assert run_length_encode(values, 5) == [
            1, 2, 2, 3, 3, 3,
            4, 6, ("bits", 2, 2),
            5, 5, 5,
            7, ("bits", 3, 5),
        ]

    def test_interesting_run_shapes_roundtrip(self):
        cases = [
            [],
            [0] * 3,
            [0] * 4,
            [0] * 11,
            [0] * 12,
            [0] * 139,
            [0] * 140,
            [0] * 151,
            [0] * 1000,
            [2] * 4,
            [2] * 7,
            [2] * 8,
            [2] * 10,
            [2] * 14,
            [2] * 16,
            [2] * 100,
            [1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 2],
            [5, 0, 5, 0, 5],
            list(range(6)) * 3,
        ]
        for values in cases:
            n = max(5, max(values, default=1))
            tokens = run_length_encode(values, n)
            assert rle_expand(tokens, n) == values, values
            for tok in tokens:
                if not isinstance(tok, tuple):
                    assert 0 <= tok <= n + 3

    def test_short_runs_stay_verbatim(self):
        assert run_length_encode([3, 3, 3], 5) == [3, 3, 3]
        assert run_length_encode([0, 0, 0], 5) == [0, 0, 0]


def zero_run_stream(tokens):
    """Stream whose first length table claims ``139 * tokens`` entries and
    spells them as ``tokens`` 8-bit zero-run tokens: super code width 1,
    five super symbols (n = 1), symbol 0 coded 0 and the n+3 token coded
    1, each token followed by the 7-bit count 127 (139 zeros).  The table
    is all zeros, so the decoder must end with "empty code"."""
    return bits_to_bytes(fixed_bits(1, 32) + fixed_bits(5, 32) + "10001"
                         + fixed_bits(139 * tokens, 32) + "11111111" * tokens)


class TestLengthTableBound:
    def test_long_zero_run_costs_its_bits_not_its_claimed_size(self):
        blob = zero_run_stream(100_000)
        assert len(blob) < 101_000
        started = time.perf_counter()
        with pytest.raises(DecodeError, match="empty code"):
            decode(blob)
        assert time.perf_counter() - started < 1.0
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="empty code"):
                decode(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestNameSectionMemory:
    def test_a_long_name_costs_its_bytes_not_a_list_of_ints(self):
        blob = compress_xml_bytes(b"<r><" + b"a" * 800_000 + b"/><b/></r>")
        assert len(blob) == 100_033
        tracemalloc.start()
        try:
            g = decode(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(len(t.name) for t in g.terminal_order) == [1, 1, 800_000]
        assert peak < 2 * 2 ** 20


def value_stream(segments):
    """The stream ``encode`` writes for the value sequence ``segments``:
    code tables built from its frequencies, then the values."""
    with mock.patch.object(succinct_coder, "serialize_values", lambda *_: segments):
        return encode(books_grammar())


def r_of_a_stream(counts=(2, 0), blocks=((1, 2), (0,), (1, 1)),
                  names=b"r\x03a\x03", bodies=(), start=(1, 2)):
    """Value sequence of S -> r(a) with r^10 (id 1) and a^00 (id 2), as a
    stream; each argument replaces one part of it."""
    segments = [("c2", list(counts))]
    for tag, block in enumerate(blocks):
        segments += [("tag", [tag]), ("c2", list(block))]
    segments += [("c3", list(names)), ("c2", list(bodies)), ("c1", list(start))]
    return value_stream(segments)


class TestDecodeErrorPoints:
    """Hand-built streams with one fault each (or a fault and a later one:
    the earlier is reported) and the message the decoder gives."""

    def test_the_unbroken_streams_decode(self):
        assert decompress_bytes(r_of_a_stream()) == b"<r><a/></r>"
        # A(y) -> r(y), S -> A(a)
        blob = r_of_a_stream(counts=(2, 1), bodies=(1, 3), start=(4, 2))
        assert decompress_bytes(blob) == b"<r><a/></r>"

    @pytest.mark.parametrize("parts, message", [
        (dict(names=list(b"r\x03a") + [0x1FF, 3]),
         "name byte 511 out of range"),
        # the first name is checked before the second name's bad byte
        (dict(names=list(b"\x01\x03a") + [0x1FF, 3]), "bad terminal name"),
        (dict(start=(1, 0)), "symbol id 0 out of range"),
        # max_id is the parameter's id 3 while no production is defined
        (dict(start=(1, 4)), "symbol id 4 out of range"),
        # a body may not name its own production (id 4)
        (dict(counts=(2, 1), bodies=(1, 4), start=(4, 2)), "symbol id 4 out of range"),
        (dict(counts=(2, 1), bodies=(0,), start=(4, 2)), "symbol id 0 out of range"),
        (dict(blocks=((1, 3), (0,), (1, 1))), "bad terminal id 3 in characteristic block"),
        (dict(blocks=((1, 0), (0,), (1, 1))), "bad terminal id 0 in characteristic block"),
        # a terminal listed twice: in two blocks, in one block, and in a
        # block whose count claims more ids than there are terminals
        (dict(blocks=((1, 2), (0,), (2, 1, 2))), "bad terminal id 2 in characteristic block"),
        (dict(blocks=((2, 2, 2), (0,), (1, 1))), "bad terminal id 2 in characteristic block"),
        (dict(blocks=((1000, 2, 2), (0,), (1, 1))), "bad terminal id 2 in characteristic block"),
        # one name twice under one characteristic
        (dict(blocks=((2, 1, 2), (0,), (0,)), names=b"a\x03a\x03"), "duplicate terminal a\\^00"),
    ], ids=["name-byte", "name-before-byte", "id-0", "id-max+1", "body-id-max+1",
            "body-id-0", "block-id-n+1", "block-id-0", "block-repeat", "block-repeat-inside",
            "block-repeat-overcount", "duplicate-name"])
    def test_message(self, parts, message):
        with pytest.raises(DecodeError, match=message):
            decode(r_of_a_stream(**parts))

    @pytest.mark.parametrize("parts, message", [
        (dict(names=b"\x03a\x03"), "bad terminal name: empty terminal name"),
        (dict(names=b"r\x03\x03"), "bad terminal name: empty terminal name"),
        # positions count within the name, not the section
        (dict(names=b"r\x03a\xff\x03"), "bad terminal name: 'utf-8' codec can't decode "
                                        "byte 0xff in position 1: invalid start byte"),
        (dict(names=b"\xc3\x03a\x03"), "bad terminal name: 'utf-8' codec can't decode "
                                       "byte 0xc3 in position 0: unexpected end of data"),
        (dict(names=b"r\x03a\x01\x03"),
         "bad terminal name: control character in terminal name: 'a\\x01'"),
        # r^10 (id 1), then a^00 twice (ids 2 and 3)
        (dict(counts=(3, 0), blocks=((2, 2, 3), (0,), (1, 1)), names=b"r\x03a\x03a\x03"),
         "duplicate terminal a^00"),
    ], ids=["empty-first", "empty-later", "ff-in-name", "cut-lead-byte", "control-second",
            "duplicate-last"])
    def test_name_fault_message(self, parts, message):
        with pytest.raises(DecodeError) as exc:
            decode(r_of_a_stream(**parts))
        assert str(exc.value) == message

    @pytest.mark.parametrize("ids, message", [
        (range(1, 41), "truncated input"),
        ([1, 1, *range(2, 40)], "bad terminal id 1 in characteristic block"),
    ])
    def test_truncation_inside_a_characteristic_block(self, ids, message):
        names = b"".join(b"t%02d\x03" % i for i in range(40))
        blob = r_of_a_stream(counts=(40, 0), blocks=((40, *ids), (0,), (0,)), names=names,
                             start=(1,))
        # the block's 40 ids take 200 bits or more; cut 40 bits in
        _, _, _, tables, r = read_header(blob)
        c2 = CanonicalDecoder({s: l for s, l in enumerate(tables[1][1]) if l})
        c2.read(r), c2.read(r), r.read(2), c2.read(r)
        cut = (8 * len(blob) - r.remaining_bits + 40) // 8
        with pytest.raises(DecodeError, match=message):
            decode(blob[:cut])

    @pytest.mark.parametrize("first, message", [(b"r", "truncated input"),
                                                (b"\x01", "bad terminal name")])
    def test_truncation_inside_the_name_section(self, first, message):
        blob = r_of_a_stream(names=first + b"\x03" + b"a" * 4000 + b"\x03")
        assert len(blob) > 400
        with pytest.raises(DecodeError, match=message):
            decode(blob[:len(blob) // 2])


def decode_calls(data, module, func):
    """Calls of ``module``'s function ``func`` while ``decode`` reads ``data``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        decode(data)
    except DecodeError:
        pass
    finally:
        profiler.disable()
    return sum(calls for (path, _, name), (_, calls, *_) in pstats.Stats(profiler).stats.items()
               if path == module.__file__ and name == func)


class TestNameSectionProtocol:
    """Call counts, not wall time: a clean names section is read without a
    ``TerminalSymbol`` construction per name, a faulty one by the loop that
    constructs one per name."""

    @staticmethod
    def symbol_constructions(data):
        return decode_calls(data, xml_tree, "__new__")

    def test_a_clean_section_constructs_no_symbol(self):
        blob = compress_tree(gen_M(3))  # 256 distinct leaf names
        assert len(decode(blob).terminal_order) == 257
        assert self.symbol_constructions(blob) == 0

    def test_a_faulty_name_is_reported_by_the_per_name_loop(self):
        blob = r_of_a_stream(names=b"r\x03a\x01\x03")
        with pytest.raises(DecodeError, match="control character"):
            decode(blob)
        assert self.symbol_constructions(blob) == 2

    @given(names=st.lists(st.lists(st.sampled_from(
               [b"", b"a", b"b", b" ", b"\x01", b"\x1f", b"\x03", b"\xff", b"\xc3", b"\xa9"]),
               max_size=3).map(b"".join), min_size=1, max_size=6),
           chars=st.lists(st.sampled_from(list(ChildrenCharacteristic)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_the_bulk_read_matches_the_per_name_loop(self, names, chars):
        section = b"".join(name + b"\x03" for name in names)
        char_of = dict(enumerate(chars, 1))

        def outcome(raw):
            try:
                return list(_read_terminals(bytearray(raw), char_of))
            except DecodeError as exc:
                return str(exc)

        # a cut last name hands the same complete names to the loop
        assert outcome(section) == outcome(section + b"a")


class TestCodeWordProtocol:
    """Call counts, not wall time: ``decode`` reads every run of code
    words with ``read_block``, but for the continuations that follow a
    length table's run continuation token, which it takes from one peeked
    window.  Only the five lone counts (terminals, productions and the
    three characteristic blocks) go through ``read``."""

    @pytest.mark.parametrize("tree, max_rank", [(gen_M(3), None), (gen_U(10), 4)])
    def test_decode_reads_five_lone_code_words(self, tree, max_rank):
        blob = compress_tree(tree, max_rank=max_rank)
        assert decode_calls(blob, succinct_coder, "read") == 5

    def test_length_tables_read_continuations_a_stretch_at_a_time(self, monkeypatch):
        # gen_M(3) has 256 leaf names of one code length, so its C2 and C3
        # tables hold runs of 36 continuations or more
        blob = compress_tree(gen_M(3), max_rank=None)
        n = read_header(blob)[1] - 4
        continuations = [run_length_encode(table, n).count(n + 1)
                         for _, table in read_header(blob)[3]]
        assert max(continuations) > 30
        per_table, reading = [], []
        read_block = CanonicalDecoder.read_block
        run_length_decode = succinct_decoder.run_length_decode

        def counting_read_block(*args, **kwargs):
            if reading:
                reading[0] += 1
            return read_block(*args, **kwargs)

        def counting_run_length_decode(*args):
            reading.append(0)
            try:
                return run_length_decode(*args)
            finally:
                per_table.append(reading.pop())

        monkeypatch.setattr(CanonicalDecoder, "read_block", counting_read_block)
        monkeypatch.setattr(succinct_decoder, "run_length_decode", counting_run_length_decode)
        decode(blob)
        assert len(per_table) == 3 and max(per_table) <= 5


class TestIdAssignment:
    def test_books_symbol_numbering(self):
        g = books_grammar()
        nonterminals, id_of = assign_ids(g)
        by_id = {sid: sym for sym, sid in id_of.items()}
        names = {}
        for sid in range(1, 7):
            sym = by_id[sid]
            names[sid] = (sym.name, int(sym.characteristic))
        assert names == {
            1: ("books", 0b10), 2: ("isbn", 0b00), 3: ("title", 0b01),
            4: ("author", 0b01), 5: ("book", 0b10), 6: ("book", 0b11),
        }
        assert id_of[PARAMETER] == 7
        nts = [g.productions[n] for n in g.hierarchical_order() if n != g.start_id]
        assert nonterminals == nts
        assert [id_of[nt] for nt in nts] == [8, 9]

    def test_generic_ranked_symbols_are_not_encodable(self):
        g, _ = make_grammar([("S", 0, ("f/2", ["a/0", "b/0"]))])
        with pytest.raises(EncodeError):
            encode(g)


class TestValueSequence:
    def test_books_values_and_channels(self):
        g = books_grammar()
        assert flat_values(serialize_values(g, assign_ids(g))) == BOOKS_VALUES

    def test_non_start_bodies_precede_the_start_body(self):
        g = books_grammar()
        values = flat_values(serialize_values(g, assign_ids(g)))
        channels = [c for c, _ in values]
        assert channels.index("c1") == len(channels) - 7
        assert set(channels[channels.index("c1"):]) == {"c1"}


class TestEncodedStream:
    def test_books_blob_shape(self):
        assert len(BOOKS_BLOB) == 61
        n_s, super_count, super_lengths, tables, _ = read_header(BOOKS_BLOB)
        assert n_s == 3
        assert super_count == 9
        assert super_lengths == [1, 5, 4, 3, 3, 3, 0, 0, 5]
        (c1_count, c1), (c2_count, c2), (c3_count, c3) = tables
        assert (c1_count, c2_count, c3_count) == (10, 9, 118)
        assert c1 == [0, 3, 0, 0, 0, 3, 0, 0, 2, 1]
        assert c2 == [0, 3, 2, 3, 3, 4, 3, 4, 3]
        assert c3[:4] == [0, 0, 0, 3]
        assert c3[4:97] == [0] * 93
        assert c3[97:] == [5, 3, 0, 0, 5, 0, 0, 5, 4, 0, 4, 5, 0, 5, 2, 0, 0, 5, 4, 4, 4]

    def test_encode_is_deterministic(self):
        assert encode(books_grammar()) == BOOKS_BLOB

    def test_decode_restores_the_grammar(self):
        g = decode(BOOKS_BLOB)
        validate_grammar(g)
        assert canonical_text(g) == canonical_text(books_grammar())
        assert encode(g) == BOOKS_BLOB

    def test_unicode_names_roundtrip(self):
        data = "<café><x/><x/></café>".encode("utf-8")
        g = build_grammar(parse_xml(data))
        blob = encode(g)
        out = decode(blob)
        assert same_structure(out.unfold_value(), parse_xml(data))

    def test_truncation_and_trailing_data_are_rejected(self):
        for k in (0, 1, 4, 8, 9, 20, len(BOOKS_BLOB) - 1):
            with pytest.raises(DecodeError):
                decode(BOOKS_BLOB[:k])
        with pytest.raises(DecodeError):
            decode(BOOKS_BLOB + b"\x00")
        with pytest.raises(DecodeError):
            decode(b"\x00" * 8)
