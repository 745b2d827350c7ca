"""Randomized invariants over documents, grammars, and codings."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from treerepair import (
    DecodeError,
    GrammarError,
    SlcfGrammar,
    build_dag_grammar,
    build_grammar,
    build_index,
    compress_xml_bytes,
    decode,
    decompress_bytes,
    decompress_tree,
    encode,
    gather_stats,
    parse_xml,
    serialize_xml,
)
from treerepair.bitio import BitReader, BitstreamEnd, bits_to_bytes
from treerepair.pipeline import DEFAULT_NODE_CAP
from treerepair.succinct_coder import (
    CanonicalDecoder,
    canonical_codes,
    fixed_bits,
    huffman_code_lengths,
    run_length_encode,
)
from treerepair.succinct_decoder import run_length_decode

from conftest import BOOKS, random_xml, shape_to_xml
from oracles import (
    binary_mdag_edges,
    binary_shape,
    canonical_text,
    decompress_bytes_by_unfolding,
    element_shape,
    fcns_shape,
    huffman_code_lengths_by_heap,
    huffman_cost,
    kraft_sum,
    max_nonoverlapping,
    mdag_counts,
    occurrence_nodes,
    prefix_free,
    rle_expand,
    run_length_decode_dense,
    validate_grammar,
)

TAGS = st.sampled_from(["a", "b", "c", "d", "item"])

shapes = st.recursive(
    TAGS.map(lambda t: (t, [])),
    lambda sub: st.tuples(TAGS, st.lists(sub, max_size=4)).map(lambda p: (p[0], list(p[1]))),
    max_leaves=50,
)

documents = st.lists(shapes, min_size=1, max_size=4).map(
    lambda kids: shape_to_xml(("r", kids)))

ranks = st.sampled_from([1, 2, 4, None])
objectives = st.sampled_from(["edges", "filesize"])
ALL_FLAGS = [(r, o, d) for r in (1, 2, 4, None) for o in ("edges", "filesize")
             for d in (True, False)]

RELAXED = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDocumentModel:
    @given(doc=documents)
    @RELAXED
    def test_parse_serialize_roundtrip(self, doc):
        assert serialize_xml(parse_xml(doc)) == doc

    @given(doc=documents)
    @RELAXED
    def test_binary_model_matches_reference(self, doc):
        assert binary_shape(parse_xml(doc)) == fcns_shape(element_shape(doc))


class TestGrammarStages:
    @given(doc=documents, max_rank=ranks, optimize=objectives, use_dag=st.booleans())
    @RELAXED
    def test_construction_preserves_the_derived_tree(self, doc, max_rank, optimize, use_dag):
        before = parse_xml(doc)
        want = binary_shape(before)
        n_edges = before.edge_count
        g = build_grammar(parse_xml(doc), max_rank=max_rank,
                          optimize=optimize, use_dag=use_dag)
        validate_grammar(g)
        assert g.grammar_size() <= n_edges
        # the value-size bound is exact: a cap of the node count admits it
        nodes = before.node_count
        assert binary_shape(g.unfold_value(node_cap=nodes)) == want
        with pytest.raises(GrammarError, match="exceeds %d nodes" % (nodes - 1)):
            g.unfold_value(node_cap=nodes - 1)

    @given(doc=documents, max_rank=ranks, optimize=objectives, use_dag=st.booleans())
    @RELAXED
    def test_full_roundtrip(self, doc, max_rank, optimize, use_dag):
        blob = compress_xml_bytes(doc, max_rank=max_rank,
                                  optimize=optimize, use_dag=use_dag)
        assert decompress_bytes(blob) == doc

    @given(doc=documents)
    @RELAXED
    def test_writer_matches_the_unfolding_path(self, doc):
        for max_rank, optimize, use_dag in ALL_FLAGS:
            blob = compress_xml_bytes(doc, max_rank=max_rank,
                                      optimize=optimize, use_dag=use_dag)
            want = decompress_bytes_by_unfolding(blob, DEFAULT_NODE_CAP)
            assert want == doc
            assert decompress_bytes(blob) == want

    @given(doc=documents)
    @RELAXED
    def test_unranked_dag_measures_match_oracle(self, doc):
        stats = gather_stats(doc)
        nodes, edges = mdag_counts(element_shape(doc))
        assert stats["unranked mdag nodes"] == nodes
        assert stats["unranked mdag edges"] == edges

    @given(doc=documents)
    @RELAXED
    def test_binary_dag_measures_match_dag_grammar(self, doc):
        stats = gather_stats(doc)
        g = build_dag_grammar(parse_xml(doc))
        assert stats["binary mdag edges"] == g.grammar_size()
        assert stats["binary mdag nonterminals"] == g.nonterminal_count

    @given(doc=documents)
    @RELAXED
    def test_dag_grammar_size_matches_recursive_oracle(self, doc):
        g = build_dag_grammar(parse_xml(doc))
        assert g.grammar_size() == binary_mdag_edges(binary_shape(parse_xml(doc)))

    @given(doc=documents)
    @RELAXED
    def test_occurrence_counts_are_maximal(self, doc):
        bt = parse_xml(doc)
        t = bt.tree
        digrams = set()
        for v in t.iter_postorder(bt.root):
            for i, c in enumerate(t.children[v], start=1):
                digrams.add((t.labels[v], i, t.labels[c]))
        idx = build_index(SlcfGrammar.from_tree(bt))
        for parent, i, child in digrams:
            occ = occurrence_nodes(idx, parent, i, child)
            assert len(occ) == max_nonoverlapping(t, bt.root, parent, i, child)


@st.composite
def rle_cases(draw):
    n = draw(st.integers(4, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n), st.integers(1, 40)), max_size=12))
    values = [v for v, k in pairs for _ in range(k)]
    return n, values


@st.composite
def frequency_tables(draw):
    return draw(st.dictionaries(st.integers(0, 40), st.integers(1, 60),
                                min_size=1, max_size=14))


@st.composite
def tie_heavy_frequency_tables(draw):
    """One to many symbols whose frequencies are small multiples of one
    unit, 1 or 10**12, so that most merges meet a tie, between leaves and
    between a leaf and a merged node (1 + 1 meets a leaf of 2)."""
    unit = draw(st.sampled_from([1, 10 ** 12]))
    weights = draw(st.lists(st.sampled_from([1, 1, 2, 3, 4]), min_size=1, max_size=60))
    symbols = draw(st.lists(st.integers(0, 500), min_size=len(weights),
                            max_size=len(weights), unique=True))
    return {s: unit * w for s, w in zip(symbols, weights)}


class TestCodings:
    @given(case=rle_cases())
    @RELAXED
    def test_run_length_roundtrip(self, case):
        n, values = case
        assert rle_expand(run_length_encode(values, n), n) == values

    @given(freqs=frequency_tables())
    @RELAXED
    def test_code_lengths_are_tight_and_optimal(self, freqs):
        lengths = huffman_code_lengths(freqs)
        assert set(lengths) == set(freqs)
        # a lone symbol still takes one bit, leaving half the code space idle
        want_kraft = 1 if len(freqs) > 1 else Fraction(1, 2)
        assert kraft_sum(lengths) == want_kraft
        cost = sum(freqs[s] * lengths[s] for s in freqs)
        assert cost == huffman_cost(freqs)

    @given(freqs=tie_heavy_frequency_tables())
    @example(freqs={5: 1})
    @example(freqs={0: 2, 1: 2})
    @example(freqs={0: 1, 1: 1, 2: 2, 3: 2})
    @example(freqs={s: 1 for s in range(300)})
    @example(freqs={s: 10 ** 12 for s in range(9)})
    @RELAXED
    def test_code_lengths_match_the_heap_construction(self, freqs):
        assert huffman_code_lengths(freqs) == huffman_code_lengths_by_heap(freqs)

    @given(freqs=frequency_tables(), data=st.data())
    @RELAXED
    def test_canonical_codes_decode_what_they_encode(self, freqs, data):
        lengths = huffman_code_lengths(freqs)
        codes = canonical_codes(lengths)
        assert prefix_free(list(codes.values()))
        symbols = data.draw(st.lists(st.sampled_from(sorted(freqs)), max_size=40))
        r = BitReader(bits_to_bytes("".join(codes[s] for s in symbols)))
        dec = CanonicalDecoder(lengths)
        assert [dec.read(r) for _ in symbols] == symbols

    @given(case=rle_cases(), cut=st.integers(0, 400))
    @RELAXED
    def test_sparse_run_length_decoding_matches_dense(self, case, cut):
        """Tables written by run_length_encode, read back in full and with
        a table size cut short: the sparse decoder keeps exactly the dense
        table's nonzero entries, and fails alike."""
        n, values = case
        codes = canonical_codes(huffman_code_lengths({s: 1 for s in range(n + 4)}))
        data = bits_to_bytes("".join(
            fixed_bits(tok[2], tok[1]) if isinstance(tok, tuple) else codes[tok]
            for tok in run_length_encode(values, n)))
        sparse, dense = self._run_length_both_ways(data, n, len(values))
        assert sparse == dense
        assert sparse[0] == ("ok", {i: v for i, v in enumerate(values) if v})
        short = self._run_length_both_ways(data, n, min(cut, len(values)))
        assert short[0] == short[1]

    @given(n=st.integers(4, 12), data=st.binary(max_size=40), expected=st.integers(0, 300))
    @RELAXED
    def test_sparse_run_length_decoding_matches_dense_on_any_bits(self, n, data, expected):
        sparse, dense = self._run_length_both_ways(data, n, expected)
        assert sparse == dense

    @staticmethod
    def _run_length_both_ways(data, n, expected):
        """(outcome, bits left) of the sparse and the dense decoder; the
        outcome is the nonzero entries or the error's type and message."""
        decoder = CanonicalDecoder(huffman_code_lengths({s: 1 for s in range(n + 4)}))
        results = []
        for decode_table in (run_length_decode, run_length_decode_dense):
            reader = BitReader(data)
            try:
                table = decode_table(reader, decoder, n, expected)
            except (DecodeError, BitstreamEnd) as exc:
                results.append(((type(exc), str(exc)), reader.remaining_bits))
                continue
            if isinstance(table, list):
                table = {i: v for i, v in enumerate(table) if v}
            results.append((("ok", table), reader.remaining_bits))
        return tuple(results)

    @given(doc=documents, max_rank=ranks, use_dag=st.booleans())
    @RELAXED
    def test_reencoding_a_decoded_stream_is_identity(self, doc, max_rank, use_dag):
        g = build_grammar(parse_xml(doc), max_rank=max_rank, use_dag=use_dag)
        blob = encode(g)
        h = decode(blob)
        assert canonical_text(h) == canonical_text(g)
        assert encode(h) == blob


class TestStreamRobustness:
    def test_every_truncation_is_rejected(self):
        blob = compress_xml_bytes(BOOKS)
        for k in range(len(blob)):
            with pytest.raises(DecodeError):
                decompress_tree(blob[:k])

    def test_every_bit_flip_fails_cleanly(self):
        blob = compress_xml_bytes(BOOKS)
        victims = bytearray(blob)
        survived = 0
        for pos in range(8 * len(blob)):
            victims[pos // 8] ^= 1 << (7 - pos % 8)
            try:
                decompress_tree(bytes(victims), node_cap=10_000)
                survived += 1
            except DecodeError:
                pass
            victims[pos // 8] ^= 1 << (7 - pos % 8)
        # a rare flip may still yield a well-formed stream for some other
        # tree; what matters is that nothing crashes with a foreign error
        assert survived <= 8 * len(blob)

    def test_mutated_streams_decompress_to_xml_or_fail_cleanly(self):
        rng = random.Random(2010)
        blobs = [compress_xml_bytes(BOOKS, max_rank=r, optimize=o, use_dag=d)
                 for r, o, d in ((4, "filesize", True), (1, "edges", False),
                                 (None, "edges", True), (2, "filesize", False))]
        for k in range(2000):
            victim = bytearray(blobs[k % len(blobs)])
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(8 * len(victim))
                victim[pos // 8] ^= 1 << (7 - pos % 8)
            try:
                out = decompress_bytes(bytes(victim), node_cap=2 ** 16)
            except DecodeError:
                continue
            assert isinstance(out, bytes)

    def test_mutants_give_the_same_result_on_both_paths(self):
        """Writing from the grammar and unfolding then serializing agree on
        every mutant: the same bytes or the same DecodeError message."""
        rng = random.Random(2011)
        docs = (BOOKS, random_xml(5, max_nodes=200))
        blobs = [compress_xml_bytes(doc, max_rank=r, use_dag=d)
                 for doc in docs for r, d in ((None, True), (1, False), (4, True))]
        outcomes = set()
        for k in range(1200):
            victim = bytearray(blobs[k % len(blobs)])
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(8 * len(victim))
                victim[pos // 8] ^= 1 << (7 - pos % 8)
            results = []
            for decompress in (decompress_bytes, decompress_bytes_by_unfolding):
                try:
                    results.append(decompress(bytes(victim), 2 ** 16))
                except DecodeError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            outcomes.add(type(results[0]))
        assert outcomes == {bytes, str}
