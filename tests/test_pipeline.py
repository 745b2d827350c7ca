"""End-to-end pipeline: flag combinations, caps, stage statistics and work
per input node."""

import cProfile
import enum
import importlib.util
import os
import pstats
import subprocess
import sys
import time
import tracemalloc

import pytest

import treerepair
from treerepair import (
    PARAMETER,
    ChildrenCharacteristic,
    DecodeError,
    ParseError,
    SlcfGrammar,
    TerminalSymbol,
    Tree,
    build_dag_grammar,
    build_grammar,
    compress_tree,
    compress_xml_bytes,
    decode,
    decompress_bytes,
    decompress_tree,
    encode,
    gather_stats,
    parse_xml,
    serialize_xml,
)
from treerepair.dag_builder import dag_grammar
from treerepair.fixtures import gen_M, gen_perfect_binary, gen_U
from treerepair.pipeline import DEFAULT_NODE_CAP
from treerepair.xml_tree import parse_xml_classes

from conftest import BOOKS, random_xml, subprocess_env
from oracles import binary_shape, canonical_text, decompress_bytes_by_unfolding

ALL_COMBOS = [
    (max_rank, optimize, use_dag)
    for max_rank in (1, 2, 4, None)
    for optimize in ("edges", "filesize")
    for use_dag in (True, False)
]


class TestFlags:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            build_grammar(parse_xml(BOOKS), optimize="bogus")

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError, match="max_rank must not be negative"):
            build_grammar(parse_xml(b"<a><b/><b/><b/></a>"), max_rank=-1)

    def test_flags_are_checked_before_parsing(self):
        with pytest.raises(ValueError, match="max_rank") as excinfo:
            compress_xml_bytes(b"not xml", max_rank=-1)
        assert not isinstance(excinfo.value, ParseError)
        with pytest.raises(ValueError, match="optimize") as excinfo:
            gather_stats(b"not xml", optimize="x")
        assert not isinstance(excinfo.value, ParseError)

    @pytest.mark.parametrize("max_rank,optimize,use_dag", ALL_COMBOS)
    def test_books_roundtrip_under_every_combo(self, max_rank, optimize, use_dag):
        blob = compress_xml_bytes(BOOKS, max_rank=max_rank,
                                  optimize=optimize, use_dag=use_dag)
        assert decompress_bytes(blob) == BOOKS

    def test_random_documents_roundtrip(self):
        for seed in range(12):
            data = random_xml(seed, max_nodes=150)
            assert decompress_bytes(compress_xml_bytes(data)) == data


class TestNodeCap:
    def test_oversized_output_is_rejected(self):
        blob = compress_tree(gen_perfect_binary(8))
        with pytest.raises(DecodeError):
            decompress_tree(blob, node_cap=100)
        assert decompress_tree(blob).node_count == 2 ** 9 - 1
        # the cap is exact: the value fits at its own size, not one below
        assert decompress_tree(blob, node_cap=2 ** 9 - 1).node_count == 2 ** 9 - 1
        with pytest.raises(DecodeError, match="exceeds %d nodes" % (2 ** 9 - 2)):
            decompress_tree(blob, node_cap=2 ** 9 - 2)

    def test_cap_applies_to_bytes_variant(self):
        blob = compress_xml_bytes(BOOKS)
        with pytest.raises(DecodeError):
            decompress_bytes(blob, node_cap=5)
        # exact as for the tree: BOOKS has 21 elements
        assert decompress_bytes(blob, node_cap=21) == BOOKS
        with pytest.raises(DecodeError, match="exceeds 20 nodes"):
            decompress_bytes(blob, node_cap=20)


def doubling_stream(levels=40):
    """Stream of A_1 -> a(b, b), A_(i+1) -> a(A_i, A_i), S -> r(A_levels):
    about 2**(levels + 1) nodes from about a hundred bytes."""
    r = TerminalSymbol("r", ChildrenCharacteristic.NO_RIGHT_CHILD)
    a = TerminalSymbol("a", ChildrenCharacteristic.TWO_CHILDREN)
    b = TerminalSymbol("b", ChildrenCharacteristic.NO_CHILDREN)
    g = SlcfGrammar(Tree(), [r, a, b])
    kid = b
    for _ in range(levels):
        nt = g.new_nonterminal(0, is_dag=False)
        top = g.new_node(a)
        g.arena.set_children(top, [g.new_node(kid), g.new_node(kid)])
        g.add_production(nt, top)
        kid = nt
    s, top = g.new_node(r), g.new_node(kid)
    g.arena.set_children(s, [top])
    g.add_production(g.new_nonterminal(0, is_dag=False), s, start=True)
    return encode(g)


class TestValueSizeBound:
    def test_doubling_grammar_is_rejected_before_unfolding(self):
        blob = doubling_stream()
        assert len(blob) < 128
        tracemalloc.start()
        try:
            started = time.perf_counter()
            for decompress in (decompress_tree, decompress_bytes):
                with pytest.raises(DecodeError, match="exceeds"):
                    decompress(blob)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 2 ** 20


def identity_chain_stream(k):
    """Stream of A_0(y) -> y, A_i(y) -> A_(i-1)(A_(i-1)(y)) for i = 1..k and
    S -> r(A_k(a)): the value <r><a/></r>, derived through 2**k references.
    A_0's body is a bare parameter, which the encoder never writes."""
    r = TerminalSymbol("r", ChildrenCharacteristic.NO_RIGHT_CHILD)
    a = TerminalSymbol("a", ChildrenCharacteristic.NO_CHILDREN)
    g = SlcfGrammar(Tree(), [r, a])
    prev = g.new_nonterminal(1, is_dag=False)
    g.add_production(prev, g.new_node(PARAMETER))
    for _ in range(k):
        nt = g.new_nonterminal(1, is_dag=False)
        outer, inner = g.new_node(prev), g.new_node(prev)
        g.arena.set_children(inner, [g.new_node(PARAMETER)])
        g.arena.set_children(outer, [inner])
        g.add_production(nt, outer)
        prev = nt
    s, use = g.new_node(r), g.new_node(prev)
    g.arena.set_children(use, [g.new_node(a)])
    g.arena.set_children(s, [use])
    g.add_production(g.new_nonterminal(0, is_dag=False), s, start=True)
    return encode(g)


def reference_root_stream(root_char):
    """Stream of S -> B(a..), B(y..) -> A(y..), A(y..) -> r(y..): the
    value's root is r, reached through two references."""
    r = TerminalSymbol("r", root_char)
    a = TerminalSymbol("a", ChildrenCharacteristic.NO_CHILDREN)
    g = SlcfGrammar(Tree(), [r, a])
    A = g.new_nonterminal(r.rank, is_dag=False)
    body = g.new_node(r)
    g.arena.set_children(body, [g.new_node(PARAMETER) for _ in range(r.rank)])
    g.add_production(A, body)
    B = g.new_nonterminal(r.rank, is_dag=False)
    body = g.new_node(A)
    g.arena.set_children(body, [g.new_node(PARAMETER) for _ in range(r.rank)])
    g.add_production(B, body)
    s = g.new_node(B)
    g.arena.set_children(s, [g.new_node(a) for _ in range(r.rank)])
    g.add_production(g.new_nonterminal(0, is_dag=False), s, start=True)
    return encode(g)


def alias_chain_stream(p, m):
    """Stream of A_0 -> b, A_i -> A_(i-1) for i = 1..p and S -> r(c(A_p,
    c(A_p, .. c(A_p)))), A_p used m times: the value <r><c><b/></c>..</r>
    of 2m + 1 nodes, which a walk per use derives through p * m references."""
    r = TerminalSymbol("r", ChildrenCharacteristic.NO_RIGHT_CHILD)
    c = TerminalSymbol("c", ChildrenCharacteristic.TWO_CHILDREN)
    last = TerminalSymbol("c", ChildrenCharacteristic.NO_RIGHT_CHILD)
    b = TerminalSymbol("b", ChildrenCharacteristic.NO_CHILDREN)
    g = SlcfGrammar(Tree(), [r, c, last, b])
    prev = g.new_nonterminal(0, is_dag=False)
    g.add_production(prev, g.new_node(b))
    for _ in range(p):
        nt = g.new_nonterminal(0, is_dag=False)
        g.add_production(nt, g.new_node(prev))
        prev = nt
    top = g.new_node(last)
    g.arena.set_children(top, [g.new_node(prev)])
    for _ in range(m - 1):
        kid, top = top, g.new_node(c)
        g.arena.set_children(top, [g.new_node(prev), kid])
    s = g.new_node(r)
    g.arena.set_children(s, [top])
    g.add_production(g.new_nonterminal(0, is_dag=False), s, start=True)
    return encode(g)


class TestAliasChain:
    def test_chain_is_followed_once(self):
        blob = alias_chain_stream(4000, 4000)
        want = b"<r>" + b"<c><b/></c>" * 4000 + b"</r>"
        assert decompress_bytes_by_unfolding(blob, DEFAULT_NODE_CAP) == want
        # 16 M reference steps if each use walked the chain
        started = time.perf_counter()
        written, tree = decompress_bytes(blob), decompress_tree(blob)
        assert time.perf_counter() - started < 0.5
        assert written == want
        assert serialize_xml(tree) == want


def single_use_chain_stream(p):
    """Stream of A_0 -> b, A_i -> a(A_(i-1), b) for i = 1..p and S ->
    r(A_p), each A_i used once: a value of 2p + 2 nodes, while the values
    of all productions sum to about p**2 nodes."""
    r = TerminalSymbol("r", ChildrenCharacteristic.NO_RIGHT_CHILD)
    a = TerminalSymbol("a", ChildrenCharacteristic.TWO_CHILDREN)
    b = TerminalSymbol("b", ChildrenCharacteristic.NO_CHILDREN)
    g = SlcfGrammar(Tree(), [r, a, b])
    prev = g.new_nonterminal(0, is_dag=False)
    g.add_production(prev, g.new_node(b))
    for _ in range(p):
        nt = g.new_nonterminal(0, is_dag=False)
        top = g.new_node(a)
        g.arena.set_children(top, [g.new_node(prev), g.new_node(b)])
        g.add_production(nt, top)
        prev = nt
    s = g.new_node(r)
    g.arena.set_children(s, [g.new_node(prev)])
    g.add_production(g.new_nonterminal(0, is_dag=False), s, start=True)
    return encode(g)


class TestCopyBudget:
    @pytest.mark.parametrize("decompress, xml", [(decompress_bytes, bytes),
                                                 (decompress_tree, serialize_xml)],
                             ids=["bytes", "tree"])
    def test_single_use_chain_is_not_evaluated_whole(self, decompress, xml):
        # evaluating each A_i once would copy about 16 M terminals
        blob = single_use_chain_stream(4000)
        want = b"<r>" + b"<a>" * 4000 + b"<b/>" + b"</a><b/>" * 4000 + b"</r>"
        started = time.perf_counter()
        out = decompress(blob)
        assert time.perf_counter() - started < 0.5
        assert xml(out) == want
        tracemalloc.start()
        try:
            decompress(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestDerivedRoot:
    def test_root_is_found_through_references(self):
        blob = reference_root_stream(ChildrenCharacteristic.NO_RIGHT_CHILD)
        assert decompress_bytes(blob) == b"<r><a/></r>"

    @pytest.mark.parametrize("char", [ChildrenCharacteristic.TWO_CHILDREN,
                                      ChildrenCharacteristic.NO_CHILDREN],
                             ids=["11", "00"])
    def test_non_xml_root_is_a_decode_error(self, char):
        blob = reference_root_stream(char)
        assert decompress_tree(blob).node_count == 1 + char.rank
        with pytest.raises(DecodeError, match="characteristic"):
            decompress_bytes(blob)

    @pytest.mark.parametrize("k", [1, 40])
    def test_bare_parameter_body_is_a_decode_error(self, k):
        # at k = 40, 2**40 references would derive the one-node value; the
        # body of A_0 stops the decoder first
        blob = identity_chain_stream(k)
        assert len(blob) < 128
        started = time.perf_counter()
        for decompress in (decompress_tree, decompress_bytes):
            with pytest.raises(DecodeError, match="bare parameter"):
                decompress(blob)
        assert time.perf_counter() - started < 0.5


@pytest.mark.usefixtures("default_recursion_limit")
class TestDefaultRecursionLimit:
    def test_deep_grammar_renders(self):
        text = canonical_text(SlcfGrammar.from_tree(gen_U(12)))
        assert text.count("f^11") == 2 ** 12

    def test_deep_document_roundtrips(self):
        depth = 5000
        data = b"".join(b"<e%d><l/>" % (i % 7) for i in range(depth))
        data += b"".join(b"</e%d>" % (i % 7) for i in reversed(range(depth)))
        assert decompress_bytes(compress_xml_bytes(data)) == data
        assert gather_stats(data)["binary tree edges"] == 2 * depth - 1


class TestStats:
    def test_books_report(self):
        stats = gather_stats(BOOKS)
        assert list(stats) == [
            "input bytes",
            "binary tree edges",
            "binary mdag edges",
            "binary mdag nonterminals",
            "unranked mdag edges",
            "unranked mdag nodes",
            "grammar edges",
            "grammar nonterminals",
            "edge factor %",
            "output bytes",
            "file size factor %",
            "wall ms",
        ]
        assert stats["input bytes"] == 200
        assert stats["binary tree edges"] == 20
        assert stats["binary mdag edges"] == 12
        assert stats["binary mdag nonterminals"] == 2
        assert stats["unranked mdag edges"] == 8
        assert stats["unranked mdag nodes"] == 5
        assert stats["grammar edges"] == 12
        assert stats["grammar nonterminals"] == 2
        assert stats["edge factor %"] == 60.0
        assert stats["output bytes"] == 61
        assert stats["file size factor %"] == 30.5
        assert stats["wall ms"] > 0

    def test_stats_match_actual_compression(self):
        data = random_xml(7, max_nodes=120)
        for flags in ALL_COMBOS:
            stats = gather_stats(data, *flags)
            blob = compress_xml_bytes(data, *flags)
            assert stats["output bytes"] == len(blob), flags
            assert stats["grammar edges"] == decode(blob).grammar_size(), flags
            assert stats["input bytes"] == len(data)

    def test_stats_share_while_parsing(self):
        # with sharing on, stats reads the classes as compress does: no tree
        def parses(run):
            return {name: n for (path, name), n in profiled_calls(run).items()
                    if path.startswith(package)
                    and name in ("parse_xml", "parse_xml_classes", "tree_classes")}

        package = os.path.dirname(treerepair.__file__)
        assert parses(lambda: gather_stats(BOOKS)) == {"parse_xml_classes": 1}
        # the check sees a tree being made and hash-consed
        assert parses(lambda: gather_stats(BOOKS, use_dag=False)) == {
            "parse_xml": 1, "tree_classes": 1}


class TestDeterminism:
    def test_same_input_same_bytes(self):
        assert compress_xml_bytes(BOOKS) == compress_xml_bytes(BOOKS)
        data = random_xml(3, max_nodes=200)
        blobs = {compress_xml_bytes(data) for _ in range(3)}
        assert len(blobs) == 1

    def test_tree_and_bytes_paths_agree(self):
        blob = compress_tree(parse_xml(BOOKS))
        assert blob == compress_xml_bytes(BOOKS)
        assert binary_shape(decompress_tree(blob)) == binary_shape(parse_xml(BOOKS))

    def test_streams_do_not_depend_on_the_hash_seed(self, tmp_path):
        # sharing and digram tables are keyed on labels: every id must
        # follow insertion order, never the (seeded) order of str hashes
        paths = []
        for seed in range(3):
            path = tmp_path / ("doc%d.xml" % seed)
            path.write_bytes(random_xml(seed, 400))
            paths.append(str(path))
        script = (
            "import hashlib, sys\n"
            "from treerepair import compress_tree, compress_xml_bytes\n"
            "from treerepair.fixtures import gen_M, gen_U\n"
            "blobs = [compress_xml_bytes(open(p, 'rb').read(), max_rank=r)\n"
            "         for p in sys.argv[1:] for r in (1, 4, None)]\n"
            "blobs += [compress_tree(gen_M(3)), compress_tree(gen_U(10))]\n"
            "for blob in blobs:\n"
            "    print(hashlib.sha256(blob).hexdigest())\n"
        )
        digests = []
        for hash_seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", script, *paths], capture_output=True, text=True,
                env=subprocess_env(PYTHONHASHSEED=hash_seed),
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 11
        assert digests[0] == digests[1]


def profiled_calls(run):
    """``(file, function name)`` of every function ``run()`` called,
    with its call count, from cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    calls = {}
    for (path, _, name), (_, ncalls, *_) in pstats.Stats(profiler).stats.items():
        calls[path, name] = calls.get((path, name), 0) + ncalls
    return calls


def _grammar_calls(run):
    """The package's calls to the node-rewriting grammar primitives in
    ``run``, by file and name."""
    package = os.path.dirname(treerepair.__file__)
    return {(os.path.basename(path), name): n
            for (path, name), n in profiled_calls(run).items()
            if path.startswith(package)
            and name in ("share", "kill_node", "relabel", "eliminate", "new_node")}


class TestPrimitiveCalls:
    """Call counts, not wall time: symbols hash and compare in C, parsing
    labels a node without calling the characteristic enum, decoding and
    unfolding build nodes from preorders, not one call per node, sharing
    while parsing rewrites no node, and sharing in a tree makes a node per
    shared production only."""

    def test_symbols_have_no_python_level_hash_or_equality(self):
        def run():
            compress_tree(gen_M(3))
            decompress_bytes(compress_xml_bytes(BOOKS))

        package = os.path.dirname(treerepair.__file__)
        calls = profiled_calls(run)
        assert any(path.startswith(package) for path, _ in calls)
        assert {(path, name): n for (path, name), n in calls.items()
                if path.startswith(package) and name in ("__hash__", "__eq__")} == {}

    def test_parsing_makes_no_enum_call(self):
        calls = profiled_calls(lambda: parse_xml(BOOKS))
        assert {(path, name): n for (path, name), n in calls.items()
                if path == enum.__file__ and name == "__call__"} == {}
        # the check sees an enum call
        calls = profiled_calls(lambda: ChildrenCharacteristic(0b10))
        assert calls[enum.__file__, "__call__"] == 1

    def test_decoding_and_unfolding_make_no_call_per_node(self):
        def node_calls(run):
            return {(os.path.basename(path), name): n
                    for (path, name), n in profiled_calls(run).items()
                    if path.startswith(package)
                    and name in ("new_node", "set_children")}

        package = os.path.dirname(treerepair.__file__)
        blob = alias_chain_stream(4000, 4000)  # 4 002 bodies, 12 002 nodes
        assert node_calls(lambda: (decode(blob), decompress_tree(blob))) == {}
        # the check sees such calls
        assert node_calls(lambda: SlcfGrammar(Tree(), []).new_node(PARAMETER)) == {
            ("slcf_grammar.py", "new_node"): 1, ("xml_tree.py", "new_node"): 1}

    def test_sharing_while_parsing_rewrites_no_node(self):
        data = random_xml(5, 3000)
        built = []
        assert _grammar_calls(lambda: built.append(dag_grammar(parse_xml_classes(data)))) == {}
        g, = built
        assert g.nonterminal_count > 5  # subtrees were shared
        # no dead node: every node is on some production's rhs
        assert sum(g.arena.node_count(nt.root) for nt in g.productions.values()) == len(g.arena)
        assert None not in g.arena.labels
        # the check sees such calls
        g = SlcfGrammar.from_tree(parse_xml(BOOKS))
        assert _grammar_calls(lambda: g.share(g.arena.children[g.start().root][0])) == {
            ("slcf_grammar.py", "share"): 1, ("slcf_grammar.py", "new_node"): 1,
            ("xml_tree.py", "new_node"): 1, ("slcf_grammar.py", "relabel"): 1}

    def test_sharing_in_a_tree_makes_a_node_per_shared_production(self):
        # a fresh leaf for each production's first sighting, nothing else
        bt = parse_xml(random_xml(5, 3000))
        built = []
        calls = _grammar_calls(lambda: built.append(build_dag_grammar(bt)))
        g, = built
        assert g.nonterminal_count > 5  # subtrees were shared
        assert calls == {("xml_tree.py", "new_node"): g.nonterminal_count - 1}
        # nothing shared: no node is touched
        bt = gen_U(10)
        t = bt.tree
        before = list(t.labels), [list(kids) for kids in t.children], list(t.parents)
        assert _grammar_calls(lambda: built.append(build_dag_grammar(bt))) == {}
        assert built[-1].nonterminal_count == 1
        assert (t.labels, t.children, t.parents) == before


def _bench_inputs():
    """``bench/inputs.py``, the bench's seeded document makers."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", os.path.join(root, "bench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWorkPerNode:
    """The linear-time claim as call counts, which do not depend on the
    host: the Python and builtin calls (cProfile) that compressing and
    then decompressing make per input node do not grow when the input
    doubles.  Per node they fall slowly with size; at rank infinity the M
    shape's count swings with depth parity, so depth d is compared with
    d + 2."""

    @staticmethod
    def tree_work(bt):
        return (lambda: decompress_tree(compress_tree(bt))), bt.node_count

    @staticmethod
    def xml_work(data, max_rank):
        return ((lambda: decompress_bytes(compress_xml_bytes(data, max_rank))),
                parse_xml(data).node_count)

    @pytest.mark.parametrize("family", ["gen_U", "mtree rank 4", "mtree rank inf",
                                        "records"])
    def test_calls_per_node_do_not_grow(self, family):
        inputs = _bench_inputs()
        work, small, large = {
            "gen_U": (lambda n: self.tree_work(gen_U(n)), 11, 12),
            "mtree rank 4": (lambda d: self.xml_work(inputs.mtree(d), 4), 9, 10),
            "mtree rank inf": (lambda d: self.xml_work(inputs.mtree(d), None), 10, 12),
            "records": (lambda kb: self.xml_work(inputs.records(1, kb * 1000), 4), 100, 200),
        }[family]
        per_node = []
        for size in (small, large):
            run, nodes = work(size)
            per_node.append(sum(profiled_calls(run).values()) / nodes)
        assert per_node[1] <= 1.05 * per_node[0], (
            "calls per node %.2f at %s, %.2f at %s" % (per_node[0], small, per_node[1], large))
