"""End-to-end compression pipeline and statistics.

Compression: XML bytes -> binary tree -> (optionally) minimal DAG grammar
-> digram replacement -> pruning -> succinct bit stream.  Decompression
decodes the grammar and derives its value's terminals in preorder,
evaluating productions bottom-up; ``decompress_bytes`` writes the XML tags
from them without a tree, and ``decompress_tree`` builds the tree from
them.
"""

from __future__ import annotations

import time
from collections import Counter

from .xml_tree import (BinaryTree, UnsupportedInputError, element_children,
                       parse_xml)
from .slcf_grammar import DEFAULT_NODE_CAP, GrammarError, SlcfGrammar
from .dag_builder import build_dag_grammar, hash_cons
from .digram_index import build_index
from .replacer import run_replacement_step
from .pruner import EDGES_THRESHOLD, FILESIZE_THRESHOLD, prune
from .succinct_coder import DecodeError, encode
from .succinct_decoder import decode_with_census

OPTIMIZE_THRESHOLDS = {
    "edges": EDGES_THRESHOLD,
    "filesize": FILESIZE_THRESHOLD,
}


def check_flags(max_rank, optimize):
    """Raise ValueError unless the construction flags are valid."""
    if optimize not in OPTIMIZE_THRESHOLDS:
        raise ValueError("optimize must be one of %s" % sorted(OPTIMIZE_THRESHOLDS))
    if max_rank is not None and max_rank < 0:
        raise ValueError("max_rank must not be negative")


def build_grammar(bt: BinaryTree, max_rank=4, optimize="filesize",
                  use_dag=True) -> SlcfGrammar:
    """Run the grammar construction on a tree (consumes its arena)."""
    check_flags(max_rank, optimize)
    n_edges = bt.edge_count
    if use_dag:
        g = build_dag_grammar(bt)
    else:
        g = SlcfGrammar.from_tree(bt)
    idx = build_index(g, n_edges=n_edges, max_rank=max_rank)
    run_replacement_step(g, idx)
    prune(g, OPTIMIZE_THRESHOLDS[optimize])
    return g


def compress_tree(bt: BinaryTree, max_rank=4, optimize="filesize",
                  use_dag=True) -> bytes:
    return encode(build_grammar(bt, max_rank, optimize, use_dag))


def compress_xml_bytes(data, max_rank=4, optimize="filesize",
                       use_dag=True) -> bytes:
    check_flags(max_rank, optimize)
    return compress_tree(parse_xml(data), max_rank, optimize, use_dag)


def decompress_tree(data: bytes, node_cap=DEFAULT_NODE_CAP) -> BinaryTree:
    """Compressed stream back to the binary tree, by unfolding the grammar."""
    g, census = decode_with_census(data)
    try:
        return g.unfold_value(node_cap, census)
    except GrammarError as exc:
        raise DecodeError(str(exc)) from None


def decompress_bytes(data: bytes, node_cap=DEFAULT_NODE_CAP) -> bytes:
    """Compressed stream back to XML bytes, written from the grammar."""
    g, census = decode_with_census(data)
    try:
        return g.write_xml(node_cap, census)
    except (GrammarError, UnsupportedInputError) as exc:
        raise DecodeError(str(exc)) from None


def _mdag_sizes(nodes, kids, labels):
    """Sizes of the minimal DAG of a tree, by ``hash_cons`` over its
    ``nodes`` listed children before parents.

    Returns the DAG's node count, its edge count and the number of its
    non-leaf nodes with in-degree two or more (the subtrees a DAG grammar
    needs a production for).
    """
    _, keys = hash_cons(nodes, kids, labels)
    indegree = Counter(d for _, *ks in keys for d in ks)
    shared = sum(1 for i, key in enumerate(keys) if len(key) > 1 and indegree[i] >= 2)
    return len(keys), sum(indegree.values()), shared


def gather_stats(data, max_rank=4, optimize="filesize", use_dag=True) -> dict:
    """Compress XML bytes and report size measures of every stage.

    Keys appear in report order; values are ints except for the two
    percentage factors and the wall-clock time.
    """
    started = time.perf_counter()
    check_flags(max_rank, optimize)
    bt = parse_xml(data)
    stats = {
        "input bytes": len(data),
        "binary tree edges": bt.edge_count,
    }

    t = bt.tree
    # element children are binary descendants: one postorder serves both
    order = list(t.iter_postorder(bt.root))
    _, edges, shared = _mdag_sizes(order, t.children, t.labels)
    stats["binary mdag edges"] = edges
    stats["binary mdag nonterminals"] = 1 + shared  # the start production

    element_kids = [element_children(t, v) for v in range(len(t))]
    names = [label.name for label in t.labels]
    nodes, edges, _ = _mdag_sizes(order, element_kids, names)
    stats["unranked mdag edges"] = edges
    stats["unranked mdag nodes"] = nodes

    g = build_grammar(bt, max_rank, optimize, use_dag)
    out = encode(g)
    stats["grammar edges"] = g.grammar_size()
    stats["grammar nonterminals"] = g.nonterminal_count
    stats["edge factor %"] = 100.0 * stats["grammar edges"] / stats["binary tree edges"]
    stats["output bytes"] = len(out)
    stats["file size factor %"] = 100.0 * len(out) / len(data)
    stats["wall ms"] = 1000.0 * (time.perf_counter() - started)
    return stats
