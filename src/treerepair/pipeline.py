"""End-to-end compression pipeline and statistics.

Compression: XML bytes -> binary tree -> (optionally) minimal DAG grammar
-> digram replacement -> pruning -> succinct bit stream.  Decompression
decodes the grammar and derives its value's terminals in preorder in one
walk; ``decompress_bytes`` writes the XML tags from them without a tree,
and ``decompress_tree`` builds the tree from them.
"""

from __future__ import annotations

import time

from .xml_tree import (BinaryTree, UnsupportedInputError, element_children,
                       parse_xml)
from .slcf_grammar import DEFAULT_NODE_CAP, GrammarError, SlcfGrammar
from .dag_builder import build_dag_grammar
from .digram_index import build_index
from .replacer import run_replacement_step
from .pruner import EDGES_THRESHOLD, FILESIZE_THRESHOLD, prune
from .succinct_coder import DecodeError, encode
from .succinct_decoder import decode

OPTIMIZE_THRESHOLDS = {
    "edges": EDGES_THRESHOLD,
    "filesize": FILESIZE_THRESHOLD,
}


def build_grammar(bt: BinaryTree, max_rank=4, optimize="filesize",
                  use_dag=True) -> SlcfGrammar:
    """Run the grammar construction on a tree (consumes its arena)."""
    if optimize not in OPTIMIZE_THRESHOLDS:
        raise ValueError("optimize must be one of %s" % sorted(OPTIMIZE_THRESHOLDS))
    if max_rank is not None and max_rank < 0:
        raise ValueError("max_rank must not be negative")
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
    return compress_tree(parse_xml(data), max_rank, optimize, use_dag)


def decompress_tree(data: bytes, node_cap=DEFAULT_NODE_CAP) -> BinaryTree:
    """Compressed stream back to the binary tree, by unfolding the grammar."""
    g = decode(data)
    try:
        return g.unfold_value(node_cap)
    except GrammarError as exc:
        raise DecodeError(str(exc)) from None


def decompress_bytes(data: bytes, node_cap=DEFAULT_NODE_CAP) -> bytes:
    """Compressed stream back to XML bytes, written from the grammar."""
    g = decode(data)
    try:
        return g.write_xml(node_cap)
    except (GrammarError, UnsupportedInputError) as exc:
        raise DecodeError(str(exc)) from None


def _mdag_sizes(root, kids, label):
    """Sizes of the minimal DAG of the tree at ``root`` by hash-consing.

    ``kids(v)`` lists v's children and ``label(v)`` gives its label.
    Returns the DAG's node count, its edge count and the number of its
    non-leaf nodes with in-degree two or more (the subtrees a DAG grammar
    needs a production for).
    """
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        ks = kids(v)
        order.append((v, ks))
        stack.extend(ks)
    table = {}
    dag_id = {}
    indegree = []
    for v, ks in reversed(order):  # children before parents
        key = (label(v), tuple(dag_id[c] for c in ks))
        hit = table.get(key)
        if hit is None:
            hit = table[key] = len(table)
            indegree.append(0)
            for d in key[1]:
                indegree[d] += 1
        dag_id[v] = hit
    n_edges = sum(len(ks) for _, ks in table)
    shared = sum(1 for (_, ks), n in zip(table, indegree) if ks and n >= 2)
    return len(table), n_edges, shared


def gather_stats(data, max_rank=4, optimize="filesize", use_dag=True) -> dict:
    """Compress XML bytes and report size measures of every stage.

    Keys appear in report order; values are ints except for the two
    percentage factors and the wall-clock time.
    """
    started = time.perf_counter()
    bt = parse_xml(data)
    stats = {
        "input bytes": len(data),
        "binary tree edges": bt.edge_count,
    }

    t = bt.tree
    _, edges, shared = _mdag_sizes(bt.root, t.children.__getitem__,
                                   t.labels.__getitem__)
    stats["binary mdag edges"] = edges
    stats["binary mdag nonterminals"] = 1 + shared  # the start production

    nodes, edges, _ = _mdag_sizes(bt.root, lambda v: element_children(t, v),
                                  lambda v: t.labels[v].name)
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
