"""End-to-end compression pipeline and statistics.

Compression: XML bytes -> grammar -> digram replacement -> pruning ->
succinct bit stream.  With sharing on, the grammar is the minimal DAG,
built from the subtree classes found while parsing, and no tree is made;
without it, the grammar is the binary tree as its one production.
Decompression decodes the grammar and derives its value's terminals in
preorder, evaluating productions bottom-up; ``decompress_bytes`` writes
the XML tags from them without a tree, and ``decompress_tree`` builds the
tree from them.
"""

from __future__ import annotations

import time

from .xml_tree import (BinaryTree, UnsupportedInputError, parse_xml,
                       parse_xml_classes)
from .slcf_grammar import DEFAULT_NODE_CAP, GrammarError, SlcfGrammar
from .dag_builder import (dag_edges, dag_grammar, shared_classes, tree_classes,
                          tree_dag_grammar)
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


def _reduce(g, n_edges, max_rank, optimize):
    """Digram replacement and pruning on ``g``, whose value has
    ``n_edges`` edges (None: ``g`` is that tree)."""
    idx = build_index(g, n_edges=n_edges, max_rank=max_rank)
    run_replacement_step(g, idx)
    prune(g, OPTIMIZE_THRESHOLDS[optimize])
    return g


def build_grammar(bt: BinaryTree, max_rank=4, optimize="filesize",
                  use_dag=True) -> SlcfGrammar:
    """Run the grammar construction on a tree (consumes its arena)."""
    check_flags(max_rank, optimize)
    if not use_dag:
        return _reduce(SlcfGrammar.from_tree(bt), None, max_rank, optimize)
    classes, nodes, cls = tree_classes(bt)
    return _reduce(tree_dag_grammar(bt, classes, nodes, cls), classes.edge_count,
                   max_rank, optimize)


def compress_tree(bt: BinaryTree, max_rank=4, optimize="filesize",
                  use_dag=True) -> bytes:
    return encode(build_grammar(bt, max_rank, optimize, use_dag))


def compress_xml_bytes(data, max_rank=4, optimize="filesize",
                       use_dag=True) -> bytes:
    """Compress XML bytes; with ``use_dag``, subtrees are shared while
    parsing (``parse_xml_classes``) and no tree is made."""
    check_flags(max_rank, optimize)
    if use_dag:
        classes = parse_xml_classes(data)
        return encode(_reduce(dag_grammar(classes), classes.edge_count, max_rank, optimize))
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


def _unranked_dag_sizes(classes):
    """``(edges, nodes)`` of the minimal DAG of the unranked element tree
    whose binary tree has the subtree classes ``classes``.

    An element's children are the forest that its first child's binary
    subtree encodes, so its class is the pair (name, first-child class or
    None), and its child count is the length of that class's next-sibling
    chain, found in one pass in id order: a sibling's id is the lower.
    """
    labels = classes.terminal_order
    chain = []      # per class: its next-sibling chain's length, itself included
    children = {}   # (name, first-child class) -> child count
    for key in classes.keys:
        label = labels[key[0]]
        links = label.characteristic
        chain.append(chain[key[-1]] + 1 if links & 0b01 else 1)
        first = key[1] if links & 0b10 else None
        children[label.name, first] = 0 if first is None else chain[first]
    return sum(children.values()), len(children)


def gather_stats(data, max_rank=4, optimize="filesize", use_dag=True) -> dict:
    """Compress XML bytes as ``compress_xml_bytes`` does and report size
    measures of every stage, all from the one set of subtree classes.

    Keys appear in report order; values are ints except for the two
    percentage factors and the wall-clock time.
    """
    started = time.perf_counter()
    check_flags(max_rank, optimize)
    if use_dag:
        classes = parse_xml_classes(data)
        g, n_edges = dag_grammar(classes), classes.edge_count
    else:
        bt = parse_xml(data)
        classes = tree_classes(bt)[0]
        g, n_edges = SlcfGrammar.from_tree(bt), None
    keys = classes.keys
    unranked_edges, unranked_nodes = _unranked_dag_sizes(classes)
    stats = {
        "input bytes": len(data),
        "binary tree edges": classes.edge_count,
        "binary mdag edges": dag_edges(keys),
        "binary mdag nonterminals": 1 + len(shared_classes(keys)),  # and the start
        "unranked mdag edges": unranked_edges,
        "unranked mdag nodes": unranked_nodes,
    }

    out = encode(_reduce(g, n_edges, max_rank, optimize))
    stats["grammar edges"] = g.grammar_size()
    stats["grammar nonterminals"] = g.nonterminal_count
    stats["edge factor %"] = 100.0 * stats["grammar edges"] / stats["binary tree edges"]
    stats["output bytes"] = len(out)
    stats["file size factor %"] = 100.0 * len(out) / len(data)
    stats["wall ms"] = 1000.0 * (time.perf_counter() - started)
    return stats
