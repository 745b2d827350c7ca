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

from .xml_tree import (BinaryTree, UnsupportedInputError, element_children,
                       parse_xml, parse_xml_classes)
from .slcf_grammar import DEFAULT_NODE_CAP, GrammarError, SlcfGrammar
from .dag_builder import (dag_edges, dag_grammar, hash_cons, shared_classes,
                          tree_classes, tree_dag_grammar)
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


def _tree_grammar(bt, max_rank, optimize, use_dag, hashed=None):
    """``build_grammar`` after its flag check; ``hashed`` is
    ``tree_classes(bt)`` if made already."""
    if not use_dag:
        return _reduce(SlcfGrammar.from_tree(bt), None, max_rank, optimize)
    classes, nodes, cls = hashed or tree_classes(bt)
    return _reduce(tree_dag_grammar(bt, classes, nodes, cls), classes.edge_count,
                   max_rank, optimize)


def build_grammar(bt: BinaryTree, max_rank=4, optimize="filesize",
                  use_dag=True) -> SlcfGrammar:
    """Run the grammar construction on a tree (consumes its arena)."""
    check_flags(max_rank, optimize)
    return _tree_grammar(bt, max_rank, optimize, use_dag)


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


def gather_stats(data, max_rank=4, optimize="filesize", use_dag=True) -> dict:
    """Compress XML bytes and report size measures of every stage.

    Keys appear in report order; values are ints except for the two
    percentage factors and the wall-clock time.
    """
    started = time.perf_counter()
    check_flags(max_rank, optimize)
    bt = parse_xml(data)
    # the binary DAG's figures come from the classes the grammar is built from
    hashed = classes, nodes, _ = tree_classes(bt)
    stats = {
        "input bytes": len(data),
        "binary tree edges": classes.edge_count,
        "binary mdag edges": dag_edges(classes.keys),
        "binary mdag nonterminals": 1 + len(shared_classes(classes.keys)),  # and the start
    }

    # element children are binary descendants: the one postorder serves both
    t = bt.tree
    element_kids = [element_children(t, v) for v in range(len(t))]
    names = [label.name for label in t.labels]
    _, keys, _ = hash_cons(nodes, element_kids, names, {})
    stats["unranked mdag edges"] = dag_edges(keys)
    stats["unranked mdag nodes"] = len(keys)

    g = _tree_grammar(bt, max_rank, optimize, use_dag, hashed)
    out = encode(g)
    stats["grammar edges"] = g.grammar_size()
    stats["grammar nonterminals"] = g.nonterminal_count
    stats["edge factor %"] = 100.0 * stats["grammar edges"] / stats["binary tree edges"]
    stats["output bytes"] = len(out)
    stats["file size factor %"] = 100.0 * len(out) / len(data)
    stats["wall ms"] = 1000.0 * (time.perf_counter() - started)
    return stats
