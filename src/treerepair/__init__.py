"""Linear tree grammar compression for XML element structures.

The pipeline reads an XML document, models its element structure as a
binary tree (first-child/next-sibling), optionally shares repeated
subtrees into a minimal DAG, repeatedly replaces the most frequent
parent/child label pair by a fresh nonterminal, prunes unprofitable
productions, and writes the resulting grammar as a succinct bit stream.
"""

from .xml_tree import (
    BinaryTree,
    ChildrenCharacteristic,
    ParseError,
    TerminalSymbol,
    Tree,
    UnsupportedInputError,
    parse_xml,
)
from .slcf_grammar import (PARAMETER, GrammarError, Nonterminal, SlcfGrammar,
                           serialize_xml)
from .dag_builder import build_dag_grammar
from .digram_index import DigramIndex, build_index
from .replacer import run_replacement_step
from .pruner import EDGES_THRESHOLD, FILESIZE_THRESHOLD, prune
from .succinct_coder import DecodeError, EncodeError, encode
from .succinct_decoder import decode
from .pipeline import (
    build_grammar,
    compress_tree,
    compress_xml_bytes,
    decompress_bytes,
    decompress_tree,
    gather_stats,
)
from . import fixtures

__version__ = "0.1.0"

__all__ = [
    "BinaryTree",
    "ChildrenCharacteristic",
    "DigramIndex",
    "EDGES_THRESHOLD",
    "FILESIZE_THRESHOLD",
    "DecodeError",
    "EncodeError",
    "GrammarError",
    "Nonterminal",
    "PARAMETER",
    "ParseError",
    "SlcfGrammar",
    "TerminalSymbol",
    "Tree",
    "UnsupportedInputError",
    "build_dag_grammar",
    "build_grammar",
    "build_index",
    "compress_tree",
    "compress_xml_bytes",
    "decode",
    "decompress_bytes",
    "decompress_tree",
    "encode",
    "fixtures",
    "gather_stats",
    "parse_xml",
    "prune",
    "run_replacement_step",
    "serialize_xml",
]
