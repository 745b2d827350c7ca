"""Golden streams: pinned sha256 digests of compressed output.

Every refactor of the grammar construction is meant to keep the streams
byte-identical; this test checks that on a spread of inputs under every
flag combination, and that each stream decodes to a grammar that encodes
back to it.  A second digest pins what the decoder makes of mutated
streams, so a decoder refactor keeps every grammar, every error message
and the order in which the errors fire.  The digests are taken through
``compress_tree``; a third test checks that ``compress_xml_bytes``, which
shares subtrees while parsing, writes the same streams from the XML
inputs.  A deliberate change of the
grammars or of the stream layout re-pins the digests: run this file as
a script (``PYTHONPATH=src python tests/test_golden_streams.py``) and
paste its output over ``GOLDEN`` and ``MUTANTS_GOLDEN``.
"""

import hashlib
import random

import pytest

from treerepair import (DecodeError, compress_tree, compress_xml_bytes, decode, encode,
                        parse_xml)
from treerepair.fixtures import gen_M, gen_U

from conftest import BOOKS, random_xml
from oracles import canonical_text

XML_INPUTS = {
    "books": lambda: BOOKS,
    "random-0": lambda: random_xml(0, 400),
    "random-1": lambda: random_xml(1, 400),
    "random-2": lambda: random_xml(2, 400),
    "random-3": lambda: random_xml(3, 400),
}

INPUTS = {
    **{name: lambda make=make: parse_xml(make()) for name, make in XML_INPUTS.items()},
    "M3": lambda: gen_M(3),
    "U10": lambda: gen_U(10),
}

COMBOS = [(max_rank, optimize, use_dag)
          for max_rank in (1, 2, 4, None)
          for optimize in ("edges", "filesize")
          for use_dag in (True, False)]

GOLDEN = {
    "books": "d8c8639d46d4120979a15e862109376d77e6cfe7295ef06f30c257610541431d",
    "random-0": "1fe2b11577f8a1723807b2fa0c42c95d8e859ea095b0ded9df808551403ea720",
    "random-1": "0675d8f88c3ca98985af8c809a75f3ea49f5507b1aca4c2b56d67a30834bee25",
    "random-2": "0a2822db314550131255b252c9b3667f379fadef61878da6532e80afcef7ef2e",
    "random-3": "4ee02e33a7c06933242e7010553c98fc9cc33037c2f52351e5ac0ecdbe494dab",
    "M3": "9c7fb6c2fa2d05460603f84f942acabe44f860eedbfd5328e6d121f643448cdc",
    "U10": "168942ac4ffb76db27002389493de3b5b1ca12f9557e9fa8d4c617e8b276505e",
}

MUTANTS_GOLDEN = "7200eb09366b7fcc384e8cb6155c26c133d6a0bd1b75ff72b1ebc6a1bdeb419b"


def streams(make_tree):
    """The stream of every flag combination, in order."""
    return [compress_tree(make_tree(), max_rank, optimize, use_dag)
            for max_rank, optimize, use_dag in COMBOS]


def streams_digest(blobs):
    """One digest over ``blobs``."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_streams_match_the_pinned_digests(name):
    blobs = streams(INPUTS[name])
    assert streams_digest(blobs) == GOLDEN[name]
    # the decoder reads back the grammar the encoder wrote
    for blob in blobs:
        assert encode(decode(blob)) == blob


@pytest.mark.parametrize("name", sorted(XML_INPUTS))
def test_xml_path_writes_the_tree_path_streams(name):
    xml = XML_INPUTS[name]()
    for combo in COMBOS:
        assert compress_xml_bytes(xml, *combo) == compress_tree(parse_xml(xml), *combo), combo


def mutant_outcomes_digest():
    """One digest over what ``decode`` makes of 2 000 seeded mutants of
    the streams of every input at the first and the last flag combination:
    the grammar's canonical text or the DecodeError message.

    A mutant is the blob cut at a random byte (one in four) or with one
    to three random bits flipped.
    """
    blobs = [compress_tree(make(), *combo)
             for make in INPUTS.values() for combo in (COMBOS[0], COMBOS[-1])]
    rng = random.Random(2010)
    h = hashlib.sha256()
    for _ in range(2000):
        victim = bytearray(rng.choice(blobs))
        if rng.random() < 0.25:
            del victim[rng.randrange(len(victim)):]
        else:
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(8 * len(victim))
                victim[pos // 8] ^= 1 << (7 - pos % 8)
        try:
            outcome = "grammar\n" + canonical_text(decode(bytes(victim)))
        except DecodeError as exc:
            outcome = "error\n" + str(exc)
        h.update(outcome.encode("utf-8") + b"\0")
    return h.hexdigest()


def test_mutant_outcomes_match_the_pinned_digest():
    assert mutant_outcomes_digest() == MUTANTS_GOLDEN


if __name__ == "__main__":
    for name, make in INPUTS.items():
        print('    "%s": "%s",' % (name, streams_digest(streams(make))))
    print('MUTANTS_GOLDEN = "%s"' % mutant_outcomes_digest())
