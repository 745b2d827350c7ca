"""Input documents the benchmark makes itself.

``records``: a seeded DBLP-like bibliography document.  The document is a
``dblp`` root over bibliographic records of eight
kinds.  Each record draws a variable set of fields, carries ``key`` and
``mdate`` attributes and text content (both skipped by the compressor's
parser but paid for while parsing), and now and then nests inline markup
several levels deep inside a title or note.  About 40 distinct tag names
occur.  Records are appended until the document reaches the target size.

The same seed and size always give the same bytes.

``mtree``: the shape of ``treerepair gen M`` at any depth, a perfect
binary tree of ``f`` nodes over pairwise distinct leaves ``leaf_0``,
``leaf_1``, ... in the same XML form.  At depth 16 the bytes equal those
of ``treerepair gen M 4``; the family itself only offers depths 1, 2, 4,
8 and 16.
"""

from __future__ import annotations

import random

# kind -> (fields always present, optional fields with their probability)
KINDS = {
    "article": (("author", "title", "journal", "year"),
                (("pages", 0.9), ("volume", 0.8), ("number", 0.6),
                 ("month", 0.2), ("ee", 0.7), ("url", 0.9), ("cdrom", 0.05),
                 ("note", 0.05), ("publisher", 0.05))),
    "inproceedings": (("author", "title", "booktitle", "year"),
                      (("pages", 0.85), ("crossref", 0.8), ("ee", 0.7),
                       ("url", 0.9), ("cdrom", 0.1), ("note", 0.03))),
    "proceedings": (("editor", "title", "booktitle", "year"),
                    (("publisher", 0.9), ("series", 0.6), ("volume", 0.6),
                     ("isbn", 0.8), ("ee", 0.5), ("url", 0.9),
                     ("address", 0.3))),
    "incollection": (("author", "title", "booktitle", "year"),
                     (("pages", 0.8), ("publisher", 0.5), ("chapter", 0.3),
                      ("crossref", 0.6), ("ee", 0.5), ("url", 0.8))),
    "book": (("author", "title", "publisher", "year"),
             (("isbn", 0.9), ("series", 0.4), ("volume", 0.3),
              ("editor", 0.2), ("ee", 0.4), ("url", 0.6), ("note", 0.1))),
    "phdthesis": (("author", "title", "school", "year"),
                  (("pages", 0.4), ("isbn", 0.3), ("ee", 0.5),
                   ("note", 0.2), ("publnr", 0.1))),
    "mastersthesis": (("author", "title", "school", "year"),
                      (("ee", 0.3), ("note", 0.2))),
    "www": (("author", "title", "url"),
            (("note", 0.4), ("person", 0.3), ("cite", 0.1))),
}
KIND_WEIGHTS = (("article", 40), ("inproceedings", 45), ("proceedings", 3),
                ("incollection", 4), ("book", 2), ("phdthesis", 2),
                ("mastersthesis", 1), ("www", 6))
INLINE = ("i", "sub", "sup", "tt", "span")
WORDS = ("tree", "grammar", "compression", "xml", "query", "index", "data",
         "stream", "parallel", "graph", "model", "learning", "logic",
         "automata", "search", "network", "system", "analysis", "efficient",
         "succinct", "digram", "replacement", "linear", "structure")


class _Writer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.parts = []
        self.size = 0

    def emit(self, text: str):
        self.parts.append(text)
        self.size += len(text)

    def words(self, lo, hi):
        rng = self.rng
        return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))

    def inline_chain(self):
        """A run of nested inline tags around a word, one to five deep."""
        depth = min(1 + int(self.rng.expovariate(0.9)), 5)
        tags = [self.rng.choice(INLINE) for _ in range(depth)]
        self.emit("".join("<%s>" % t for t in tags))
        self.emit(self.words(1, 2))
        self.emit("".join("</%s>" % t for t in reversed(tags)))

    def field(self, name):
        rng = self.rng
        if name == "person":
            self.emit("<person><affiliation>%s</affiliation>" % self.words(2, 4))
            if rng.random() < 0.3:
                self.emit("<label><data>%s</data></label>" % self.words(1, 2))
            self.emit("</person>")
            return
        self.emit("<%s>" % name)
        if name in ("title", "note") and rng.random() < 0.15:
            self.emit(self.words(1, 4) + " ")
            self.inline_chain()
            self.emit(" " + self.words(0, 3))
        elif name in ("year", "volume", "number", "pages", "chapter", "publnr"):
            self.emit(str(rng.randint(1, 2010)))
        elif name in ("url", "ee"):
            self.emit("db/%s/%d.html" % (rng.choice(WORDS), rng.randint(1, 99999)))
        else:
            self.emit(self.words(1, 6))
        self.emit("</%s>" % name)

    def record(self, serial):
        rng = self.rng
        kind = rng.choices([k for k, _ in KIND_WEIGHTS],
                           weights=[w for _, w in KIND_WEIGHTS])[0]
        required, optional = KINDS[kind]
        self.emit('<%s key="%s/%d" mdate="2010-%02d-%02d">'
                  % (kind, kind, serial, rng.randint(1, 12), rng.randint(1, 28)))
        for name in required:
            repeat = 1
            if name in ("author", "editor"):
                repeat = 1 + min(int(rng.expovariate(0.6)), 11)
            for _ in range(repeat):
                self.field(name)
        for name, p in optional:
            if rng.random() < p:
                self.field(name)
        if kind in ("article", "inproceedings") and rng.random() < 0.1:
            for _ in range(rng.randint(1, 12)):
                self.emit("<cite>%s</cite>" % self.words(1, 1))
        self.emit("</%s>\n" % kind)


def records(seed: int, target_bytes: int = 1_000_000) -> bytes:
    """The document for ``seed``, closed once it reaches ``target_bytes``."""
    w = _Writer(random.Random(seed))
    w.emit('<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n')
    serial = 0
    while w.size < target_bytes:
        w.record(serial)
        serial += 1
    w.emit("</dblp>\n")
    return "".join(w.parts).encode("ascii")


def mtree(depth: int) -> bytes:
    """Perfect binary tree of ``depth`` with distinct leaves, as XML."""
    out = []
    leaf = 0
    stack = [(0, False)]
    while stack:
        d, closing = stack.pop()
        if closing:
            out.append("</f>")
        elif d == depth:
            out.append("<leaf_%d/>" % leaf)
            leaf += 1
        else:
            out.append("<f>")
            stack.append((d, True))
            stack.extend([(d + 1, False)] * 2)
    return "".join(out).encode("ascii")

