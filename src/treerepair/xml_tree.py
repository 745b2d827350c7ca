"""Binary tree model of an XML document's element structure.

An XML element tree is unranked: a node may have any number of children.
The compressor works on ranked trees, so the element structure is encoded
as a binary tree via the first-child/next-sibling rule: child 1 of a node
is its first child in the document, child 2 is its next sibling.  Which of
the two links a node actually has is recorded in a two-bit children
characteristic attached to its label, making the alphabet ranked (an
element type can occur under several characteristics, each a distinct
symbol).
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from xml.parsers import expat

# Byte value used as the name terminator in the succinct coding; element
# names must not contain it.
ETX = 0x03

# The name rule: a terminal name is not empty and has no character below
# U+0020, so none holds the ETX that ends a name in the succinct coding.
# ``TerminalSymbol`` and the decoder's bulk read of the names both find
# such a character with ``LOW_CHAR``, whose search of a name that keeps
# the rule makes no match object.
LOW_CHAR = re.compile(r"[\x00-\x1f]")


class ParseError(ValueError):
    """Malformed XML input.  Carries the expat position when available."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column)
        super().__init__(message)
        self.line = line
        self.column = column


class UnsupportedInputError(ValueError):
    """Well-formed input outside the supported fragment (e.g. a lone root)."""


class ChildrenCharacteristic(enum.IntEnum):
    """Two-bit code for which binary children a node has.

    The high bit says the node has a first child (a "left" binary child),
    the low bit says it has a next sibling (a "right" binary child).
    """

    NO_CHILDREN = 0b00
    NO_LEFT_CHILD = 0b01    # only a next sibling
    NO_RIGHT_CHILD = 0b10   # only a first child
    TWO_CHILDREN = 0b11

    # int operators on the member: ``.value`` is a Python-level descriptor
    @property
    def rank(self) -> int:
        return (self >> 1) + (self & 1)

    @property
    def bits(self) -> str:
        return format(self.value, "02b")


class TerminalSymbol(namedtuple("TerminalSymbol", "name characteristic rank")):
    """Ranked alphabet symbol.

    XML-derived symbols pair an element name with a children
    characteristic; the rank is the characteristic's. Symbols for
    synthetic trees may instead carry an explicit rank and no
    characteristic (such grammars cannot be written to the succinct
    format, which stores characteristics).

    A symbol is the tuple ``(name, characteristic, rank)``: equality is
    structural, a symbol equals that plain tuple and hashes like it, and
    both run in C, as symbols key every digram, sharing and id lookup.
    Being a tuple, a symbol must never be the lone operand of ``%``;
    format it as ``% (sym,)``.
    """

    __slots__ = ()

    def __new__(cls, name, characteristic=None, *, rank=None):
        if not name:
            raise ValueError("empty terminal name")
        if LOW_CHAR.search(name):
            raise ValueError("control character in terminal name: %r" % name)
        if (characteristic is None) == (rank is None):
            raise ValueError("give exactly one of characteristic and rank")
        if rank is None:
            rank = characteristic.rank
        return tuple.__new__(cls, (name, characteristic, rank))

    def __getnewargs_ex__(self):
        # copy and pickle make a symbol through __new__
        if self.characteristic is None:
            return (self.name,), {"rank": self.rank}
        return (self.name, self.characteristic), {}

    def __repr__(self):
        if self.characteristic is None:
            return "%s/%d" % (self.name, self.rank)
        return "%s^%s" % (self.name, self.characteristic.bits)


class Tree:
    """Arena of ranked tree nodes with integer links.

    Several roots may live in one arena; the grammar keeps every
    production right-hand side in a single shared arena so nodes can move
    between productions without copying.  The arena holds structure only;
    the digram index keeps its occurrence lists in arrays of its own.
    """

    __slots__ = ("labels", "parents", "pindex", "children")

    def __init__(self):
        self.labels = []
        self.parents = []   # -1 for roots
        self.pindex = []    # 1-based position in parent's child list
        self.children = []

    def __len__(self):
        return len(self.labels)

    def new_node(self, label):
        v = len(self.labels)
        self.labels.append(label)
        self.parents.append(-1)
        self.pindex.append(0)
        self.children.append([])
        return v

    def set_children(self, v, kids):
        """Attach ``kids`` as v's children."""
        self.children[v] = kids
        parents = self.parents
        pindex = self.pindex
        for i, c in enumerate(kids):
            parents[c] = v
            pindex[c] = i + 1

    def put(self, p, i, v):
        """Make v the i-th (1-based) child of p, replacing the old one."""
        self.children[p][i - 1] = v
        self.parents[v] = p
        self.pindex[v] = i

    def kill(self, v):
        """Mark a node dead.  Links of dead nodes are meaningless.

        The child list is emptied in place rather than replaced: a
        replacement run kills a node per rewritten occurrence, and fresh
        lists would pile up uncollected in the youngest GC generation.
        """
        self.labels[v] = None
        self.parents[v] = -1
        self.children[v].clear()

    # -- traversal ---------------------------------------------------------

    def iter_postorder(self, root):
        """Nodes of the subtree hanging from ``root``, children before
        parents and left to right (``root`` comes last)."""
        children = self.children
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(children[v])
        # ``order`` lists each node before its children, right to left.
        return reversed(order)

    def preorder(self, root):
        """Labels of the subtree hanging from ``root`` in preorder: the
        form in which a subtree is read, written and rebuilt."""
        labels, children = self.labels, self.children
        out = []
        stack = [root]
        while stack:
            v = stack.pop()
            while True:  # down the first-child line, later children wait
                out.append(labels[v])
                kids = children[v]
                if not kids:
                    break
                if len(kids) > 1:
                    stack += kids[:0:-1]
                v = kids[0]
        return out

    def add_preorder(self, labels):
        """Append the trees whose preorders, one after another, are
        ``labels`` (a rhs's children are copied in one call); returns
        their roots.  The nodes take consecutive ids in preorder, and one
        reverse pass over a stack of finished subtrees links each node to
        as many children as its label's rank."""
        n = len(labels)
        v = len(self.labels) + n
        self.labels += labels
        parents, pindex = self.parents, self.pindex
        parents += [-1] * n
        pindex += [0] * n
        lists = []
        stack = []
        for label in reversed(labels):
            v -= 1
            rank = label.rank
            kids = stack[:-rank - 1:-1]  # v's first child was pushed last
            if rank:
                del stack[-rank:]
                i = 0
                for c in kids:
                    i += 1
                    parents[c] = v
                    pindex[c] = i
            lists.append(kids)
            stack.append(v)
        lists.reverse()
        self.children += lists
        return stack[::-1]

    # -- measures ----------------------------------------------------------

    def node_count(self, root):
        return len(self.preorder(root))

    def edge_count(self, root):
        return self.node_count(root) - 1


class BinaryTree:
    """A rooted binary-model tree plus its alphabet in first-use order."""

    __slots__ = ("tree", "root", "terminal_order")

    def __init__(self, tree, root, terminal_order):
        self.tree = tree
        self.root = root
        self.terminal_order = terminal_order

    @property
    def edge_count(self):
        return self.tree.edge_count(self.root)

    @property
    def node_count(self):
        return self.tree.node_count(self.root)


class SubtreeClasses(namedtuple("SubtreeClasses", "keys repeats terminal_order")):
    """The equality classes of a binary tree's subtrees: what
    ``dag_builder.dag_grammar`` builds the minimal-DAG grammar from.

    Class ids follow first sighting in binary postorder (children before
    parents, left to right), so a child's class id is below its parent's
    and the root's class is the last.  ``keys[c]`` is ``(label id, *child
    class ids)``, a label's id being its place in ``terminal_order``.
    ``repeats`` lists, in postorder, the class of every sighting after a
    class's first, so the tree has ``len(keys) + len(repeats)`` nodes.
    """

    __slots__ = ()

    @property
    def edge_count(self):
        return len(self.keys) + len(self.repeats) - 1


def _symbol_table():
    """``(intern, order)``: ``intern(name, bits)`` is the id of the symbol
    with that name and characteristic bits, made on its first use, and
    ``order`` lists the symbols by id, so in first-use order.  The
    characteristic comes from a table, not from an enum call."""
    characteristics = tuple(ChildrenCharacteristic)
    ids = {}
    order = []

    def intern(name, bits):
        i = ids.get((name, bits))
        if i is None:
            i = ids[name, bits] = len(order)
            order.append(TerminalSymbol(name, characteristics[bits]))
        return i

    return intern, order


def _read_elements(data, on_start, on_end):
    """Run expat over ``data`` (bytes, or str as UTF-8) with these element
    handlers; text, attributes, comments and processing instructions are
    dropped.  An expat error raises ParseError at its position."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    parser = expat.ParserCreate()
    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    try:
        parser.Parse(data, True)
    except expat.ExpatError as e:
        raise ParseError(expat.errors.messages[e.code], e.lineno, e.offset) from e


def _check_element_count(n):
    if n < 2:
        raise UnsupportedInputError(
            "document has %d element(s); the binary model needs a root "
            "with at least one child" % n)


def parse_xml(data) -> BinaryTree:
    """Parse XML bytes into the binary tree of its element structure.

    Only element start/end events matter.  A start event makes a node and
    links it at once: an element's first child hangs from the element's
    node, a later child from its previous sibling's.  Both are the node on
    top of a stack of unlabeled nodes, one slot per open element and per
    closed child of an open element.  A node is labeled once its parent's
    end tag is seen, because only then is it known whether it has a next
    sibling; until then its label slot holds the characteristic bits its
    links have set so far.  An end tag labels the closed element's
    children last to first, and each child's own subtree was labeled at
    the child's end tag, so nodes are labeled in binary postorder (the
    root last).  Symbols are interned in first-use order, by name and
    bits; the root's symbol is interned at its start tag, as it never has
    a next sibling, so it is the first symbol in the order.
    ``parse_xml_classes`` reads the same events into subtree classes
    instead of nodes.
    """
    tree = Tree()
    labels, parents, pindex, children = tree.labels, tree.parents, tree.pindex, tree.children
    intern, order = _symbol_table()

    unlabeled = []
    names = []    # the element name of each unlabeled node
    counts = []   # child elements started so far, per open element

    def on_start(name, attrs):
        u = len(labels)
        if counts:
            v = unlabeled[-1]
            n = counts[-1]
            counts[-1] = n + 1
            labels[v] += 0b01 if n else 0b10
            kids = children[v]
            kids.append(u)
            parents.append(v)
            pindex.append(len(kids))
        else:
            intern(name, 0b10)
            parents.append(-1)
            pindex.append(0)
        labels.append(0)
        children.append([])
        unlabeled.append(u)
        names.append(name)
        counts.append(0)

    def on_end(name):
        for _ in range(counts.pop()):
            v = unlabeled.pop()
            labels[v] = order[intern(names.pop(), labels[v])]

    _read_elements(data, on_start, on_end)
    _check_element_count(len(labels))
    root = unlabeled.pop()
    labels[root] = order[0]
    assert not unlabeled and not counts
    return BinaryTree(tree, root, order)


def parse_xml_classes(data) -> SubtreeClasses:
    """Parse XML bytes into the subtree classes of its binary tree, making
    no node: the events of ``parse_xml``, with each node's class computed
    where ``parse_xml`` labels it, so classes are sighted in binary
    postorder.

    A node's binary subtree is its symbol over the subtrees of its first
    child and of its next sibling, so its class is keyed on its name and
    those two children's classes (None for a missing child); the name and
    which children exist give the symbol.  Per open element a list holds
    each closed child's name and the class of its first child.  At the
    end tag the children are keyed last to first, each with the class of
    the one after it as its next sibling, and the first child's class
    goes to the list of the parent.  Symbols are interned in the order
    ``parse_xml`` interns them (a symbol's first use is always a new
    class), so ``terminal_order`` is the same.  The keys hold only names,
    ints and None, so the garbage collector stops tracking them.
    """
    intern, order = _symbol_table()
    table = {}     # (name, first-child class, next-sibling class) -> class id
    keys = []
    repeats = []
    closed = []    # per open element: (name, first-child class) of each closed child
    get, sighted = table.get, repeats.append

    def on_start(name, attrs):
        if not closed:
            intern(name, 0b10)
        closed.append([])

    def on_end(name):
        kids = closed.pop()
        c = None   # the next sibling's class
        if kids:
            for kid, first in reversed(kids):
                key = kid, first, c
                d = get(key)
                if d is None:
                    d = table[key] = len(keys)
                    if first is None:
                        keys.append((intern(kid, 0b00),) if c is None
                                    else (intern(kid, 0b01), c))
                    else:
                        keys.append((intern(kid, 0b10), first) if c is None
                                    else (intern(kid, 0b11), first, c))
                else:
                    sighted(d)
                c = d
        if closed:
            closed[-1].append((name, c))
        else:   # the root, interned first
            keys.append((0,) if c is None else (0, c))

    _read_elements(data, on_start, on_end)
    _check_element_count(len(keys) + len(repeats))
    return SubtreeClasses(keys, repeats, order)

