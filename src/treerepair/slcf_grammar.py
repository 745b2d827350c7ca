"""Straight-line context-free tree grammars with parameters.

Every nonterminal has exactly one production A(y_1..y_k) -> t, where t is
a ranked tree over terminals, previously defined nonterminals and parameter
leaves, so one ``Nonterminal`` object is both: it holds its rhs root and
the nodes that reference it.  The grammar is linear (each parameter occurs
exactly once in t) and acyclic, so it derives exactly one tree, its value.
The i-th parameter corresponds to the i-th parameter leaf of t in
preorder, so the single symbol ``y`` suffices for all parameter
occurrences.

All right-hand sides live in one shared node arena.  Sharing and
elimination rewrite a reference node in place: the node a subtree hangs
from keeps its identity, and with it the parent edge that the digram index
names by it; only labels and child lists change.  A rhs is read and made
as its preorder label list (``Tree.preorder``, ``new_tree``).

One function, ``_derive``, lists the value's terminals in preorder for
the tree builder and the tag writer alike.  After the value-size check
has sized every production, it evaluates productions bottom-up, each
once, as the terminal segments of its value around its parameter holes,
as long as the copies stay within ``COPY_BUDGET`` times the value's size;
it walks every other production at each use.
"""

from __future__ import annotations

import heapq

from .xml_tree import (BinaryTree, ChildrenCharacteristic, TerminalSymbol, Tree,
                       UnsupportedInputError)


class ParameterSymbol:
    """The formal parameter leaf symbol (one shared instance)."""

    __slots__ = ()
    rank = 0
    name = "y"

    def __repr__(self):
        return "y"


PARAMETER = ParameterSymbol()

# Default bound on the size of a derived value; a corrupted stream can
# describe a tree exponentially larger than itself.
DEFAULT_NODE_CAP = 2 ** 24

# Bound on the terminals that evaluating productions once copies, the
# value's own included, as a multiple of the value's size: evaluating
# every production of a chain of single-use ones copies quadratically many.
COPY_BUDGET = 2


class Nonterminal:
    """Grammar nonterminal, which is also its one production A(y..) -> t.
    Identity object; compared by ``is``.

    ``root`` is the rhs root node, set by ``SlcfGrammar.add_production``.
    ``refs`` is the ordered set of nodes labeled by the nonterminal;
    reference order is insertion order, which all downstream processing
    relies on for determinism.  ``is_dag`` marks nonterminals of the DAG
    namespace (rank 0, created by subtree sharing or by splitting a shared
    production during replacement).  Digram keys see through such a
    reference to the root label of its right-hand side; all other
    nonterminals are opaque symbols.
    """

    __slots__ = ("id", "rank", "is_dag", "root", "refs")

    def __init__(self, nid, rank, is_dag):
        self.id = nid
        self.rank = rank
        self.is_dag = is_dag
        self.root = None
        self.refs = {}

    def __repr__(self):
        return "A_%d" % self.id


class GrammarError(ValueError):
    pass


def rhs_census(labels):
    """``(terminal count, {referenced id: uses})`` of the rhs whose
    preorder is ``labels``; parameters count in neither, and referenced
    ids come in order of first use."""
    count = 0
    used = {}
    for label in labels:
        if label.__class__ is Nonterminal:
            used[label.id] = used.get(label.id, 0) + 1
        elif label is not PARAMETER:
            count += 1
    return count, used


class SlcfGrammar:
    """Grammar over a shared arena.

    ``productions`` maps a nonterminal id to its nonterminal, in creation
    order (ids ascend in it); ``root_to_prod`` maps a rhs root node to the
    nonterminal it belongs to.
    """

    def __init__(self, arena: Tree, terminal_order):
        self.arena = arena
        self.terminal_order = list(terminal_order)
        self.productions = {}     # nt id -> Nonterminal
        self.root_to_prod = {}    # rhs root node id -> Nonterminal
        self.start_id = None
        self._next_id = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_tree(cls, bt: BinaryTree):
        """Wrap a tree as the single start production S -> t."""
        g = cls(bt.tree, bt.terminal_order)
        s = g.new_nonterminal(0, is_dag=False)
        g.add_production(s, bt.root, start=True)
        return g

    def new_nonterminal(self, rank, is_dag):
        nt = Nonterminal(self._next_id, rank, is_dag)
        self._next_id += 1
        return nt

    def add_production(self, nt, root, start=False):
        nt.root = root
        self.productions[nt.id] = nt
        self.root_to_prod[root] = nt
        self.arena.parents[root] = -1
        if start:
            self.start_id = nt.id

    def start(self) -> Nonterminal:
        return self.productions[self.start_id]

    @property
    def nonterminal_count(self):
        return len(self.productions)

    # -- label/reference bookkeeping -----------------------------------------

    def new_node(self, label):
        v = self.arena.new_node(label)
        if isinstance(label, Nonterminal):
            label.refs[v] = None
        return v

    def new_tree(self, labels):
        """Build the trees whose preorders are ``labels`` with
        ``Tree.add_preorder`` and register their references in creation
        order; returns the roots."""
        first = len(self.arena.labels)
        roots = self.arena.add_preorder(labels)
        for v, label in enumerate(labels, first):
            if label.__class__ is Nonterminal:
                label.refs[v] = None
        return roots

    def relabel(self, v, label):
        labels = self.arena.labels
        old = labels[v]
        if old.__class__ is Nonterminal:
            del old.refs[v]
        labels[v] = label
        if label.__class__ is Nonterminal:
            label.refs[v] = None

    def kill_node(self, v):
        label = self.arena.labels[v]
        if label.__class__ is Nonterminal:
            del label.refs[v]
        self.arena.kill(v)

    def resolve_label(self, label):
        """Digram-key view of a label: DAG references show their rhs root."""
        if label.__class__ is Nonterminal and label.is_dag:
            return self.arena.labels[label.root]
        return label

    # -- measures --------------------------------------------------------------

    def production_size(self, nt_id):
        """Edge count of the production's right-hand side."""
        return self.arena.edge_count(self.productions[nt_id].root)

    def grammar_size(self):
        return sum(self.production_size(i) for i in self.productions)

    def sav(self, nt):
        """Net growth of the grammar if ``nt`` were eliminated.

        Equivalently the saving its existence provides: with t the
        right-hand side and r = |ref|, elimination replaces r references
        (r*rank edges to arguments survive either way) by r copies of t
        and drops the production itself.
        """
        size = self.arena.edge_count(nt.root)
        return len(nt.refs) * (size - nt.rank) - size

    # -- structural queries ------------------------------------------------------

    def census(self):
        """``{id: (terminal count, {referenced id: uses})}`` per production,
        each counted by :func:`rhs_census` in the preorder of its rhs."""
        preorder = self.arena.preorder
        return {i: rhs_census(preorder(nt.root)) for i, nt in self.productions.items()}

    def hierarchical_order(self):
        """Production ids ordered referenced-before-referencing, start last.

        Ties (several productions ready at once) break toward the smaller
        creation id.  The start production necessarily comes last because
        every other nonterminal is reachable from it.
        """
        return _dependency_order(self.census())

    # -- sharing and elimination ---------------------------------------------------

    def share(self, v):
        """Make v a reference to a fresh rank-0 DAG production.

        v keeps its place under its parent and takes the new nonterminal
        as its label; a fresh node, the rhs root, takes v's former label
        and children (v must not be a production root).
        """
        t = self.arena
        nt = self.new_nonterminal(0, is_dag=True)
        root = self.new_node(t.labels[v])
        kids = t.children[v]
        t.children[v] = []
        t.set_children(root, kids)
        self.relabel(v, nt)
        self.add_production(nt, root)
        return nt

    def _substitute_parameters(self, root, args):
        """Replace the i-th preorder parameter leaf under root by args[i].

        The argument subtrees are moved, not copied.  Root is never a
        parameter leaf itself: a bare-parameter rhs is illegal, and the
        decoder rejects one.  Postorder meets the leaves left to right,
        as preorder does, and lists every node before the first move.
        """
        t = self.arena
        labels = t.labels
        n = 0
        for v in t.iter_postorder(root):
            if labels[v] is PARAMETER:
                t.put(t.parents[v], t.pindex[v], args[n])
                n += 1
                t.kill(v)
        assert n == len(args)

    def eliminate(self, nt):
        """Remove a non-start production, substituting its rhs at each use.

        Each reference node takes the rhs root's label; the last one gets
        the root's children (a splice), any earlier ones copies of them,
        built from the rhs's preorder.  With a single reference this moves
        nodes without copying, so reference counts of all other
        nonterminals are unchanged.
        """
        if nt.id == self.start_id:
            raise GrammarError("cannot eliminate the start production")
        t = self.arena
        del self.productions[nt.id]
        root = nt.root
        del self.root_to_prod[root]
        label = t.labels[root]
        ref_nodes = list(nt.refs)
        if len(ref_nodes) > 1:
            below_root = t.preorder(root)[1:]
        for k, r in enumerate(ref_nodes):
            args = t.children[r]
            self.relabel(r, label)
            if k == len(ref_nodes) - 1:
                kids = t.children[root]
                t.children[root] = []  # kill clears the list in place
            else:
                kids = self.new_tree(below_root)
            t.set_children(r, kids)
            if nt.rank:
                self._substitute_parameters(r, args)
        self.kill_node(root)

    def splice_single_refs(self):
        """Eliminate every non-start production referenced exactly once.

        Splicing moves nodes without copying, so it never changes the
        reference count of any other nonterminal; one pass in id order
        suffices.
        """
        for nt in [nt for i, nt in self.productions.items() if i != self.start_id]:
            if len(nt.refs) == 1:
                self.eliminate(nt)

    # -- derivation --------------------------------------------------------------

    def _check_value_size(self, node_cap, census=None):
        """Raise GrammarError unless the value has at most ``node_cap`` nodes,
        and plan its derivation.

        The bound is the SLP length computation: bottom-up, a production's
        value counts its rhs terminals plus the values of the productions it
        references (parameters count 0), saturated at ``node_cap + 1``; the
        counts per rhs come from ``census``, this grammar's :meth:`census`
        when the caller has it, such as the decoder's, or are counted
        here.  It runs before any output exists.

        Returns ``(plan, entry)`` for :func:`_derive`.  ``entry`` maps a
        production id to the rhs node a derivation enters at a reference
        to it.  That is the rhs root, except for an alias body
        ``A(y..) -> B(y..)``, one reference whose children are all
        parameters: it hands its arguments on unchanged, so A's entry is
        B's.  Filled in the dependency order, the table collapses a chain
        of aliases once, not once per use.

        ``plan`` lists the rhs roots of the productions whose values
        ``_derive`` evaluates once, in dependency order, and ends with the
        start's.  Evaluating production i copies exactly ``size[i]``
        terminals, so once the value's size is known, each production in
        dependency order is taken if its size still fits: the sizes taken,
        the value's own included, stay within ``COPY_BUDGET`` times the
        value's size.  A production left out is walked at each use, as is
        an alias of one;
        an alias of an evaluated production shares its target's entry, so
        it is evaluated at no cost.  Sizes only grow along references, so
        an evaluated production never references a walked one.
        """
        labels, productions = self.arena.labels, self.productions
        if census is None:
            census = self.census()
        order = _dependency_order(census)
        size = {}
        entry = {}
        for i in order:
            count, used = census[i]
            total = count + sum([size[j] * k for j, k in used.items()])
            size[i] = min(total, node_cap + 1)
            root = productions[i].root
            if not count and tuple(used.values()) == (1,):
                # the root is the one reference, all else parameter leaves
                entry[i] = entry[labels[root].id]
            else:
                entry[i] = root
        start = self.start_id
        if size[start] > node_cap:
            raise GrammarError("unfolded value exceeds %d nodes" % node_cap)
        room = (COPY_BUDGET - 1) * size[start]
        plan = []
        for i in order:
            root = productions[i].root
            if entry[i] == root and size[i] <= room and i != start:
                room -= size[i]
                plan.append(root)
        plan.append(productions[start].root)
        return plan, entry

    def unfold_value(self, node_cap=DEFAULT_NODE_CAP, census=None) -> BinaryTree:
        """Derive the grammar's value as a fresh tree.

        ``node_cap`` bounds the output size; a value larger than that
        raises GrammarError before any output node exists.  ``census``,
        if given, is this grammar's :meth:`census`.
        """
        plan, entry = self._check_value_size(node_cap, census)
        out = Tree()
        root, = out.add_preorder(_derive(self.arena, plan, entry))
        return BinaryTree(out, root, self.terminal_order)

    def write_xml(self, node_cap=DEFAULT_NODE_CAP, census=None) -> bytes:
        """The value's XML document, written from the grammar without
        unfolding it.

        ``node_cap`` bounds the value's size as in :meth:`unfold_value`,
        and a value larger than that raises GrammarError before any tag is
        written.  A value whose root is not an XML-origin root raises
        UnsupportedInputError.  ``census`` is as in :meth:`unfold_value`.
        """
        plan, entry = self._check_value_size(node_cap, census)
        return _write_tags(_derive(self.arena, plan, entry), self.terminal_order)


def _derive(arena, plan, entry) -> list:
    """Terminals of the value, in preorder, evaluated bottom-up.

    The one walk that follows references and parameters.  It evaluates
    each rhs root of ``plan`` (from ``_check_value_size``) in turn, the
    start's last, as a straight-line program is evaluated (Lohrey,
    *Algorithmics on SLP-compressed strings: a survey*, Groups Complexity
    Cryptology 2012): the value of a production of rank k is kept as the
    k + 1 terminal segments of its preorder around its parameter holes.

    Work items pair an rhs node with an environment.  A reference to an
    evaluated production extends the output with segment 0, then derives
    argument 1, segment 1, .. argument k, segment k (an empty segment is
    not queued).  Any other reference enters its production at ``entry``
    with its arguments, reversed, as the environment, traversing the
    value without decompressing it (Busatto, Lohrey & Maneth, *Efficient
    memory representation of XML document trees*, Information Systems
    2008).  A linear rhs meets its parameter leaves in preorder, the order
    of its arguments, so each leaf takes the argument it stands for with
    ``env.pop()``; a parameter leaf of the rhs being evaluated, whose
    environment is None, closes the current segment.

    The walk is linear: its steps are at most a constant times the value's
    nodes plus the rhs nodes.  Evaluating a plan entry walks its rhs once
    and meets only references to evaluated productions.  The start's walk
    visits each rhs node of each instance of a walked production once,
    and such a node is a terminal, which makes a value node; a reference,
    which makes an instance or extends the output by at least one
    terminal (every value has one, as the decoder rejects bare-parameter
    bodies); or a parameter, which takes an argument, a node of the
    instance above.  An alias resolves through ``entry`` without an
    instance, and every other body without a terminal has a second
    reference below its root, so an instance that makes no value node
    branches into two or more: the instances number at most about twice
    the value's nodes.  The segments copy at most ``COPY_BUDGET`` times
    the value's nodes, in list extends.
    """
    labels, children = arena.labels, arena.children
    segments = {}  # rhs root of an evaluated production -> its segments
    for root in plan:
        parts = []
        out = []
        stack = [(root, None)]
        while stack:
            v, env = stack.pop()
            if v is None:  # a segment of an evaluated production
                out += env
                continue
            while True:
                label = labels[v]
                if label.__class__ is TerminalSymbol:
                    out.append(label)
                    rank = label.rank
                    if not rank:
                        break
                    kids = children[v]
                    if rank == 2:
                        stack.append((kids[1], env))
                    elif rank > 2:
                        stack += [(c, env) for c in reversed(kids[1:])]
                    v = kids[0]
                elif label is PARAMETER:
                    if env is None:  # a hole of the rhs being evaluated
                        parts.append(out)
                        out = []
                        break
                    v, env = env.pop()
                else:
                    e = entry[label.id]
                    segs = segments.get(e)
                    if segs is not None:
                        out += segs[0]
                        rank = label.rank
                        if not rank:
                            break
                        kids = children[v]
                        if segs[rank]:
                            stack.append((None, segs[rank]))
                        while rank > 1:
                            rank -= 1
                            stack.append((kids[rank], env))
                            if segs[rank]:
                                stack.append((None, segs[rank]))
                        v = kids[0]
                        continue
                    if label.rank:  # a rank-0 rhs has no parameters to take
                        env = [(c, env) for c in reversed(children[v])]
                    v = e
        parts.append(out)
        segments[root] = parts
    return out


def _tag_table(alphabet) -> dict:
    """Terminal -> (tag, pending) for each terminal of ``alphabet`` with a
    children characteristic: ``<name>`` and what the tag writer pushes
    after it, top last (a slot for a next sibling, then the close tag),
    for a terminal with a first child; ``<name/>`` and the slot or
    nothing for one with a next sibling only; ``<name/>`` and None for a
    leaf."""
    tags = {}
    for sym in alphabet:
        char = sym.characteristic
        if char is None:
            continue
        name = sym.name
        if char & 0b10:
            close = "</" + name + ">"
            tags[sym] = "<" + name + ">", (None, close) if char & 0b01 else (close,)
        else:
            tags[sym] = "<" + name + "/>", () if char & 0b01 else None
    return tags


def _dependency_order(census) -> list:
    """Ids of a :meth:`SlcfGrammar.census` ordered referenced before
    referencing, ties toward the smaller id (Kahn's algorithm over a
    min-heap)."""
    dependents = {i: [] for i in census}
    missing = {}
    ready = []
    for i, (_, used) in census.items():
        missing[i] = len(used)
        for d in used:
            dependents[d].append(i)
        if not used:
            heapq.heappush(ready, i)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in dependents[i]:
            missing[j] -= 1
            if missing[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(census):
        raise GrammarError("grammar is cyclic")
    return order


def _write_tags(terminals, alphabet) -> bytes:
    """XML of the binary tree whose preorder terminals are ``terminals``,
    each of them in ``alphabet``.

    The first-child/next-sibling preorder is document order: a node with
    a first child writes its open tag, its first child's chain follows,
    then its close tag, then its next sibling.  A stack holds the close
    tags still to write, each above a slot (None) where its node has a
    next sibling to come; a leaf ends a chain, so the close tags above the
    top slot follow it.  A terminal without a children characteristic
    or outside ``alphabet``, or a root that is not an XML-origin root,
    raises UnsupportedInputError.
    """
    root = terminals[0].characteristic  # a root without one fails below
    if root is not None and root != ChildrenCharacteristic.NO_RIGHT_CHILD:
        raise UnsupportedInputError(
            "derived root has characteristic %s, not an XML-origin tree" % root.bits)
    tags = _tag_table(alphabet)
    out = []
    stack = [None]  # under the root's close tag: the last leaf stops here
    try:
        for tag, pending in map(tags.__getitem__, terminals):
            out.append(tag)
            if pending:
                stack += pending
            elif pending is None:
                item = stack.pop()
                while item is not None:
                    out.append(item)
                    item = stack.pop()
    except KeyError as exc:
        sym, = exc.args
        why = ("has no children characteristic" if sym.characteristic is None
               else "is not in the alphabet")
        raise UnsupportedInputError("terminal %r %s" % (sym, why)) from None
    # str.join, not bytes.join: the latter holds a buffer view per item.
    return "".join(out).encode("utf-8")


def serialize_xml(bt: BinaryTree) -> bytes:
    """Invert the first-child/next-sibling encoding back to XML bytes.

    A tree's value is its preorder, so this is the grammar writer's tag
    walk over the tree's labels.  Only valid for trees whose
    characteristics are consistent with an XML origin: a root without
    characteristic 10, or a terminal without a characteristic or outside
    ``bt.terminal_order``, raises UnsupportedInputError.
    """
    return _write_tags(bt.tree.preorder(bt.root), bt.terminal_order)
