"""Minimal-DAG grammar construction from subtree equality classes.

A tree's subtrees fall into equality classes, each keyed on its label and
its children's classes (hash-consing: Downey, Sethi & Tarjan, J. ACM
1980).  Two feeders list the classes in first-sighting order of the
binary postorder: ``xml_tree.parse_xml_classes`` while it parses, making
no node (Buneman, Grohe & Koch, *Path queries on compressed XML*, VLDB
2003, build the minimal DAG of an XML skeleton in one SAX pass), and
``hash_cons`` over the postorder of a tree that exists (``tree_classes``).
``dag_grammar`` makes the grammar from the class table alone, in a fresh
arena; ``tree_dag_grammar`` makes the same grammar of the tree's own
nodes, touching only the occurrences of shared classes.  Both number the
productions, and pick the classes that get one, in ``_nonterminals``.

The grammar is the minimal DAG in grammar form: a non-leaf class gets a
rank-0 production exactly when its in-degree in the DAG, counted with
multiplicity, is at least 2; every other class is written inline, and
leaves stay literal.  Ids follow what sharing repeats one by one in
postorder and then splicing the singly-referenced productions back would
give: every non-leaf class takes the next id at its second sighting, the
start production the one after.  The references of a production are the
occurrences of its class whose parent is the first sighting of its own
class, in postorder.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress
from operator import itemgetter

from .xml_tree import BinaryTree, SubtreeClasses, Tree
from .slcf_grammar import SlcfGrammar

_child_classes = itemgetter(slice(1, None))


def hash_cons(nodes, kids, labels, label_ids):
    """Equality classes of the subtrees at ``nodes`` (children before
    parents; ``kids`` and ``labels`` are lists indexed by node):
    ``(cls, keys, repeats)``, with ``cls[v]`` v's class and ``keys`` and
    ``repeats`` as in ``SubtreeClasses``.  ``label_ids`` maps labels to
    their ids 0, 1, ..; a label it lacks takes the next id.  Class ids
    follow first sighting, never hash order; keys hold only ints, so the
    garbage collector stops tracking them."""
    cls = [0] * len(labels)
    table = {}
    repeats = []
    add, label_id, get, sighted = table.setdefault, label_ids.setdefault, cls.__getitem__, repeats.append
    for v in nodes:
        n = len(table)
        c = cls[v] = add((label_id(labels[v], len(label_ids)), *map(get, kids[v])), n)
        if c != n:
            sighted(c)
    return cls, list(table), repeats


def tree_classes(bt: BinaryTree):
    """The subtree classes of ``bt`` by ``hash_cons`` over its postorder,
    labels keyed by their place in ``bt.terminal_order``:
    ``(classes, nodes, cls)``, with ``nodes`` the postorder and ``cls``
    each node's class."""
    t = bt.tree
    nodes = list(t.iter_postorder(bt.root))
    label_ids = {label: i for i, label in enumerate(bt.terminal_order)}
    cls, keys, repeats = hash_cons(nodes, t.children, t.labels, label_ids)
    return SubtreeClasses(keys, repeats, bt.terminal_order), nodes, cls


def dag_edges(keys):
    """The edge count of the DAG whose class keys are ``keys``."""
    return sum(map(len, keys)) - len(keys)


def shared_classes(keys):
    """The non-leaf classes whose in-degree in the DAG, counted with
    multiplicity, is at least 2: those a DAG grammar makes a production
    for."""
    indegree = Counter(chain.from_iterable(map(_child_classes, keys)))
    return {c for c, n in indegree.items() if n > 1 and len(keys[c]) > 1}


def _nonterminals(g, classes):
    """``{class: nonterminal}`` for the classes with a production, in id
    order: every non-leaf class sighted twice takes the next id at its
    second sighting, kept or not, and the root's class, the start, the
    id after."""
    keys = classes.keys
    # the non-leaf classes sighted twice, by second sighting
    repeated = [c for c in dict.fromkeys(classes.repeats) if len(keys[c]) > 1]
    nts = {}
    if repeated:
        shared = shared_classes(keys)
        for c in repeated:
            nt = g.new_nonterminal(0, is_dag=True)
            if c in shared:
                nts[c] = nt
    nts[len(keys) - 1] = g.new_nonterminal(0, is_dag=False)
    return nts


def dag_grammar(classes: SubtreeClasses) -> SlcfGrammar:
    """The minimal-DAG grammar of the tree whose subtree classes are
    ``classes``, in a fresh arena.

    Each production's rhs is made as its preorder: a child class with a
    production becomes a reference, any other is written out in place.
    All rhs trees are made in one ``Tree.add_preorder`` call, productions
    in id order and the start last.  A reference leaf stands for an
    occurrence whose parent is a first sighting, and the first sightings
    form the top of the tree in which each shared class is expanded at
    its first occurrence; so the postorder of those occurrences is that
    of a walk from the start that enters a production at its first
    reference and registers a reference after everything below it.
    Within one rhs, references are leaves, met in the same order in
    preorder and postorder.
    """
    keys, labels = classes.keys, classes.terminal_order
    g = SlcfGrammar(Tree(), labels)
    nts = _nonterminals(g, classes)
    start = nts[len(keys) - 1]

    out = []    # every rhs's preorder, one after another
    uses = {}   # nonterminal -> positions of the references in its rhs
    get = nts.get
    for c, nt in nts.items():
        key = keys[c]
        out.append(labels[key[0]])
        stack = list(key[:0:-1])
        refs = uses[nt] = []
        while stack:
            d = stack.pop()
            while True:  # down the first-child line, later children wait
                ref = get(d)
                if ref is not None:
                    refs.append(len(out))
                    out.append(ref)
                    break
                key = keys[d]
                out.append(labels[key[0]])
                if len(key) == 1:
                    break
                if len(key) > 2:
                    stack += key[:1:-1]
                d = key[1]

    # One arena from node 0: a label's position in ``out`` is its node id.
    roots = g.arena.add_preorder(out)
    for nt, root in zip(uses, roots):
        g.add_production(nt, root, start=nt is start)

    frames = [(iter(uses[start]), None)]
    while frames:
        it, v = frames[-1]
        for w in it:
            nt = out[w]
            if not nt.refs:  # its first reference: its own references come first
                frames.append((iter(uses[nt]), w))
                break
            nt.refs[w] = None
        else:
            frames.pop()
            if v is not None:
                out[v].refs[v] = None
    return g


def tree_dag_grammar(bt: BinaryTree, classes, nodes, cls) -> SlcfGrammar:
    """The minimal-DAG grammar of ``bt`` in its own arena, from
    ``tree_classes(bt)``; ``bt`` must not be used afterwards.

    The grammar is ``dag_grammar(classes)`` made of the tree's nodes.  The
    first sightings are the top of the tree in which each class is
    expanded at its first occurrence: a shared class's first sighting
    becomes the root of its production, and in postorder every occurrence
    of a shared class under a first sighting is made a reference, the
    first sighting by a fresh leaf in its place, a later one by taking
    the nonterminal as its label.  The nodes below a later sighting are
    left unreachable; where nothing is shared, no node is touched.
    """
    t = bt.tree
    g = SlcfGrammar(t, classes.terminal_order)
    nts = _nonterminals(g, classes)
    start = nts.pop(len(classes.keys) - 1)
    if nts:
        labels, children, parents, pindex = t.labels, t.children, t.parents, t.pindex
        nt_of = [None] * len(classes.keys)
        for c, nt in nts.items():
            nt_of[c] = nt
        cls_of = cls.__getitem__
        backwards = nodes[::-1]
        first = dict(zip(map(cls_of, backwards), backwards))  # class -> first sighting
        for v in compress(nodes, map(nt_of.__getitem__, map(cls_of, nodes))):
            p = parents[v]
            if first[cls[p]] != p:
                continue    # below a later sighting
            nt = nt_of[cls[v]]
            if first[cls[v]] == v:
                r = t.new_node(nt)
                t.put(p, pindex[v], r)
                nt.refs[r] = None
            else:
                labels[v] = nt
                children[v] = []
                nt.refs[v] = None
        for c, nt in nts.items():
            g.add_production(nt, first[c])
    g.add_production(start, bt.root, start=True)
    return g


def build_dag_grammar(bt: BinaryTree) -> SlcfGrammar:
    """The minimal-DAG grammar of ``bt``, made in its arena; ``bt`` must
    not be used afterwards."""
    return tree_dag_grammar(bt, *tree_classes(bt))
