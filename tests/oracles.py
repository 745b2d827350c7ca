"""Independent reference implementations used to cross-check expectations.

Everything here is deliberately written with a different approach than the
package under test (plain recursion, ElementTree, textbook formulas) so a
shared bug cannot hide.  The structural checks and readers that only tests
call (``validate_grammar``, ``same_structure``, ``occurrence_nodes``,
``canonical_text``) live here too, not in the package, and so does the
per-occurrence digram rewrite (``replace_occurrence``) that the
replacer's one-pass round is checked against.
"""

import heapq
import xml.etree.ElementTree as ET
from fractions import Fraction

from treerepair import (PARAMETER, BinaryTree, ChildrenCharacteristic, DecodeError,
                        Nonterminal, SlcfGrammar, Tree, decode, decompress_tree,
                        serialize_xml)
from treerepair.digram_index import END, FREE


def element_shape(data):
    """Element-only nested shape of an XML document: (tag, [children])."""
    root = ET.fromstring(data.decode("utf-8") if isinstance(data, bytes) else data)

    def walk(e):
        return (e.tag, [walk(c) for c in e])

    return walk(root)


def fcns_shape(shape):
    """First-child/next-sibling binary form of an element shape.

    Returns nested (name, left, right) where left is the first child and
    right the next sibling; the document root never has a sibling.
    """

    def rec(siblings, i):
        name, kids = siblings[i]
        left = rec(kids, 0) if kids else None
        right = rec(siblings, i + 1) if i + 1 < len(siblings) else None
        return (name, left, right)

    return rec([shape], 0)


def binary_shape(bt):
    """(name, left, right) view of a parsed binary tree.

    Slot meaning is taken from each label's 2-bit children characteristic,
    so the result is comparable with fcns_shape() output.
    """
    tree = bt.tree

    def rec(v):
        label = tree.labels[v]
        kids = [c for c in tree.children[v] if c >= 0]
        i = 0
        left = right = None
        if label.characteristic & 0b10:
            left = rec(kids[i])
            i += 1
        if label.characteristic & 0b01:
            right = rec(kids[i])
            i += 1
        assert i == len(kids)
        return (label.name, left, right)

    return rec(bt.root)


def postorder_nodes(tree, root):
    """Recursive postorder (children in slot order, root last)."""
    out = []

    def rec(v):
        for c in tree.children[v]:
            if c >= 0:
                rec(c)
        out.append(v)

    rec(root)
    return out


def dag_grammar_by_sharing(bt):
    """The minimal-DAG grammar of ``bt`` the long way round, in its arena.

    Each node's subtree is keyed by its preorder label sequence.  In
    postorder, the second non-leaf node of a key moves the first one's
    subtree into a fresh rank-0 production, and it and every later node
    of the key become references to it, their children killed.  Then the
    start production is added and every production referenced once is
    spliced back.
    """
    g = SlcfGrammar(bt.tree, bt.terminal_order)
    t = g.arena
    order = postorder_nodes(t, bt.root)
    key = {v: tuple(t.preorder(v)) for v in order}
    seen = {}
    for v in order:
        if not t.children[v]:
            continue
        hit = seen.setdefault(key[v], v)
        if hit == v:
            continue
        if not isinstance(hit, Nonterminal):
            hit = seen[key[v]] = g.share(hit)
        for k in t.children[v]:
            g.kill_node(k)
        t.children[v] = []
        g.relabel(v, hit)
    g.add_production(g.new_nonterminal(0, is_dag=False), bt.root, start=True)
    g.splice_single_refs()
    return g


def mdag_counts(shape):
    """Hash-consed minimal-DAG node and edge counts of a (label, [kids]) shape."""
    seen = {}

    def key(node):
        label, kids = node
        k = (label, tuple(key(c) for c in kids))
        return seen.setdefault(k, len(seen))

    key(shape)
    nodes = len(seen)
    edges = sum(len(kids) for _, kids in seen)
    return nodes, edges


def max_nonoverlapping(tree, root, parent_sym, index, child_sym):
    """Largest set of pairwise node-disjoint occurrences of a digram.

    Occurrences conflict only when the child node of one is the parent node
    of another, so conflict components are vertical chains; each chain of m
    occurrences contributes ceil(m/2) to the maximum.
    """
    occ = {}
    for v in postorder_nodes(tree, root):
        if tree.labels[v] != parent_sym:
            continue
        kids = tree.children[v]
        if len(kids) >= index and kids[index - 1] >= 0:
            w = kids[index - 1]
            if tree.labels[w] == child_sym:
                occ[v] = w
    child_nodes = set(occ.values())
    total = 0
    for u in occ:
        if u in child_nodes:
            continue
        m = 0
        cur = u
        while cur in occ:
            m += 1
            cur = occ[cur]
        total += (m + 1) // 2
    return total


def digram_record(idx, parent, index, child):
    """Id of the record in a DigramIndex whose listed occurrences have the
    digram, read off each record's head edge, or None."""
    for r in range(len(idx.count)):
        if idx.count[r] and idx.digram(r) == (parent, index, child):
            return r
    return None


def occurrence_nodes(idx, parent, index, child):
    """Parent nodes of a digram's listed occurrences in a DigramIndex,
    oldest first."""
    r = digram_record(idx, parent, index, child)
    out = []
    c = END if r is None else idx.head[r]
    while c != END:
        out.append(idx.g.arena.parents[c])
        c = idx.next[c]
    return out


def unlink(idx, nodes):
    """Drop the edges ending in ``nodes`` from their lists (those that are
    on one) and place each record at its new count: the edge drop of
    ``replacer.replace_round``, one call per rewrite."""
    slot, nxt, prv = idx.slot, idx.next, idx.prev
    head, tail, count = idx.head, idx.tail, idx.count
    limit, buckets = idx.bucket_limit, idx.buckets
    for c in nodes:
        r = slot[c]
        if r == FREE:
            continue
        before = prv[c]
        after = nxt[c]
        if before == END:
            head[r] = after
        else:
            nxt[before] = after
        if after == END:
            tail[r] = before
        else:
            prv[after] = before
        slot[c] = FREE
        n = count[r]
        count[r] = n - 1
        if n < 2:
            continue
        if n < limit:
            del buckets[n][r]
            if n > 2:
                buckets[n - 1][r] = None
        elif n == idx.top_at:
            del idx.top[r]
            if n > 2:
                buckets[n - 1][r] = None


def split_shared(g, X):
    """Flatten a multiply-referenced DAG production to depth 1, and return
    fresh references to the productions its root's children now are,
    made one ``SlcfGrammar.new_node`` at a time."""
    ar = g.arena
    refs = []
    for c in ar.children[X.root]:
        lc = ar.labels[c]
        if not (lc.__class__ is Nonterminal and lc.is_dag):
            lc = g.share(c)
        refs.append(g.new_node(lc))
    return refs


def replace_occurrence(g, idx, v, j, A):
    """Rewrite the single occurrence at (v, j) to the nonterminal A through
    the grammar's and arena's own helpers: the per-occurrence reference
    for ``replacer.replace_round``, which makes the same calls to
    ``unlink`` and ``idx.link`` in the same order."""
    ar = g.arena
    children = ar.children
    kids = children[v]
    w = kids[j - 1]
    lw = ar.labels[w]
    inner = children[w]
    if lw.__class__ is Nonterminal and lw.is_dag:
        if len(lw.refs) > 1:
            inner = split_shared(g, lw)
        else:
            g.eliminate(lw)
            inner = children[w]
    into = [v] if ar.parents[v] != -1 else list(g.root_to_prod[v].refs)
    unlink(idx, into + kids + children[w])
    kids[j - 1:j] = inner
    g.relabel(v, A)
    g.kill_node(w)
    ar.set_children(v, kids)
    idx.link(into + kids)


def replace_round_by_occurrence(g, idx, r, j, A):
    """``replacer.replace_round`` one ``replace_occurrence`` call at a time."""
    while idx.count[r]:
        replace_occurrence(g, idx, g.arena.parents[idx.head[r]], j, A)


def canonical_text(g):
    """One production per line, start last, with nonterminals renamed
    along the hierarchical order, for comparisons up to renaming."""
    order = [i for i in g.hierarchical_order() if i != g.start_id]
    names = {nid: "A_%d" % (k + 1) for k, nid in enumerate(order)}
    names[g.start_id] = "S"
    t = g.arena
    lines = []
    for nid in order + [g.start_id]:
        rank = g.productions[nid].rank
        head = names[nid] + ("(" + ",".join(["y"] * rank) + ")" if rank else "")
        out = [head, " -> "]
        # Node ids and literal punctuation share one stack.
        stack = [g.productions[nid].root]
        while stack:
            v = stack.pop()
            if isinstance(v, str):
                out.append(v)
                continue
            label = t.labels[v]
            out.append(names[label.id] if isinstance(label, Nonterminal)
                       else repr(label))
            kids = t.children[v]
            if kids:
                out.append("(")
                stack.append(")")
                for c in reversed(kids[1:]):
                    stack += (c, ",")
                stack.append(kids[0])
        lines.append("".join(out))
    return "\n".join(lines)


def same_structure(bt, other):
    """Whether two BinaryTrees have equal labels in equal shapes."""
    stack = [(bt.root, other.root)]
    while stack:
        a, b = stack.pop()
        if bt.tree.labels[a] != other.tree.labels[b]:
            return False
        ka = bt.tree.children[a]
        kb = other.tree.children[b]
        if len(ka) != len(kb):
            return False
        stack.extend(zip(ka, kb))
    return True


def validate_tree(bt):
    """Check a BinaryTree's rank/children consistency; raises AssertionError."""
    t = bt.tree
    for v in t.iter_postorder(bt.root):
        label = t.labels[v]
        assert label is not None, "dead node reachable"
        assert len(t.children[v]) == label.rank, (
            "node %d: %r has %d children" % (v, label, len(t.children[v])))
        for i, c in enumerate(t.children[v]):
            assert t.parents[c] == v and t.pindex[c] == i + 1


def validate_grammar(g):
    """Check an SlcfGrammar's invariants; raises AssertionError.

    Every production is owned by its root and every root entry by a
    production, ranks match child counts, references are registered in
    their nonterminal's ``refs``, each rhs has as many parameters as its
    rank and is not a bare parameter, every non-start production is used,
    and the grammar is acyclic.
    """
    t = g.arena
    assert g.start_id in g.productions
    assert len(g.root_to_prod) == len(g.productions), "stale root entry"
    seen_refs = {i: 0 for i in g.productions}
    for i, nt in g.productions.items():
        assert nt.id == i
        assert t.parents[nt.root] == -1
        assert g.root_to_prod[nt.root] is nt
        y = 0
        for v in t.iter_postorder(nt.root):
            label = t.labels[v]
            assert label is not None
            if label is PARAMETER:
                y += 1
                continue
            assert len(t.children[v]) == label.rank
            if isinstance(label, Nonterminal):
                assert g.productions.get(label.id) is label, "dangling reference"
                assert v in label.refs
                seen_refs[label.id] += 1
        assert y == nt.rank, "parameter count != rank"
        assert t.labels[nt.root] is not PARAMETER
    for i, nt in g.productions.items():
        assert seen_refs[i] == len(nt.refs)
        if i != g.start_id:
            assert seen_refs[i] >= 1, "unreferenced nonterminal"
        else:
            assert seen_refs[i] == 0
    g.hierarchical_order()  # raises if cyclic


def rle_expand(tokens, n):
    """Token-level inverse of the run-length coder.

    Accepts the exact token stream the encoder produces: plain ints up to
    n+3 and ('bits', width, value) payload tuples after each run indicator.
    A repeat indicator (n+1) directly after its sample literal contributes
    value+3 copies (the sample supplies one more); each further consecutive
    repeat indicator contributes value+4.  Zero indicators carry absolute
    counts: n+2 gives value+4 zeros, n+3 gives value+12.
    """
    out = []
    i = 0
    in_run = False
    while i < len(tokens):
        tok = tokens[i]
        assert not isinstance(tok, tuple), "payload without indicator"
        if tok <= n:
            out.append(tok)
            in_run = False
            i += 1
            continue
        tag, width, value = tokens[i + 1]
        assert tag == "bits"
        i += 2
        if tok == n + 1:
            assert width == 2
            assert out and out[-1] != 0, "repeat indicator without sample"
            out.extend([out[-1]] * (value + (4 if in_run else 3)))
            in_run = True
        elif tok == n + 2:
            assert width == 3
            out.extend([0] * (value + 4))
            in_run = False
        else:
            assert tok == n + 3 and width == 7
            out.extend([0] * (value + 12))
            in_run = False
    return out


def huffman_cost(freqs):
    """Optimal total prefix-code cost sum(freq * length) via heap merging."""
    vals = sorted(freqs.values())
    if not vals:
        return 0
    if len(vals) == 1:
        return vals[0]
    heapq.heapify(vals)
    total = 0
    while len(vals) > 1:
        a = heapq.heappop(vals)
        b = heapq.heappop(vals)
        total += a + b
        heapq.heappush(vals, a + b)
    return total


def huffman_code_lengths_by_heap(freqs):
    """Huffman code lengths from a binary heap, with the tie order of
    ``succinct_coder.huffman_code_lengths``: items are ``(freq, kind,
    ident, payload)``, a leaf of kind 0 with its symbol as ident, a merged
    node of kind 1 numbered in creation order; lengths are leaf depths."""
    if not freqs:
        return {}
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    # leaf payload is the symbol, merged payload is (left, right)
    heap = [(f, 0, sym, sym) for sym, f in freqs.items()]
    heapq.heapify(heap)
    seq = 0
    while len(heap) > 1:
        f1, k1, i1, p1 = heapq.heappop(heap)
        f2, k2, i2, p2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, 1, seq, ((k1, p1), (k2, p2))))
        seq += 1
    lengths = {}
    stack = [(heap[0][1], heap[0][3], 0)]
    while stack:
        kind, payload, depth = stack.pop()
        if kind == 0:
            lengths[payload] = depth
        else:
            (lk, lp), (rk, rp) = payload
            stack.append((lk, lp, depth + 1))
            stack.append((rk, rp, depth + 1))
    return lengths


def prefix_free(bitstrings):
    """True if no bit string is a prefix of another."""
    items = sorted(bitstrings)
    return all(not b.startswith(a) for a, b in zip(items, items[1:]))


def kraft_sum(lengths):
    """Exact sum of 2**-length over all assigned code lengths."""
    return sum(Fraction(1, 2 ** l) for l in lengths.values() if l)


def binary_mdag_edges(shape):
    """Edge count of the minimal DAG of a (name, left, right) shape.

    Hash-consing: structurally equal subtrees collapse to one node; each
    distinct node contributes one edge per present child.
    """
    table = {}

    def key(node):
        if node is None:
            return None
        name, left, right = node
        k = (name, key(left), key(right))
        if k not in table:
            table[k] = (left is not None) + (right is not None)
        return k

    key(shape)
    return sum(table.values())


def bitwise_reader(lengths):
    """Bit-by-bit decoder of the canonical code with ``lengths``.

    The textbook walk: one ``reader.read(1)`` per bit, and after each bit a
    check whether the bits so far are a code word of that length.  Code
    words of one length are consecutive, starting at the first code of that
    length.  The tables are built once; the returned ``read(reader)``
    decodes one symbol and raises DecodeError once ``max_len`` bits match
    nothing.
    """
    max_len = max(lengths.values())
    by_len = [[] for _ in range(max_len + 1)]
    for sym in sorted(lengths, key=lambda s: (lengths[s], s)):
        by_len[lengths[sym]].append(sym)
    first = [0] * (max_len + 1)
    code = 0
    for l in range(1, max_len + 1):
        code <<= 1
        first[l] = code
        code += len(by_len[l])

    def read(reader):
        acc = 0
        for l in range(1, max_len + 1):
            acc = (acc << 1) | reader.read(1)
            d = acc - first[l]
            if 0 <= d < len(by_len[l]):
                return by_len[l][d]
        raise DecodeError("invalid code word")

    return read



def read_block_by_reads(decoder, reader, out, deltas, balance, limit):
    """``CanonicalDecoder.read_block`` as a loop of ``read`` calls under
    the same stopping rule."""
    while balance > 0:
        sym = decoder.read(reader)
        if sym > limit or deltas[sym] is None:
            return sym
        out.append(sym)
        balance += deltas[sym]
    return None

def run_length_decode_dense(reader, super_decoder, n, expected):
    """The length table as a list of all ``expected`` entries, zeros too.

    Same token grammar and errors as ``succinct_decoder.run_length_decode``,
    which keeps only the nonzero entries.
    """
    out = []
    last = None
    first_unit = True
    while len(out) < expected:
        tok = super_decoder.read(reader)
        if tok <= n:
            out.append(tok)
            last = tok
            first_unit = True
        elif tok == n + 1:
            if last is None:
                raise DecodeError("run continuation without a sample value")
            c = reader.read(2)
            out.extend([last] * (c + 3 if first_unit else c + 4))
            first_unit = False
        elif tok == n + 2:
            c = reader.read(3)
            out.extend([0] * (c + 4))
            last = None
            first_unit = True
        else:
            c = reader.read(7)
            out.extend([0] * (c + 12))
            last = None
            first_unit = True
    if len(out) != expected:
        raise DecodeError("run-length data overruns its table")
    return out


def _xml_rooted(g):
    """Raise DecodeError unless g's value has an XML-origin root.

    The root label is found without unfolding: the walk follows rhs roots
    into productions.  No rhs is a bare parameter, so the first terminal
    met is the value's root.
    """
    t = g.arena
    label = t.labels[g.start().root]
    while isinstance(label, Nonterminal):
        label = t.labels[g.productions[label.id].root]
    if label.characteristic != ChildrenCharacteristic.NO_RIGHT_CHILD:
        raise DecodeError("derived root has characteristic %s, not an "
                          "XML-origin tree" % label.characteristic.bits)


def value_by_substitution(g):
    """g's value as a BinaryTree, by textbook recursive substitution: a
    reference derives its arguments, then its rhs with the i-th parameter
    leaf in preorder replaced by the i-th argument."""
    t = g.arena
    out = Tree()

    def derive(v, args):
        label = t.labels[v]
        if label is PARAMETER:
            return next(args)
        kids = [derive(c, args) for c in t.children[v]]
        if isinstance(label, Nonterminal):
            return derive(g.productions[label.id].root, iter(kids))
        node = out.new_node(label)
        out.set_children(node, kids)
        return node

    return BinaryTree(out, derive(g.start().root, iter(())), g.terminal_order)


def decompress_bytes_by_unfolding(blob, node_cap):
    """XML bytes of a stream the long way: the size bound and the unfolded
    tree from ``decompress_tree``, the root walk over the decoded grammar,
    then ``serialize_xml`` of the tree."""
    bt = decompress_tree(blob, node_cap)
    _xml_rooted(decode(blob))
    return serialize_xml(bt)
