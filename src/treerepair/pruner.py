"""Two-phase grammar pruning.

Replacement greedily introduces nonterminals whose existence may not pay
off in the final size measure.  Pruning removes them again: phase one
splices every production referenced exactly once (always at least
size-neutral), phase two walks the remaining non-start productions once
in reverse hierarchical order and eliminates each whose live sav value is
at or below the threshold.

Thresholds: 0 when minimizing edges (eliminate what does not strictly
shrink the grammar), 2 when minimizing the succinctly coded file size (a
production also costs header space, so it must save more than two edges
to pay for itself).
"""

from __future__ import annotations

from .slcf_grammar import SlcfGrammar

EDGES_THRESHOLD = 0
FILESIZE_THRESHOLD = 2


def prune(g: SlcfGrammar, threshold):
    """Prune in place.  ``threshold`` is the sav cutoff (inclusive)."""
    # Phase 1: singly-referenced productions.
    g.splice_single_refs()

    # Phase 2: one top-down pass, sav recomputed against the live grammar
    # (earlier eliminations may have raised a later production's use count
    # and thereby its sav).
    order = [i for i in g.hierarchical_order() if i != g.start_id]
    for nt_id in reversed(order):
        nt = g.productions.get(nt_id)
        if nt is not None and g.sav(nt) <= threshold:
            g.eliminate(nt)
    return g
