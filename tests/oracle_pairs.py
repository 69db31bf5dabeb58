"""The pair stages as ``kra`` ran them before cycle labels and trace slots
became tuples and before a pair that cannot meet was skipped, kept as the
reference the fast stages are compared against.

``exemption_check``, ``lift_pair``, ``_required_counterterms``,
``_check_r_connected`` and ``counterterm_coverage`` are the earlier code
word for word.  Here they resolve ``pair_exemptions``, ``lift_pair`` and
``required_counterterms`` to this module, which decides and derives
everything afresh on every call and stores nothing on the diagram.
``lift_pair`` walks with the frozen kernel of ``oracle_kernel``, so a change
to ``kra.graphs.closed_walks`` cannot move both sides of a comparison.  The
helpers they share with ``kra`` (Γ̃, the cycle list, ``lift_cycle``, the
action terms, block canonicalization) are not part of the fast path.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from kra.algebra import FactorKind
from kra.diagram import KrajewskiDiagram
from kra.graphs import Cycle, LiftWitness, cycle_pairs, diagram_cycles, lift_cycle
from kra.invariants import (
    CoverageEntry,
    CoverageReport,
    InvariantTerm,
    TermKind,
    _built_key,
    _collapse_at,
    _cycle_block,
    _gauge_and_edge_terms,
    action_terms,
    collapse_blocks,
    cycle_display,
)
from kra.rconnect import (
    QUATERNION_CONJUGATE_PAIR,
    SHARED_TRIVIAL_VERTEX,
    CycleLift,
    Exemption,
    PairLift,
    RConnectReport,
    shared_trivial_vertex,
)

from oracle_kernel import closed_walks


def exemption_check(g1: Cycle, g2: Cycle, d: KrajewskiDiagram) -> Exemption:
    """Decide whether the pair (g1, g2) is excused from condition (2)."""
    algebra = d.algebra
    trivial = shared_trivial_vertex(g1, g2, algebra)
    if trivial is not None:
        return Exemption(True, SHARED_TRIVIAL_VERTEX, trivial)
    if len(g1) == 2 and len(g2) == 2:
        for v in sorted(set(g1) & set(g2)):
            if algebra.factors[v.factor_index].kind is not FactorKind.QUATERNION:
                continue
            other1 = g1[0] if g1[1] == v else g1[1]
            other2 = g2[0] if g2[1] == v else g2[1]
            if other2 == other1.conjugated(algebra):
                return Exemption(True, QUATERNION_CONJUGATE_PAIR, v)
    return Exemption(False)


def pair_exemptions(d: KrajewskiDiagram, bound: int) -> dict:
    """Each pair of Γ̃-cycles of total length up to bound, in the order of
    ``cycle_pairs``, mapped to its exemption."""
    pairs = cycle_pairs(diagram_cycles(d, bound), bound)
    return {(c1, c2): exemption_check(c1, c2, d) for c1, c2 in pairs}


def lift_pair(g1: Cycle, g2: Cycle, d: KrajewskiDiagram) -> LiftWitness | None:
    """A single closed walk lifting g1 along ψ and g2 along ψ∘j, or None.

    The walk has exactly len(g1) horizontal and len(g2) vertical steps and
    may revisit vertices (a figure-eight through a shared vertex is a valid
    lift).  Horizontal steps fix the row, so their column trace — read
    cyclically — must reproduce g1; vertical steps fix the column, so their
    row trace must reproduce g2 in either orientation.
    """
    index = d.index
    for b_seq in (tuple(g2), tuple(reversed(g2))):
        for r1 in range(len(g1)):
            a_rot = tuple(g1[r1:]) + tuple(g1[:r1])
            for r2 in range(len(g2)):
                b_rot = b_seq[r2:] + b_seq[:r2]
                for start in index.cells.get((a_rot[0], b_rot[0]), ()):
                    for vertices, edges, _parts in closed_walks(index, start, a_rot, b_rot):
                        return LiftWitness(vertices, edges)
    return None


def check_r_connected(
    d: KrajewskiDiagram, m: int, strict_bounds: bool = False
) -> RConnectReport:
    return _check_r_connected(d, m, strict_bounds)


def _check_r_connected(d: KrajewskiDiagram, m: int, strict_bounds: bool) -> RConnectReport:
    bound = m - 1 if strict_bounds else m
    cycles = diagram_cycles(d, bound) if bound >= 2 else ()

    cond1 = tuple(CycleLift(c, lift_cycle(c, d)) for c in cycles)

    exemptions = pair_exemptions(d, bound) if bound >= 2 else {}
    cond2 = []
    for (c1, c2), ex in exemptions.items():
        witness = None
        if not ex.exempt:
            witness = lift_pair(c1, c2, d) or lift_pair(c2, c1, d)
        cond2.append(PairLift((c1, c2), ex, witness))

    cond3 = []
    max_tuple = bound // 2
    for r in range(3, max_tuple + 1):
        for combo in combinations_with_replacement(cycles, r):
            if sum(len(c) for c in combo) > bound:
                continue
            # each pair in the tuple has total length at most bound - 2
            if all(exemptions[pair].exempt for pair in combinations(combo, 2)):
                continue
            cond3.append(tuple(combo))

    return RConnectReport(m, strict_bounds, cond1, tuple(cond2), tuple(cond3))


def required_counterterms(d: KrajewskiDiagram) -> tuple[InvariantTerm, ...]:
    return _required_counterterms(d)


def _required_counterterms(d: KrajewskiDiagram) -> tuple[InvariantTerm, ...]:
    algebra = d.algebra
    terms = list(_gauge_and_edge_terms(d)[1])

    # (blocks, origin) of each quartic: the strict 4-cycles, then the pairs
    # of total length up to 4, which are all pairs of 2-cycles
    cycles = diagram_cycles(d, 4)
    quartics = [
        ((_cycle_block(c),), f"4-cycle {cycle_display(c, algebra)}")
        for c in cycles if len(c) == 4
    ]
    two_cycles = tuple(c for c in cycles if len(c) == 2)
    block_of = {c: _cycle_block(c) for c in two_cycles}
    shown = {c: cycle_display(c, algebra) for c in two_cycles}
    for (c1, c2), ex in pair_exemptions(d, 4).items():
        b1, b2 = block_of[c1], block_of[c2]
        origin = f"cycle pair {shown[c1]} + {shown[c2]}"
        if ex.clause == SHARED_TRIVIAL_VERTEX:
            collapsed = _collapse_at(b1, b2, ex.vertex)
            quartics.append(((collapsed,), f"{origin}, collapsed at the shared trivial vertex"))
        elif not ex.exempt:  # a quaternion-conjugate pair gives no term
            quartics.append((tuple(sorted((b1, b2))), origin))
    terms.extend(
        InvariantTerm(TermKind.QUARTIC, blocks, "independent coefficient per index tuple", origin)
        for blocks, origin in quartics
    )

    unique: dict = {}
    for t in terms:
        unique.setdefault(_built_key(t), t)
    return tuple(unique.values())


def counterterm_coverage(d: KrajewskiDiagram) -> CoverageReport:
    """Match each required counterterm to a generated action term.

    Matching is by canonical trace structure; a generated double trace that
    admits a collapse at a trivial vertex is indexed under both its double
    and its collapsed single form.
    """
    algebra = d.algebra
    index: dict = {}
    for t in action_terms(d):
        index.setdefault(_built_key(t), t)
        if t.kind is TermKind.QUARTIC and len(t.blocks) == 2:
            collapsed = collapse_blocks(t.blocks[0], t.blocks[1], algebra)
            if collapsed is not None:
                index.setdefault((TermKind.QUARTIC.value, (collapsed,)), t)
    entries = tuple(
        CoverageEntry(req, index.get(_built_key(req)))
        for req in required_counterterms(d)
    )
    return CoverageReport(entries)
