"""The pair stages from the definition, kept as the reference the fast
stages are compared against.

``exemption_check``, ``pair_exemptions``, ``lift_pair``,
``check_r_connected``, ``required_counterterms`` and
``counterterm_coverage`` decide and derive everything afresh on every call
and store nothing on the diagram.  Γ̃ and its cycles come from
``oracle_cycles``, the generated terms, blocks, term keys and the F² and
edge terms from ``oracle_walks``, and the pair lift walks with the frozen
kernel of ``oracle_kernel``.  The pair list, the trivial-vertex test, the
collapse at a shared trivial vertex and the displays are written here.

One analysis of ``kra`` is used: ``kra.graphs.lift_cycle`` decides
condition 1.  The exhaustive search of ``oracle_lift`` takes seconds on a
grid of k = 4 and does not finish on k = 5, and ``test_lift_oracle``
checks ``lift_cycle`` against it, witness for witness, where it can.

The reading of the exemption encoded here is the one ``kra`` has, which
the paper's definition may not share (ROADMAP item 13): a pair of cycles
that shares a trivial vertex is excused from a lift in condition 2, but
its collapsed single trace is still a required counterterm.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from kra.algebra import FactorKind, FiniteAlgebra, RepLabel
from kra.diagram import KrajewskiDiagram
from kra.graphs import Cycle, LiftWitness, lift_cycle
from kra.invariants import CoverageEntry, CoverageReport, InvariantTerm, TermKind
from kra.rconnect import (
    QUATERNION_CONJUGATE_PAIR,
    SHARED_TRIVIAL_VERTEX,
    CycleLift,
    Exemption,
    PairLift,
    RConnectReport,
)

from oracle_cycles import diagram_cycles
from oracle_kernel import closed_walks
from oracle_walks import (
    action_terms, canonical_block, gauge_and_edge_terms, term_key, walk_block,
)


def cycle_pairs(cycles, total_len: int) -> tuple[tuple[Cycle, Cycle], ...]:
    """Unordered pairs (with repetition) of total length up to total_len:
    (c_i, c_j) with i <= j, in lexicographic order of (i, j)."""
    return tuple((c1, c2) for c1, c2 in combinations_with_replacement(cycles, 2)
                 if len(c1) + len(c2) <= total_len)


def cycle_display(cycle: Cycle, algebra: FiniteAlgebra) -> str:
    """Each step of the cycle as "(a b)", closing step included."""
    labels = [v.display(algebra) for v in cycle]
    return "".join(f"({a} {b})" for a, b in zip(labels, labels[1:] + labels[:1]))


def shared_trivial_vertex(a, b, algebra: FiniteAlgebra) -> RepLabel | None:
    """The least label in both a and b whose factor is C (complex, size 1),
    or None."""
    for v in sorted(set(a) & set(b)):
        factor = algebra.factors[v.factor_index]
        if factor.kind is FactorKind.COMPLEX and factor.size == 1:
            return v
    return None


def _sources(block) -> list[RepLabel]:
    """The label each slot of a block leaves from."""
    return [s.edge[0] if s.forward else s.edge[1] for s in block]


def collapse_at(b1, b2, v: RepLabel):
    """The single trace of b1 and b2, each rotated to leave v first, joined."""
    i, j = _sources(b1).index(v), _sources(b2).index(v)
    return canonical_block(b1[i:] + b1[:i] + b2[j:] + b2[:j])


def collapse_blocks(b1, b2, algebra: FiniteAlgebra):
    """The single trace of a double trace at its least shared trivial
    vertex, or None: a trace over a one-dimensional representation is a
    number, so the two traces multiply into one there."""
    v = shared_trivial_vertex(_sources(b1), _sources(b2), algebra)
    return None if v is None else collapse_at(b1, b2, v)


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
    algebra = d.algebra
    terms = gauge_and_edge_terms(d)[1]

    # (blocks, origin) of each quartic: the strict 4-cycles, then the pairs
    # of total length up to 4, which are all pairs of 2-cycles
    cycles = diagram_cycles(d, 4)
    quartics = [
        ((canonical_block(walk_block(c)),), f"4-cycle {cycle_display(c, algebra)}")
        for c in cycles if len(c) == 4
    ]
    for (c1, c2), ex in pair_exemptions(d, 4).items():
        b1, b2 = canonical_block(walk_block(c1)), canonical_block(walk_block(c2))
        origin = f"cycle pair {cycle_display(c1, algebra)} + {cycle_display(c2, algebra)}"
        if ex.clause == SHARED_TRIVIAL_VERTEX:
            collapsed = collapse_at(b1, b2, ex.vertex)
            quartics.append(((collapsed,), f"{origin}, collapsed at the shared trivial vertex"))
        elif not ex.exempt:  # a quaternion-conjugate pair gives no term
            quartics.append((tuple(sorted((b1, b2))), origin))
    terms.extend(
        InvariantTerm(TermKind.QUARTIC, blocks, "independent coefficient per index tuple", origin)
        for blocks, origin in quartics
    )

    unique: dict = {}
    for t in terms:
        unique.setdefault(term_key(t), t)
    return tuple(unique.values())


def counterterm_coverage(d: KrajewskiDiagram, generated=None) -> CoverageReport:
    """Match each required counterterm to a generated action term, the
    first of ``generated`` (by default ``oracle_walks.action_terms(d)``).

    Matching is by canonical trace structure; a generated double trace that
    admits a collapse at a trivial vertex is indexed under both its double
    and its collapsed single form.
    """
    algebra = d.algebra
    index: dict = {}
    for t in action_terms(d) if generated is None else generated:
        index.setdefault(term_key(t), t)
        if t.kind is TermKind.QUARTIC and len(t.blocks) == 2:
            collapsed = collapse_blocks(t.blocks[0], t.blocks[1], algebra)
            if collapsed is not None:
                index.setdefault((TermKind.QUARTIC.value, (collapsed,)), t)
    entries = tuple(
        CoverageEntry(req, index.get(term_key(req)))
        for req in required_counterterms(d)
    )
    return CoverageReport(entries)
