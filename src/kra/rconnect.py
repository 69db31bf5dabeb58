"""R-connectedness in dimension m: three lifting conditions with witnesses.

A diagram is R-connected in dimension m when

1. every Γ̃-cycle of length up to m lifts to a cycle of the diagram,
2. every pair of Γ̃-cycles of total length up to m lifts to a single closed
   walk — unless the pair is exempt because the two cycles share a trivial
   vertex, and
3. no tuples of three or more cycles of total length up to m fail the
   mutual-shared-trivial-vertex requirement (vacuous for m ≤ 4, since three
   cycles have total length at least 6).

Exemption has two clauses.  The first: the cycles share a vertex carrying a
one-dimensional complex representation ("1" or "1̄"), where the trace pair
collapses to a single trace.  The second: two length-2 cycles meet at a
quaternionic vertex and their far endpoints are conjugate to each other;
there the pseudo-real structure of the quaternionic representation lets the
paired invariant decompose into invariants already generated along single
cycles, so no independent counterterm arises.

``pair_exemptions`` decides each pair once per diagram and length bound;
conditions 2 and 3 and the double-trace counterterms all read its table.

By default the length bounds are inclusive (≤ m), which is the reading the
worked examples require; ``strict_bounds`` switches to the literal "< m".

The records ``Exemption``, ``CycleLift``, ``PairLift`` and ``RConnectReport``
are named tuples: one is built per pair, so they cost no more than a tuple.
A record equals the plain tuple of its fields, iterates over them, and is
copied with ``_replace``.  The pair loop builds each ``PairLift`` with
``tuple.__new__(PairLift, fields)``, the cheapest way to build a named
tuple: it skips the Python frame and the length check of ``_make``.
"""

from __future__ import annotations

from bisect import bisect_right
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .algebra import FactorKind, FiniteAlgebra, RepLabel
from .diagram import KrajewskiDiagram
from .graphs import (
    Cycle,
    LiftWitness,
    diagram_cycles,
    lift_cycle,
    lift_pair,
)

__all__ = [
    "Exemption",
    "RConnectReport",
    "exemption_check",
    "check_r_connected",
    "SHARED_TRIVIAL_VERTEX",
    "QUATERNION_CONJUGATE_PAIR",
]

SHARED_TRIVIAL_VERTEX = "shared-trivial-vertex"
QUATERNION_CONJUGATE_PAIR = "quaternion-conjugate-pair"


class Exemption(NamedTuple):
    exempt: bool
    clause: str | None = None
    vertex: RepLabel | None = None


_NOT_EXEMPT = Exemption(False)


def shared_trivial_vertex(
    a: Iterable[RepLabel], b: Iterable[RepLabel], algebra: FiniteAlgebra
) -> RepLabel | None:
    """The least label in both a and b that carries a one-dimensional
    complex representation ("1" or "1̄"), or None."""
    for v in sorted(set(a) & set(b)):
        factor = algebra.factors[v.factor_index]
        if factor.kind is FactorKind.COMPLEX and factor.size == 1:
            return v
    return None


def exemption_check(g1: Cycle, g2: Cycle, d: KrajewskiDiagram) -> Exemption:
    """Decide whether the pair (g1, g2) is excused from condition (2)."""
    if set(g1).isdisjoint(g2):  # both clauses need a shared vertex
        return _NOT_EXEMPT
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
    return _NOT_EXEMPT


def pair_exemptions(d: KrajewskiDiagram, bound: int) -> Mapping[tuple[Cycle, Cycle], Exemption]:
    """The exemption of each pair of Γ̃-cycles of total length up to bound,
    in the order of ``cycle_pairs``, decided once per diagram and bound.
    A pair with no common label is not exempt, with no call to
    ``exemption_check``: both clauses need a shared vertex."""

    def decide():
        cycles = diagram_cycles(d, bound)
        labels = [frozenset(c) for c in cycles]
        table = {}
        for i, j in _pair_indices(cycles, bound):
            c1, c2 = cycles[i], cycles[j]
            disjoint = labels[i].isdisjoint(labels[j])
            table[c1, c2] = _NOT_EXEMPT if disjoint else exemption_check(c1, c2, d)
        return MappingProxyType(table)

    return d.index.stage(("exemptions", bound), decide)


def _pair_indices(cycles: tuple[Cycle, ...], bound: int) -> Iterable[tuple[int, int]]:
    """The positions (i, j), i <= j, of the pairs of cycles of total length
    up to bound, in the order of ``pair_exemptions``; the cycles are sorted
    by length, so the partners of i end before the first too long for it."""
    lengths = [len(c) for c in cycles]
    return ((i, j) for i, k in enumerate(lengths)
            for j in range(i, bisect_right(lengths, bound - k)))


class CycleLift(NamedTuple):
    cycle: Cycle
    witness: LiftWitness | None

    @property
    def ok(self) -> bool:
        return self.witness is not None


class PairLift(NamedTuple):
    pair: tuple[Cycle, Cycle]
    exemption: Exemption
    witness: LiftWitness | None

    @property
    def status(self) -> str:
        if self.exemption.exempt:
            return "exempt"
        return "lifted" if self.witness is not None else "missing"

    @property
    def ok(self) -> bool:
        return self.status != "missing"


class RConnectReport(NamedTuple):
    dimension: int
    strict_bounds: bool
    cond1: tuple[CycleLift, ...]
    cond2: tuple[PairLift, ...]
    cond3: tuple[tuple[Cycle, ...], ...]

    @property
    def verdict(self) -> bool:
        return (
            all(entry.ok for entry in self.cond1)
            and all(entry.ok for entry in self.cond2)
            and not self.cond3
        )


def check_r_connected(
    d: KrajewskiDiagram, m: int, strict_bounds: bool = False
) -> RConnectReport:
    """Evaluate the three conditions in dimension m and collect witnesses.

    The report is computed once per diagram, m and strict_bounds."""
    if m < 0:
        raise ValueError("dimension must be non-negative")
    return d.index.stage(
        ("check_r_connected", m, strict_bounds),
        lambda: _check_r_connected(d, m, strict_bounds),
    )


def _check_r_connected(d: KrajewskiDiagram, m: int, strict_bounds: bool) -> RConnectReport:
    bound = m - 1 if strict_bounds else m
    cycles = diagram_cycles(d, bound) if bound >= 2 else ()

    cond1 = tuple(CycleLift(c, lift_cycle(c, d)) for c in cycles)

    exemptions = pair_exemptions(d, bound) if bound >= 2 else {}
    # the rows the columns of each cycle hold: lift_pair(c1, c2, d) starts a
    # walk only in a cell (column of c1, row of c2), so it finds none when
    # this set for c1 misses c2.  Its own edge test would refuse such a pair
    # too, but this set test saves the call for each pair it refuses: on
    # path n the calls are 2(n - 1), against about n^2 without it
    columns, vertices = d.index.columns, d.index.vertices
    reach = [frozenset(vertices[vid].row for col in c for vid in columns.get(col, ()))
             for c in cycles]
    cond2 = []
    for (i, j), (pair, ex) in zip(_pair_indices(cycles, bound), exemptions.items()):
        witness = None
        if not ex.exempt:
            c1, c2 = pair
            if not reach[i].isdisjoint(c2):
                witness = lift_pair(c1, c2, d)
            if witness is None and not reach[j].isdisjoint(c1):
                witness = lift_pair(c2, c1, d)
        cond2.append(tuple.__new__(PairLift, (pair, ex, witness)))

    cond3 = _condition_three(cycles, exemptions, bound)
    return RConnectReport(m, strict_bounds, cond1, tuple(cond2), cond3)


def _condition_three(
    cycles: tuple[Cycle, ...], exemptions: Mapping[tuple[Cycle, Cycle], Exemption], bound: int
) -> tuple[tuple[Cycle, ...], ...]:
    """The tuples of three or more cycles, of total length at most bound,
    with a pair that is not exempt: by size, each size in the order of
    ``combinations_with_replacement(cycles, r)``.

    One depth-first walk over the nondecreasing index tuples visits each
    tuple once, after its prefix, so that the tuples of each size come in
    that order.  Each pair in a tuple has total length at most bound - 2,
    so the table holds it.  A member is checked when it is added: against
    each distinct member before it, or against itself on a repeat.  Cycles
    are sorted by length, so a prefix stops growing at the first cycle that
    does not fit."""
    if bound < 6:
        return ()  # three cycles have total length at least 6
    if all(ex.exempt for ex in exemptions.values()):
        return ()  # no tuple holds a pair that is not exempt
    exempt_with: list[set[int]] = [set() for _ in cycles]  # i -> the j >= i it is exempt with
    for (i, j), ex in zip(_pair_indices(cycles, bound), exemptions.values()):
        if ex.exempt:
            exempt_with[i].add(j)
    lengths = [len(c) for c in cycles]
    found: dict[int, list[tuple[Cycle, ...]]] = {}  # size -> the tuples of that size
    members: list[int] = []  # the tuple, as indices into cycles
    distinct: list[int] = []  # its members without repeats
    # the total length of the tuple and whether all its pairs are exempt, for
    # the empty tuple and then for each prefix of members
    frames = [(0, True)]
    nxt = 0  # the least index the next member may take
    while True:
        size, ok = frames[-1]
        if nxt < len(cycles) and size + lengths[nxt] <= bound:
            repeat = bool(members) and members[-1] == nxt
            if ok:
                ok = nxt in exempt_with[nxt] if repeat else all(
                    nxt in exempt_with[i] for i in distinct
                )
            members.append(nxt)
            if not repeat:
                distinct.append(nxt)
            frames.append((size + lengths[nxt], ok))
            if not ok and len(members) >= 3:
                found.setdefault(len(members), []).append(tuple(cycles[i] for i in members))
            continue
        if not members:
            break
        last = members.pop()
        frames.pop()
        if not members or members[-1] != last:
            distinct.pop()
        nxt = last + 1
    return tuple(t for size in sorted(found) for t in found[size])
