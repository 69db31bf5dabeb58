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

Two readings are open (ROADMAP item 13): a pair exempt at a shared trivial
vertex needs no lift here, yet ``invariants`` requires its collapsed trace;
and ``lift_cycle`` lets vertical steps pad a lift, yet only a four-step walk
generates a quartic.  The candidates: (a) that exemption also requires the
collapsed figure-eight to lift; (b) at m = 4 a 4-cycle needs an unpadded
lift; (c) R-connectedness stays as it is, and the verdict gains complete
coverage as a third hypothesis.

``_Pairing`` numbers and enumerates the pairs of cycles within a length
bound and decides each pair's exemption, once per diagram and bound;
conditions 2 and 3 and the double-trace counterterms all read it.  A pair
can be exempt only when its cycles share a label, and lift only when they
meet in an occupied cell (a column of one holding a row of the other).  A
label -> cycles incidence, built once per cycle list, finds those pairs for
``exemption_check`` and ``lift_pair``; all others are built in bulk.

By default the length bounds are inclusive (≤ m), which is the reading the
worked examples require; ``strict_bounds`` switches to the literal "< m".

The records ``Exemption``, ``CycleLift``, ``PairLift`` and ``RConnectReport``
are named tuples: one is built per pair, so they cost no more than a tuple.
A record equals the plain tuple of its fields, iterates over them, and is
copied with ``_replace``.  Condition 2 maps ``tuple.__new__(PairLift,
fields)`` over the pairs, the cheapest way to build a named tuple: it skips
the Python frame and the length check of ``_make``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import FactorKind, RepLabel
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


def _factor_sets(d: KrajewskiDiagram) -> tuple[frozenset[int], frozenset[int]]:
    """(the indices of d's one-dimensional complex factors, those of its
    quaternionic factors), read once per diagram."""

    def read():
        factors = list(enumerate(d.algebra.factors))
        return (frozenset(i for i, f in factors if f.kind is FactorKind.COMPLEX and f.size == 1),
                frozenset(i for i, f in factors if f.kind is FactorKind.QUATERNION))

    return d.index.stage("factor_sets", read)


def exemption_check(g1: Cycle, g2: Cycle, d: KrajewskiDiagram) -> Exemption:
    """Decide whether the pair (g1, g2) is excused from condition (2)."""
    shared = sorted(set(g1).intersection(g2))
    if not shared:  # both clauses need a shared vertex
        return _NOT_EXEMPT
    trivial, quaternionic = _factor_sets(d)
    for v in shared:
        if v.factor_index in trivial:
            return Exemption(True, SHARED_TRIVIAL_VERTEX, v)
    if len(g1) == 2 and len(g2) == 2:
        for v in shared:
            if v.factor_index not in quaternionic:
                continue
            other1 = g1[0] if g1[1] == v else g1[1]
            other2 = g2[0] if g2[1] == v else g2[1]
            if other2 == other1.conjugated(d.algebra):
                return Exemption(True, QUATERNION_CONJUGATE_PAIR, v)
    return _NOT_EXEMPT


class _Pairing(NamedTuple):
    """The pairs of cycles of total length up to a bound and the exemption
    of each.  The cycles are sorted by length, so the partners j >= i of
    cycle i end at ``stops[i]``, before the first too long for it, and pair
    (i, j) is number ``firsts[i] + j - i`` of the pairs i <= j in
    lexicographic order of cycle index.  ``exemptions`` holds each pair's
    ``Exemption`` by that number.  ``through`` maps a label to the numbers
    of the cycles through it, ascending."""

    cycles: tuple[Cycle, ...]
    stops: list[int]
    firsts: list[int]
    through: dict[RepLabel, list[int]]
    exemptions: tuple[Exemption, ...]

    def pairs(self, items: Sequence) -> Iterator[tuple]:
        """(items[i], items[j]) for each pair (i, j) in order of number, for
        a sequence indexed as the cycles are: the cycles themselves, or
        ``range(len(cycles))`` for the index pairs."""
        return chain.from_iterable(zip(repeat(x), items[i:stop])
                                   for i, (x, stop) in enumerate(zip(items, self.stops)))

    def meeting(self, labels_of: Iterable[Iterable[RepLabel]]) -> list[tuple[int, int]]:
        """The pairs (i, j) within the bound, in order, such that cycle j
        passes through one of ``labels_of[i]`` or cycle i through one of
        ``labels_of[j]``."""
        stops, through = self.stops, self.through
        return sorted({(i, j) if i <= j else (j, i) for i, labels in enumerate(labels_of)
                       for v in labels for j in through.get(v, ())
                       if (j < stops[i] if i <= j else i < stops[j])})


def _pairing(d: KrajewskiDiagram, bound: int) -> _Pairing:
    """The pairing of ``diagram_cycles(d, bound)``, bound >= 2, built once
    per diagram and bound for conditions 2 and 3 and the double-trace
    counterterms.  Every pair starts not exempt, and only the pairs whose
    cycles share a label, found through the label incidence, go to
    ``exemption_check``: both clauses need a shared vertex."""

    def build():
        cycles = diagram_cycles(d, bound)
        lengths = [len(c) for c in cycles]
        stops, firsts, through = [], [0], {}
        for i, c in enumerate(cycles):
            stops.append(bisect_right(lengths, bound - lengths[i]))
            firsts.append(firsts[i] + max(stops[i] - i, 0))
            for v in c:
                through.setdefault(v, []).append(i)
        pairing = _Pairing(cycles, stops, firsts, through, ())
        decided = [_NOT_EXEMPT] * firsts[-1]
        for i, j in pairing.meeting(cycles):
            decided[firsts[i] + j - i] = exemption_check(cycles[i], cycles[j], d)
        return pairing._replace(exemptions=tuple(decided))

    return d.index.stage(("pairing", bound), build)


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
    if bound < 2:
        return RConnectReport(m, strict_bounds, (), (), ())  # no cycle is that short
    pairing = _pairing(d, bound)
    cycles = pairing.cycles

    cond1 = tuple(CycleLift(c, lift_cycle(c, d)) for c in cycles)

    exemptions = pairing.exemptions
    # the rows the columns of each cycle hold: lift_pair(c1, c2, d) starts a
    # walk only in a cell (column of c1, row of c2), so it finds none when
    # this set for c1 misses c2.  Only the pairs where one set meets the
    # other cycle are visited: on path n they are n, of about n^2 / 2
    columns, vertices = d.index.columns, d.index.vertices
    reach = [frozenset(vertices[vid].row for col in c for vid in columns.get(col, ()))
             for c in cycles]
    witnesses = [None] * len(exemptions)
    for i, j in pairing.meeting(reach):
        at = pairing.firsts[i] + j - i
        if not exemptions[at].exempt:
            c1, c2 = cycles[i], cycles[j]
            witness = lift_pair(c1, c2, d) if not reach[i].isdisjoint(c2) else None
            if witness is None and not reach[j].isdisjoint(c1):
                witness = lift_pair(c2, c1, d)
            witnesses[at] = witness
    cond2 = tuple(map(tuple.__new__, repeat(PairLift),
                      zip(pairing.pairs(cycles), exemptions, witnesses)))

    cond3 = _condition_three(pairing, bound)
    return RConnectReport(m, strict_bounds, cond1, cond2, cond3)


def _condition_three(pairing: _Pairing, bound: int) -> tuple[tuple[Cycle, ...], ...]:
    """The tuples of three or more cycles, of total length at most bound,
    with a pair that is not exempt: by size, each size in lexicographic
    order of its nondecreasing tuples of cycle index.

    One depth-first walk over those index tuples visits each tuple once,
    after its prefix, so that the tuples of each size come in that order.
    Each pair in a tuple has total length at most bound - 2, so it is within
    the bound and its number indexes the exemptions.  A member is checked
    when it is added: against each distinct member before it, or against
    itself on a repeat.  Cycles are sorted by length, so a prefix stops
    growing at the first cycle that does not fit."""
    if bound < 6:
        return ()  # three cycles have total length at least 6
    cycles, _, firsts, _, exemptions = pairing
    if all(ex.exempt for ex in exemptions):
        return ()  # no tuple holds a pair that is not exempt
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
            repeated = bool(members) and members[-1] == nxt
            if ok:
                ok = exemptions[firsts[nxt]].exempt if repeated else all(
                    exemptions[firsts[i] + nxt - i].exempt for i in distinct
                )
            members.append(nxt)
            if not repeated:
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
