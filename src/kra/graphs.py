"""Projection onto the horizontal axis, cycle enumeration, and lifts.

The projected graph Γ̃ has one vertex per column label occurring in the
diagram and one unordered edge {a, b} for every pair of column labels joined
by some edge pair; vertical edge pairs (and the diagonal Dirac part) project
to loops.  A cycle is a closed path with no repeated vertices other than the
base and no loop edges; back-and-forth traversal of a single edge is the
minimal (length-2) cycle.

Lifts run in the opposite direction: a Γ̃-cycle lifts to a cycle of the
diagram whose projection, after deleting loop images, coincides with it up
to cyclic rotation, and a *pair* of Γ̃-cycles lifts to a single closed walk
whose horizontal steps project onto the first cycle while its vertical
steps, read through the reflection j, project onto the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .algebra import FiniteAlgebra, RepLabel
from .diagram import _DELTA, _J_DELTA_J, DiagramIndex, KrajewskiDiagram, proj_edge

__all__ = [
    "Cycle",
    "ProjEdge",
    "ProjectedGraph",
    "LiftWitness",
    "proj_edge",
    "project",
    "canonical_cycle",
    "cycle_display",
    "enumerate_cycles",
    "diagram_cycles",
    "lift_cycle",
    "lift_pair",
]

Cycle = tuple[RepLabel, ...]
"""A cycle as its vertex sequence ``(v0, …, v_{k-1})``; the closing edge
``v_{k-1}–v0`` is implicit."""

ProjEdge = tuple[RepLabel, RepLabel]
"""An unordered Γ̃-edge stored as an ordered pair ``lo <= hi``."""


def cycle_display(cycle: Cycle, algebra: FiniteAlgebra) -> str:
    n = len(cycle)
    return "".join(
        f"({cycle[i].display(algebra)} {cycle[(i + 1) % n].display(algebra)})"
        for i in range(n)
    )


def edge_display(edge: ProjEdge, algebra: FiniteAlgebra) -> str:
    return f"{{{edge[0].display(algebra)},{edge[1].display(algebra)}}}"


@dataclass(frozen=True)
class ProjectedGraph:
    vertices: tuple[RepLabel, ...]
    edges: tuple[ProjEdge, ...]
    psi: Mapping[str, ProjEdge]

    @cached_property
    def _neighbors(self) -> dict[RepLabel, tuple[RepLabel, ...]]:
        out: dict[RepLabel, set[RepLabel]] = {}
        for a, b in self.non_loop_edges:
            out.setdefault(a, set()).add(b)
            out.setdefault(b, set()).add(a)
        return {v: tuple(sorted(w)) for v, w in out.items()}

    @property
    def non_loop_edges(self) -> tuple[ProjEdge, ...]:
        return tuple(e for e in self.edges if e[0] != e[1])

    def neighbors(self, v: RepLabel) -> tuple[RepLabel, ...]:
        return self._neighbors.get(v, ())


def project(d: KrajewskiDiagram) -> ProjectedGraph:
    """Γ̃ together with the edge projection ψ, built once per diagram.  An
    edge with an unknown endpoint has no image, as in every index table."""
    return d.index.stage("project", lambda: _project(d))


def _project(d: KrajewskiDiagram) -> ProjectedGraph:
    vertices = sorted({v.col for v in d.vertices})
    psi = {e.id: proj_edge(s.col, t.col) for e, s, t, _part in d.index.known_edges}
    return ProjectedGraph(
        tuple(vertices), tuple(sorted(set(psi.values()))), MappingProxyType(psi)
    )


def least_rotation(seq: tuple, mirror: tuple) -> tuple:
    """The lexicographically least rotation of ``seq`` or of ``mirror``, its
    image under the orbit's reflection (a reversal, or a dagger for trace
    blocks).  Each rotation is one slice of a doubled sequence, and the
    candidates are built in a list: ``min`` over a generator is slower on
    the short sequences met here."""
    n = len(seq)
    return min([w[r:r + n] for w in (seq + seq, mirror + mirror) for r in range(n)])


def canonical_cycle(seq: Cycle) -> Cycle:
    """Lexicographically least vertex sequence over rotations and reversals."""
    seq = tuple(seq)
    return least_rotation(seq, seq[::-1])


def enumerate_cycles(g: ProjectedGraph, max_len: int) -> tuple[Cycle, ...]:
    """All cycles of length 2..max_len, one canonical representative each.

    Loop edges never participate; a single non-loop edge traversed forth and
    back is the minimal cycle.  Deterministic order: by length, then by the
    canonical vertex sequence.

    Each cycle of three or more vertices is found once, from its least
    vertex s: one depth-first loop over an explicit stack per start enters
    only vertices greater than s, and keeps a closed path only when its
    second vertex is less than its last, which leaves out the reversal.
    That path is already the canonical sequence.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    found: list[Cycle] = list(g.non_loop_edges)  # each (lo, hi) is canonical
    if max_len >= 3:
        neighbors = g._neighbors
        for start in g.vertices:
            first = neighbors.get(start, ())
            if len(first) < 2 or first[-2] < start:
                continue  # a cycle through its least vertex uses two neighbours above it
            path, on_path = [start], {start}
            stack = [iter(first)]
            while stack:
                for nxt in stack[-1]:
                    if nxt == start:
                        if len(path) >= 3 and path[1] < path[-1]:
                            found.append(tuple(path))
                    elif nxt > start and nxt not in on_path and len(path) < max_len:
                        path.append(nxt)
                        on_path.add(nxt)
                        stack.append(iter(neighbors.get(nxt, ())))
                        break
                else:
                    stack.pop()
                    on_path.discard(path.pop())
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def diagram_cycles(d: KrajewskiDiagram, max_len: int) -> tuple[Cycle, ...]:
    """``enumerate_cycles(project(d), max_len)``, enumerated once per
    diagram and bound."""
    return d.index.stage(("cycles", max_len), lambda: enumerate_cycles(project(d), max_len))


@dataclass(frozen=True)
class LiftWitness:
    """A closed walk in the diagram: step i runs vertices[i] -> vertices[i+1]
    (cyclically) along the edge pair edges[i]."""

    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.edges)


def walk_display(vertices: Sequence[str]) -> str:
    """A closed walk as text: its vertices joined by arrows, back to the first."""
    return " -> ".join([*vertices, *vertices[:1]])


def lift_cycle(gamma_tilde: Cycle, d: KrajewskiDiagram) -> LiftWitness | None:
    """A diagram cycle whose ψ-image modulo loops is gamma_tilde, or None.

    A lift is a diagram cycle (no repeated vertices besides the base; steps
    of any Dirac part may pad it, since vertical and diagonal steps project
    to loops) whose column trace, repeats collapsed, equals gamma_tilde up to
    rotation only.  Returns the least witness by (length, vertex sequence),
    taking the least id among parallel edges.  The search tries one length
    at a time, neighbours in id order, and extends a path only while its
    collapsed trace is a forward window of the cyclic word at most one
    letter longer than it, as every prefix of a lift is.  Padding keeps the
    trace, so only the length bounds a round.

    A 2-cycle (a, b), a ≠ b, lifts by one lookup in ``_two_cycle_lifts``,
    which holds what the first round would find: the first start with a
    neighbour in the other column, the first such neighbour and their least
    edge id both ways.  With no edge between the two columns the trace
    never changes column, so there is no lift.
    """
    target = tuple(gamma_tilde)
    k = len(target)
    if k == 2 and target[0] != target[1]:
        return _two_cycle_lifts(d).get(target)
    index = d.index
    vertices = index.vertices
    # a vertex outside the target's columns has no window offset to start from
    starts = sorted(vid for col in set(target) for vid in index.columns.get(col, ()))
    # a window from r that covers the word closes unless it ends on target[r]
    closes = [k == 1 or target[r - 1] != target[r] for r in range(k)]
    # a lift's trace grows by one per column change and must reach k to
    # close, so no lift has fewer than k vertices
    for length in range(max(2, k), len(vertices) + 1):
        reached = False  # whether any admissible path has `length` vertices
        for start in starts:
            # one frame per path vertex: its neighbour iterator, the window
            # offsets still consistent with the trace, and the trace length
            offsets = tuple(r for r in range(k) if target[r] == vertices[start].col)
            stack = [(iter(index.neighbors[start]), offsets, 1)]
            path, edges, on_path = [start], [], {start}
            while stack:
                steps, live, m = stack[-1]
                for nxt, eid in steps:
                    if len(path) == length:
                        if nxt == start and (m > k or m == k and any(closes[r] for r in live)):
                            return LiftWitness(tuple(path), tuple(edges + [eid]))
                        continue
                    if nxt in on_path:
                        continue
                    grown, size = live, m
                    col = vertices[nxt].col
                    if col != vertices[path[-1]].col:
                        grown = tuple(r for r in live if target[(r + m) % k] == col)
                        size = m + 1
                        if not grown or size > k + 1:
                            continue
                    path.append(nxt)
                    edges.append(eid)
                    on_path.add(nxt)
                    stack.append((iter(index.neighbors[nxt]), grown, size))
                    reached |= len(path) == length
                    break
                else:
                    stack.pop()
                    on_path.discard(path.pop())
                    del edges[-1:]
        if not reached:
            break  # admissible paths are closed under prefixes: none is longer
    return None


def _two_cycle_lifts(d: KrajewskiDiagram) -> Mapping[Cycle, LiftWitness]:
    """(a, b) and (b, a) -> the lift of the 2-cycle (a, b), once per diagram:
    both ways along the least (low endpoint id, high endpoint id, edge id) of
    the known edges of any part from column a to column b."""

    def build():
        lifts: dict = {}
        for lo, hi, eid, a, b in sorted((*proj_edge(s.id, t.id), e.id, s.col, t.col)
                                        for e, s, t, _part in d.index.known_edges if s.col != t.col):
            if (a, b) not in lifts:
                lifts[a, b] = lifts[b, a] = LiftWitness((lo, hi), (eid, eid))
        return lifts

    return d.index.stage("two_cycle_lifts", build)


def lift_pair(g1: Cycle, g2: Cycle, d: KrajewskiDiagram) -> LiftWitness | None:
    """A single closed walk lifting g1 along ψ and g2 along ψ∘j, or None.

    The walk has exactly len(g1) horizontal and len(g2) vertical steps and
    may revisit vertices (a figure-eight through a shared vertex is a valid
    lift).  Horizontal steps fix the row, so their column trace — read
    cyclically — must reproduce g1; vertical steps fix the column, so their
    row trace must reproduce g2 in either orientation.  A pair is refused
    before any search when one of its steps has no edge over it in the
    rows or columns of the other cycle (``_edges_held``).
    """
    index = d.index
    if not _edges_held(g1, g2, index):
        return None
    g2 = tuple(g2)
    # a cycle of at most two labels read backwards is one of its rotations,
    # whose searches the first orientation has already made
    for b_seq in (g2,) if len(g2) <= 2 else (g2, g2[::-1]):
        for r1 in range(len(g1)):
            a_rot = tuple(g1[r1:]) + tuple(g1[:r1])
            for r2 in range(len(g2)):
                b_rot = b_seq[r2:] + b_seq[:r2]
                for start in index.cells.get((a_rot[0], b_rot[0]), ()):
                    if (witness := _first_walk(index, start, a_rot, b_rot)) is not None:
                        return witness
    return None


_EMPTY: frozenset = frozenset()


def _edges_held(g1: Cycle, g2: Cycle, index: DiagramIndex) -> bool:
    """Whether every step of g1 has a horizontal edge in some row of g2, and
    every step of g2 a vertical edge in some column of g1.

    A lift of the pair has one such edge for each step: the walk never
    leaves the rows of g2 and the columns of g1.  So the pair has no lift
    when this is false, and in particular when no cell (column of g1, row
    of g2) is occupied."""
    if not g1 or not g2:
        return False  # a walk starts in a cell (column of g1, row of g2)
    rows_of, cols_of = index.edge_tables
    return _steps_held(g1, rows_of, g2) and _steps_held(g2, cols_of, g1)


def _steps_held(cycle: Cycle, table: Mapping, other: Cycle) -> bool:
    """Whether ``table`` holds each step of ``cycle`` at a label of ``other``."""
    prev = cycle[-1]
    for label in cycle:
        if table.get(proj_edge(prev, label), _EMPTY).isdisjoint(other):
            return False
        prev = label
    return True


def _first_walk(index: DiagramIndex, start: str, cols: tuple, rows: tuple) -> LiftWitness | None:
    """The first closed walk from ``start`` with len(cols) horizontal and
    len(rows) vertical steps, in the order of ``index.steps``, or None;
    vertices may repeat.

    Horizontal step i must enter column cols[(i + 1) % len(cols)] and
    vertical step i row rows[(i + 1) % len(rows)]; step i runs from vertex
    i to vertex i + 1, cyclically.  cols and rows are nonempty and ``start``
    lies in the cell (cols[0], rows[0]), so a walk that has taken all steps
    but one closes by any edge back into ``start`` of the missing kind.

    One depth-first loop over an explicit stack, with no closure, so that
    nothing keeps the index alive past the call.
    """
    n, m = len(cols), len(rows)
    last = n + m - 1  # the steps a walk takes before its closing one
    steps, vertices = index.steps, index.vertices
    path, edges = [start], []
    stack = [(iter(steps[start]), 0, 0)]
    while stack:
        frame, i, j = stack[-1]
        for eid, nxt, part in frame:
            if part is _DELTA and i < n:
                if cols[(i + 1) % n] != vertices[nxt].col:
                    continue
                i2, j2 = i + 1, j
            elif part is _J_DELTA_J and j < m:
                if rows[(j + 1) % m] != vertices[nxt].row:
                    continue
                i2, j2 = i, j + 1
            else:
                continue
            if i2 + j2 < last:
                path.append(nxt)
                edges.append(eid)
                stack.append((iter(steps[nxt]), i2, j2))
                break
            # nxt is the last vertex before the closing step
            closing = _DELTA if i2 < n else _J_DELTA_J
            for back, other, p in steps[nxt]:
                if other == start and p is closing:
                    return LiftWitness((*path, nxt), (*edges, eid, back))
        else:
            stack.pop()
            path.pop()
            del edges[-1:]
    return None
