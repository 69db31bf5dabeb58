"""Γ̃ and its cycles from the definition, kept as the reference the fast
projection and enumeration are compared against.

``project`` joins the column labels of the two ends of every edge pair.
``enumerate_cycles`` is the recursion ``kra.graphs`` used before it searched
from each cycle's least vertex: from every vertex it reaches each cycle once
per rotation and direction, and keeps the canonical form of each in a set.
``canonical_cycle`` is the least of all rotations of the sequence and of its
reversal, listed one by one.  Nothing here calls an analysis of ``kra``.
"""

from __future__ import annotations

from kra.algebra import RepLabel
from kra.diagram import KrajewskiDiagram
from kra.graphs import Cycle, ProjectedGraph


def edge(a, b) -> tuple:
    """The unordered pair {a, b} as (lo, hi)."""
    return (a, b) if a <= b else (b, a)


def project(d: KrajewskiDiagram) -> ProjectedGraph:
    """Γ̃: a vertex per column label of d, and the edge {col s, col t} for
    each edge pair s–t; ψ maps an edge id to that image.  An edge with an
    unknown endpoint has no image."""
    cols = {v.id: v.col for v in d.vertices}
    psi = {e.id: edge(cols[e.source], cols[e.target])
           for e in d.edges if e.source in cols and e.target in cols}
    return ProjectedGraph(tuple(sorted(set(cols.values()))), tuple(sorted(set(psi.values()))),
                          psi)


def canonical_cycle(seq) -> Cycle:
    """The least vertex sequence over the rotations of seq and of its reversal."""
    seq = tuple(seq)
    return min(w[r:] + w[:r] for w in (seq, seq[::-1]) for r in range(len(seq)))


def diagram_cycles(d: KrajewskiDiagram, max_len: int) -> tuple[Cycle, ...]:
    """The cycles of d's Γ̃ of length 2..max_len."""
    return enumerate_cycles(project(d), max_len)


def enumerate_cycles(g: ProjectedGraph, max_len: int) -> tuple[Cycle, ...]:
    """All cycles of length 2..max_len, one canonical representative each.

    Loop edges never participate; a single non-loop edge traversed forth and
    back is the minimal cycle.  Deterministic order: by length, then by the
    canonical vertex sequence.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    non_loop = [(a, b) for a, b in g.edges if a != b]
    neighbors: dict[RepLabel, set[RepLabel]] = {}
    for a, b in non_loop:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    found: set[Cycle] = {canonical_cycle(e) for e in non_loop}
    if max_len >= 3:
        for start in g.vertices:
            _extend_cycles(neighbors, [start], max_len, found)
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def _extend_cycles(neighbors: dict, path: list[RepLabel], max_len: int,
                   found: set[Cycle]) -> None:
    """Add to ``found`` every cycle of 3..max_len vertices through ``path``."""
    for nxt in neighbors.get(path[-1], ()):
        if nxt == path[0] and len(path) >= 3:
            found.add(canonical_cycle(path))
        if nxt not in path and len(path) < max_len:
            path.append(nxt)
            _extend_cycles(neighbors, path, max_len, found)
            path.pop()
