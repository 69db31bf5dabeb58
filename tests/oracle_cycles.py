"""The cycle enumeration that ``kra.graphs`` used before it searched from
each cycle's least vertex, kept as the reference the fast enumeration is
compared against.

``enumerate_cycles`` and ``_extend_cycles`` are the earlier code word for
word: a recursion from every vertex that reaches each cycle once per
rotation and direction and keeps the canonical form of each in a set.
"""

from __future__ import annotations

from kra.algebra import RepLabel
from kra.graphs import Cycle, ProjectedGraph, canonical_cycle


def enumerate_cycles(g: ProjectedGraph, max_len: int) -> tuple[Cycle, ...]:
    """All cycles of length 2..max_len, one canonical representative each.

    Loop edges never participate; a single non-loop edge traversed forth and
    back is the minimal cycle.  Deterministic order: by length, then by the
    canonical vertex sequence.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    found: set[Cycle] = set()
    for a, b in g.non_loop_edges:
        found.add(canonical_cycle((a, b)))
    if max_len >= 3:
        for start in g.vertices:
            _extend_cycles(g, [start], max_len, found)
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def _extend_cycles(g: ProjectedGraph, path: list[RepLabel], max_len: int,
                   found: set[Cycle]) -> None:
    """Add to ``found`` every cycle of 3..max_len vertices through ``path``.

    Module-level, not a closure: a recursive closure is a reference cycle,
    which would keep Γ̃ alive past the call."""
    for nxt in g.neighbors(path[-1]):
        if nxt == path[0] and len(path) >= 3:
            found.add(canonical_cycle(tuple(path)))
        if nxt not in path and len(path) < max_len:
            path.append(nxt)
            _extend_cycles(g, path, max_len, found)
            path.pop()
