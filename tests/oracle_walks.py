"""The closed-walk enumeration ``kra.invariants`` used before the walk kernel
of ``kra.graphs``, kept as the reference ``action_terms`` is compared against.

Every closed walk is enumerated from each of its vertices and in both
directions, and the first walk with a given term is kept.  The kernel
enumerates each walk from its least vertex only; both must give the same
terms, in the same order, with the same origin and coefficient.
"""

from __future__ import annotations

from kra.diagram import DiracPart, KrajewskiDiagram
from kra.graphs import proj_edge
from kra.invariants import (
    Block,
    InvariantTerm,
    TermKind,
    TraceSlot,
    _gauge_and_edge_terms,
    _quartic_coefficient,
    _walk_display,
    canonical_block,
)


def _walk_slots(d: KrajewskiDiagram, walk_vertices: list[str], which: DiracPart,
                parts: list[DiracPart]) -> Block:
    """Trace slots for the steps of the given part, in walk order.

    Horizontal steps are read through the column projection, vertical steps
    through the row labels (the reflection j turns them horizontal).
    """
    slots = []
    n = len(parts)
    for i in range(n):
        if parts[i] is not which:
            continue
        u = d.vertex(walk_vertices[i])
        w = d.vertex(walk_vertices[(i + 1) % n])
        a, b = (u.col, w.col) if which is DiracPart.DELTA else (u.row, w.row)
        edge = proj_edge(a, b)
        slots.append(TraceSlot(edge, a == edge[0]))
    return tuple(slots)


def _closed_field_walks(d: KrajewskiDiagram, n_h: int, n_v: int):
    """Closed walks with exactly n_h horizontal and n_v vertical steps.

    Vertices may repeat.  Yields (vertex ids, edge ids, parts) with the
    closing step back at the start; deterministic order.
    """
    steps = d.index.steps
    results: list = []
    for start in sorted(steps):
        _extend_walks(steps, [start], [], [], n_h, n_v, results)
    return results


def _extend_walks(steps, path: list[str], edges: list[str], parts: list[DiracPart],
                  h_left: int, v_left: int, results: list) -> None:
    """Append to ``results`` every closed walk that extends ``path`` by
    h_left horizontal and v_left vertical steps."""
    if not h_left and not v_left:
        if path[-1] == path[0]:
            results.append((tuple(path[:-1]), tuple(edges), tuple(parts)))
        return
    for eid, nxt, part in steps[path[-1]]:
        if part is DiracPart.DELTA and h_left:
            dh, dv = 1, 0
        elif part is DiracPart.J_DELTA_J and v_left:
            dh, dv = 0, 1
        else:
            continue
        path.append(nxt)
        edges.append(eid)
        parts.append(part)
        _extend_walks(steps, path, edges, parts, h_left - dh, v_left - dv, results)
        path.pop()
        edges.pop()
        parts.pop()


def action_terms(d: KrajewskiDiagram) -> tuple[InvariantTerm, ...]:
    terms = list(_gauge_and_edge_terms(d)[0])

    seen: set = set()
    for vertices, edge_ids, parts in _closed_field_walks(d, 4, 0):
        block = _walk_slots(d, list(vertices), DiracPart.DELTA, list(parts))
        term_blocks = (canonical_block(block),)
        key = (TermKind.QUARTIC.value, term_blocks)
        if key in seen:
            continue
        seen.add(key)
        coeff, factors = _quartic_coefficient(edge_ids)
        terms.append(
            InvariantTerm(
                kind=TermKind.QUARTIC,
                blocks=term_blocks,
                coefficient=coeff,
                origin=f"walk {_walk_display(vertices)}",
                coefficient_factors=factors,
            )
        )

    for vertices, edge_ids, parts in _closed_field_walks(d, 2, 2):
        h_block = _walk_slots(d, list(vertices), DiracPart.DELTA, list(parts))
        v_block = _walk_slots(d, list(vertices), DiracPart.J_DELTA_J, list(parts))
        term_blocks = tuple(sorted((canonical_block(h_block), canonical_block(v_block))))
        key = (TermKind.QUARTIC.value, term_blocks)
        if key in seen:
            continue
        seen.add(key)
        coeff, factors = _quartic_coefficient(edge_ids)
        terms.append(
            InvariantTerm(
                kind=TermKind.QUARTIC,
                blocks=term_blocks,
                coefficient=coeff,
                origin=f"mixed walk {_walk_display(vertices)}",
                coefficient_factors=factors,
            )
        )

    return tuple(terms)
