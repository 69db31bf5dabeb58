"""The generated action terms from the definition, kept as the reference
``action_terms`` is compared against.

The F² term of each simple gauge factor comes first, then a mass and a
kinetic term per non-loop edge of Γ̃ (``oracle_cycles.project``), then the
quartics.  Every closed walk of four steps is enumerated from each of its
vertices and in both directions, and the first walk with a given term is
kept: four horizontal steps give one trace along their columns, two
horizontal and two vertical steps a product of two traces, the vertical
steps read through their rows.  The product enumerates each walk from its
least vertex only; both must give the same terms, in the same order, with
the same origin and coefficient.

The helpers are written here from their definitions: a block is canonical
when it is the least of its rotations and of the rotations of its dagger,
listed one by one, and a term is keyed by its kind and its sorted blocks
(an F² term by its gauge factor).  ``oracle_pairs`` reads them too.
"""

from __future__ import annotations

from kra.algebra import FactorKind, FiniteAlgebra
from kra.diagram import DiracPart, KrajewskiDiagram
from kra.invariants import InvariantTerm, TermKind, TraceSlot

from oracle_cycles import edge, project

#: the simple summand of M_k(F) and its dimension
_SERIES = {
    FactorKind.REAL: ("o", lambda k: k * (k - 1) // 2),
    FactorKind.COMPLEX: ("su", lambda k: k * k - 1),
    FactorKind.QUATERNION: ("sp", lambda k: k * (2 * k + 1)),
}


def canonical_block(block) -> tuple:
    """The least of the rotations of ``block`` and of its dagger (the slots
    reversed, each taken as its adjoint)."""
    block = tuple(block)
    dagger = tuple(TraceSlot(s.edge, not s.forward) for s in reversed(block))
    return min(b[r:] + b[:r] for b in (block, dagger) for r in range(len(block)))


def walk_block(labels) -> tuple:
    """The trace slots of a closed label walk, one per step a -> b, in order:
    the multiplet on {a, b}, as written when a is its low end."""
    labels = tuple(labels)
    return tuple(TraceSlot(edge(a, b), a <= b) for a, b in zip(labels, labels[1:] + labels[:1]))


def term_key(term: InvariantTerm) -> tuple:
    """The kind and trace structure of a term: its gauge factor for F², its
    sorted blocks otherwise."""
    if term.kind is TermKind.YANG_MILLS_F2:
        return (term.kind.value, term.gauge_factor)
    return (term.kind.value, tuple(sorted(term.blocks)))


def edge_display(e, algebra: FiniteAlgebra) -> str:
    return f"{{{e[0].display(algebra)},{e[1].display(algebra)}}}"


def gauge_and_edge_terms(d: KrajewskiDiagram) -> tuple[list, list]:
    """(generated, required): the F² term of each simple gauge factor, in
    factor order, then a mass and a kinetic term per non-loop Γ̃ edge, in
    edge order.  o(1) and su(1) are zero-dimensional and have no term."""
    algebra = d.algebra
    generated: list[InvariantTerm] = []
    required: list[InvariantTerm] = []
    simple = []
    for f in algebra.factors:
        name, dimension = _SERIES[f.kind]
        if dimension(f.size) > 0:
            simple.append((name, f.size))
    for i, (name, k) in enumerate(simple):
        factor = f"{name}({k})[{i}]"
        generated.append(InvariantTerm(
            TermKind.YANG_MILLS_F2, (), "-f(0)/(24*pi^2), common prefactor for every gauge factor",
            "gauge sector", factor))
        required.append(InvariantTerm(
            TermKind.YANG_MILLS_F2, (), "independent coefficient per gauge factor",
            "gauge sector", factor))
    vertices = {v.id: v for v in d.vertices}
    for e in project(d).edges:
        if e[0] == e[1]:
            continue
        shown = edge_display(e, algebra)
        # the horizontal edge pairs over e: same row, columns {lo, hi}
        over = ", ".join(sorted(
            p.id for p in d.edges
            if p.source in vertices and p.target in vertices
            and vertices[p.source].row == vertices[p.target].row
            and edge(vertices[p.source].col, vertices[p.target].col) == e
        ))
        blocks = (canonical_block(walk_block(e)),)
        for out, coefficient, origin in (
            (generated, f"prop. to sum_p |M_e^p|^2, e in {{{over}}}",
             f"back-and-forth walks over {shown}"),
            (required, "independent coefficient c(p1, p2) per basis pair",
             f"degree-2 invariant on {shown}"),
        ):
            out.append(InvariantTerm(TermKind.SCALAR_MASS, blocks, coefficient, origin))
            out.append(InvariantTerm(TermKind.SCALAR_KINETIC, blocks, coefficient, origin))
    return generated, required


def _walk_slots(d: KrajewskiDiagram, walk_vertices: tuple, which: DiracPart,
                parts: tuple) -> tuple:
    """Trace slots for the steps of the given part, in walk order.

    Horizontal steps are read through the column labels, vertical steps
    through the row labels (the reflection j turns them horizontal).
    """
    vertices = d.index.vertices
    slots = []
    n = len(parts)
    for i in range(n):
        if parts[i] is not which:
            continue
        u, w = vertices[walk_vertices[i]], vertices[walk_vertices[(i + 1) % n]]
        a, b = (u.col, w.col) if which is DiracPart.DELTA else (u.row, w.row)
        slots.append(TraceSlot(edge(a, b), a <= b))
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
    terms = gauge_and_edge_terms(d)[0]
    seen: set = set()
    for name, n_h, n_v in (("walk", 4, 0), ("mixed walk", 2, 2)):
        for vertices, edge_ids, parts in _closed_field_walks(d, n_h, n_v):
            blocks = [canonical_block(_walk_slots(d, vertices, DiracPart.DELTA, parts))]
            if n_v:
                blocks.append(canonical_block(_walk_slots(d, vertices, DiracPart.J_DELTA_J, parts)))
            term_blocks = tuple(sorted(blocks))
            if term_blocks in seen:
                continue
            seen.add(term_blocks)
            factors = tuple((eid, f"p{i}") for i, eid in enumerate(edge_ids, 1))
            terms.append(InvariantTerm(
                TermKind.QUARTIC, term_blocks,
                "prop. to " + " ".join(f"M_{eid}^{p}" for eid, p in factors),
                f"{name} " + " -> ".join(vertices + vertices[:1]),
                coefficient_factors=factors,
            ))
    return tuple(terms)
