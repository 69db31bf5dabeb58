"""The exhaustive lift search that ``kra.graphs`` used before its diagram
index and trace-pruned search, kept as the reference the fast search is
compared against.

``lift_cycle`` here enumerates every simple cycle of the diagram and keeps
the least witness by (length, vertex sequence); ``lift_pair`` scans every
vertex for each rotation.  Both must agree with ``kra.graphs`` witness for
witness, edges included.
"""

from __future__ import annotations

from kra.algebra import RepLabel
from kra.diagram import DiracPart, KrajewskiDiagram, edge_part
from kra.graphs import Cycle, LiftWitness

from conftest import cyclic_equal


def _adjacency(
    d: KrajewskiDiagram,
) -> dict[str, tuple[tuple[str, str, DiracPart], ...]]:
    """vertex id -> sorted steps (edge id, other endpoint, Dirac part)."""
    steps: dict[str, list[tuple[str, str, DiracPart]]] = {v.id: [] for v in d.vertices}
    for e in d.edges:
        part = edge_part(d, e)
        steps[e.source].append((e.id, e.target, part))
        if e.target != e.source:
            steps[e.target].append((e.id, e.source, part))
    return {v: tuple(sorted(s)) for v, s in steps.items()}


def _reduced_cols(cols: list[RepLabel]) -> list[RepLabel]:
    """Collapse consecutive duplicates of a cyclic sequence."""
    out: list[RepLabel] = []
    for c in cols:
        if out and out[-1] == c:
            continue
        out.append(c)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def lift_cycle(gamma_tilde: Cycle, d: KrajewskiDiagram) -> LiftWitness | None:
    """A diagram cycle whose ψ-image modulo loops is gamma_tilde, or None.

    The search is exhaustive over cycles of the diagram (closed paths with
    no repeated vertices besides the base; any Dirac part may pad the path,
    since vertical and diagonal steps project to loops).  The projection is
    compared as a cyclic sequence, up to rotation only.  Returns the least
    witness by (length, vertex sequence).
    """
    target = list(gamma_tilde)
    adjacency = _adjacency(d)
    best: tuple[int, tuple[str, ...], LiftWitness] | None = None

    def note(path: list[str], edges: list[str]) -> None:
        nonlocal best
        cols = [d.vertex(v).col for v in path]
        if not cyclic_equal(tuple(_reduced_cols(cols)), tuple(target)):
            return
        witness = LiftWitness(tuple(path), tuple(edges))
        key = (len(edges), tuple(path))
        if best is None or key < best[:2]:
            best = (key[0], key[1], witness)

    def extend(path: list[str], edges: list[str]) -> None:
        for eid, nxt, _part in adjacency[path[-1]]:
            if nxt == path[0] and len(path) >= 2:
                note(path, edges + [eid])
            if nxt not in path:
                path.append(nxt)
                edges.append(eid)
                extend(path, edges)
                path.pop()
                edges.pop()

    for start in sorted(adjacency):
        extend([start], [])
    return best[2] if best else None


def lift_pair(g1: Cycle, g2: Cycle, d: KrajewskiDiagram) -> LiftWitness | None:
    """A single closed walk lifting g1 along ψ and g2 along ψ∘j, or None.

    The walk has exactly len(g1) horizontal and len(g2) vertical steps and
    may revisit vertices (a figure-eight through a shared vertex is a valid
    lift).  Horizontal steps fix the row, so their column trace — read
    cyclically — must reproduce g1; vertical steps fix the column, so their
    row trace must reproduce g2 in either orientation.
    """
    adjacency = _adjacency(d)
    n1, n2 = len(g1), len(g2)

    def search(a: tuple[RepLabel, ...], b: tuple[RepLabel, ...]) -> LiftWitness | None:
        for start in sorted(adjacency):
            v = d.vertex(start)
            if v.col != a[0] or v.row != b[0]:
                continue
            hit = walk(a, b, start, [start], [], 0, 0)
            if hit is not None:
                return hit
        return None

    def walk(
        a: tuple[RepLabel, ...],
        b: tuple[RepLabel, ...],
        start: str,
        path: list[str],
        edges: list[str],
        i1: int,
        i2: int,
    ) -> LiftWitness | None:
        if i1 == n1 and i2 == n2:
            if path[-1] == start:
                return LiftWitness(tuple(path[:-1]), tuple(edges))
            return None
        for eid, nxt, part in adjacency[path[-1]]:
            target = d.vertex(nxt)
            if part is DiracPart.DELTA:
                if i1 >= n1 or target.col != a[(i1 + 1) % n1]:
                    continue
                di1, di2 = 1, 0
            elif part is DiracPart.J_DELTA_J:
                if i2 >= n2 or target.row != b[(i2 + 1) % n2]:
                    continue
                di1, di2 = 0, 1
            else:
                continue
            path.append(nxt)
            edges.append(eid)
            hit = walk(a, b, start, path, edges, i1 + di1, i2 + di2)
            path.pop()
            edges.pop()
            if hit is not None:
                return hit
        return None

    for b_seq in (tuple(g2), tuple(reversed(g2))):
        for r1 in range(n1):
            a_rot = tuple(g1[r1:]) + tuple(g1[:r1])
            for r2 in range(n2):
                b_rot = b_seq[r2:] + b_seq[:r2]
                hit = search(a_rot, b_rot)
                if hit is not None:
                    return hit
    return None
