"""The closed-walk kernel of ``kra.graphs`` as it was before it closed a walk
on its last step and ran as one loop, kept as the reference the kernel and
the pair lift are compared against.

``closed_walks`` and ``_extend_walks`` are the earlier code word for word:
a recursive generator that enters every admissible neighbour on the last
step too and tests only then whether the walk is back at its start.
"""

from __future__ import annotations

from kra.diagram import DiagramIndex, DiracPart


def closed_walks(index: DiagramIndex, start: str, cols: tuple, rows: tuple,
                 floor: str | None = None):
    """Closed walks from ``start`` with len(cols) horizontal and len(rows)
    vertical steps, in the order of ``index.steps``; vertices may repeat.

    Horizontal step i must enter column cols[(i + 1) % len(cols)] and
    vertical step i row rows[(i + 1) % len(rows)]; a None label matches any.
    With a ``floor``, the walk never enters a vertex id below it.  Yields
    (vertex ids, edge ids, parts), where step i runs from vertex i to
    vertex i + 1, cyclically.
    """
    yield from _extend_walks(index, cols, rows, floor, [start], [], [], 0, 0)


def _extend_walks(index: DiagramIndex, cols: tuple, rows: tuple, floor: str | None,
                  path: list[str], edges: list[str], parts: list[DiracPart],
                  i: int, j: int):
    """The closed walks of ``closed_walks`` that extend ``path``, which has
    taken i horizontal and j vertical steps.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, which would keep the index, and every analysis result
    it stores, alive until the cyclic garbage collector runs."""
    n, m = len(cols), len(rows)
    if i == n and j == m:
        if path[-1] == path[0]:
            yield tuple(path[:-1]), tuple(edges), tuple(parts)
        return
    for eid, nxt, part in index.steps[path[-1]]:
        if floor is not None and nxt < floor:
            continue
        if part is DiracPart.DELTA and i < n:
            want, got, di, dj = cols[(i + 1) % n], index.vertices[nxt].col, 1, 0
        elif part is DiracPart.J_DELTA_J and j < m:
            want, got, di, dj = rows[(j + 1) % m], index.vertices[nxt].row, 0, 1
        else:
            continue
        if want is not None and want != got:
            continue
        path.append(nxt)
        edges.append(eid)
        parts.append(part)
        yield from _extend_walks(index, cols, rows, floor, path, edges, parts, i + di, j + dj)
        path.pop()
        edges.pop()
        parts.pop()
