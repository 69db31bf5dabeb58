"""Random valid Krajewski diagrams of a few labels, for property tests.

The recipe:

* 3–6 labels, one of them the trivial C in 40 % of draws, the rest M₂(C)
  or M₃(C);
* 3–9 random horizontal edges (a, r) – (b, r), each with its j-mirror, the
  vertical edge (r, a) – (r, b);
* a vertex in each cell these edges touch, paired by j with the cell of
  swapped labels;
* grading signs from a two-colouring in which every edge joins opposite
  signs and a vertex shares its sign with its j-partner, and KO-dimension 0.

A draw that cannot be coloured, or that ``validate`` refuses, gives None.
Unlike the corpus designs of ``conftest``, a cell may hold both horizontal
and vertical edges, so pairs of 2-cycles can lift through mixed walks and
the trivial label can sit on several cycles at once.
"""

from __future__ import annotations

import random

from kra import (
    DiagramVertex,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    KrajewskiDiagram,
    RepLabel,
    SymbolicOperator,
    validate,
)


def random_valid_diagram(rng: random.Random) -> KrajewskiDiagram | None:
    """One draw of the recipe above: the validated diagram, or None."""
    n = rng.randint(3, 6)
    trivial = rng.random() < 0.4
    sizes = [1] * trivial + [rng.choice((2, 3)) for _ in range(n - trivial)]
    # (a, b, r): the horizontal edge (a, r) - (b, r), drawn with a != b
    drawn = [(*rng.sample(range(n), 2), rng.randrange(n)) for _ in range(rng.randint(3, 9))]
    return mirrored_diagram(sizes, drawn)


def mirrored_diagram(sizes, drawn) -> KrajewskiDiagram | None:
    """The validated diagram over complex factors of the given sizes whose
    horizontal edges are ``drawn``, as (a, b, r) for (a, r) - (b, r), each
    with its j-mirror; None if it cannot be coloured or does not validate."""
    algebra = FiniteAlgebra.of(*[(size, FactorKind.COMPLEX) for size in sizes])
    steps = []  # (edge id, source cell, target cell), each (column, row)
    for i, (a, b, r) in enumerate(drawn):
        steps.append((f"h{i}", (a, r), (b, r)))
        steps.append((f"v{i}", (r, a), (r, b)))
    cells = sorted({cell for _eid, s, t in steps for cell in (s, t)})

    # colour the classes {(c, r), (r, c)}, each component from its least cell
    def mirror_class(cell):
        return min(cell, cell[::-1])

    neighbours: dict = {}
    for _eid, s, t in steps:
        neighbours.setdefault(mirror_class(s), set()).add(mirror_class(t))
        neighbours.setdefault(mirror_class(t), set()).add(mirror_class(s))
    sign: dict = {}
    for root in sorted(neighbours):
        if root in sign:
            continue
        sign[root], todo = 1, [root]
        while todo:
            here = todo.pop()
            for there in sorted(neighbours[here]):
                if there not in sign:
                    sign[there] = -sign[here]
                    todo.append(there)
                elif sign[there] == sign[here]:
                    return None  # an odd cycle: no two-colouring
    vid = {cell: f"x{cell[0]}_{cell[1]}" for cell in cells}
    vertices = tuple(
        DiagramVertex(vid[cell], RepLabel(cell[0]), RepLabel(cell[1]), sign[mirror_class(cell)])
        for cell in cells
    )
    edges = tuple(EdgePair(eid, vid[s], vid[t], SymbolicOperator(eid)) for eid, s, t in steps)
    jmap = tuple((vid[(c, r)], vid[(r, c)]) for c, r in cells if c <= r)
    report = validate(KrajewskiDiagram(algebra, 0, vertices, edges, jmap))
    return report.diagram if report.ok else None


def random_valid_diagrams(seed: int, count: int) -> list[KrajewskiDiagram]:
    """The first ``count`` valid draws from ``random.Random(seed)``."""
    rng = random.Random(seed)
    out: list[KrajewskiDiagram] = []
    while len(out) < count:
        d = random_valid_diagram(rng)
        if d is not None:
            out.append(d)
    return out
