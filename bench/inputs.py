"""Seeded input generators for the benchmark workloads.

Every generator is deterministic in its ``random.Random`` argument.  The
``grid`` and ``path`` families reproduce the scaling table in ROADMAP.md:

* grid k: C ⊕ M₂(C)^k with one vertex for every (column, row) pair of the
  k + 1 non-conjugate labels, checkerboard signs, and path edges along every
  row and every column.  (k + 1)² vertices and 2k(k + 1) edges; R-connected.
* path n: a chain of n horizontal edges along row 1 (the trivial label)
  through n + 1 distinct column labels, plus its mirror down column 1.
  2n + 1 vertices and 2n edges; not R-connected.

``relabel`` renames every vertex and edge id and shuffles the vertex, edge
and jmap tuples, so two ops never see an identical input and a memo keyed on
the diagram cannot hit.  The corpus copies the ``random_design_diagram``
recipe of the test suite, with a seeded share of diagrams whose every edge
carries an exact numeric matrix.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from kra.algebra import FactorKind, FiniteAlgebra, RepLabel
from kra.builtins import builtin
from kra.diagram import (
    DiagramVertex,
    DiracPart,
    EdgePair,
    KrajewskiDiagram,
    NumericOperator,
    SymbolicOperator,
    edge_part,
    validate,
)
from kra.dsl import parse
from kra.exactlin import GaussRational

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = ("sm.kra", "chain.kra", "chain_repaired.kra")

#: share of corpus designs whose edges all carry numeric matrices
NUMERIC_SHARE = 0.3


def validated(d: KrajewskiDiagram) -> KrajewskiDiagram:
    """The resolved diagram; raises ValueError when validation fails."""
    report = validate(d)
    if not report.ok or report.diagram is None:
        details = [entry.details for entry in report.failures()]
        raise ValueError(f"generated diagram does not validate: {details}")
    return report.diagram


# ---------------------------------------------------------------------------
# Scaling families


def grid_diagram(k: int) -> KrajewskiDiagram:
    algebra = FiniteAlgebra.of((1, FactorKind.COMPLEX), *[(2, FactorKind.COMPLEX)] * k)
    labels = [RepLabel(i) for i in range(k + 1)]
    vertices = tuple(
        DiagramVertex(f"g{c}_{r}", labels[c], labels[r], 1 if (c + r) % 2 == 0 else -1)
        for c in range(k + 1)
        for r in range(k + 1)
    )
    edges = []
    for r in range(k + 1):
        for c in range(k):
            label = SymbolicOperator(f"y{c}_{r}")
            edges.append(EdgePair(f"h{c}_{r}", f"g{c}_{r}", f"g{c + 1}_{r}", label))
            edges.append(EdgePair(f"v{c}_{r}", f"g{r}_{c}", f"g{r}_{c + 1}", label))
    jmap = tuple(
        (f"g{c}_{r}", f"g{r}_{c}") for c in range(k + 1) for r in range(c, k + 1)
    )
    return KrajewskiDiagram(algebra, 0, vertices, tuple(edges), jmap)


def path_diagram(n: int) -> KrajewskiDiagram:
    algebra = FiniteAlgebra.of((1, FactorKind.COMPLEX), *[(2, FactorKind.COMPLEX)] * n)
    one = RepLabel(0)
    vertices = [DiagramVertex("p0", one, one, 1)]
    jmap = [("p0", "p0")]
    for i in range(1, n + 1):
        sign = 1 if i % 2 == 0 else -1
        vertices.append(DiagramVertex(f"p{i}", RepLabel(i), one, sign))
        vertices.append(DiagramVertex(f"q{i}", one, RepLabel(i), sign))
        jmap.append((f"p{i}", f"q{i}"))
    edges = []
    for i in range(n):
        label = SymbolicOperator(f"y{i}")
        q_prev = "p0" if i == 0 else f"q{i}"
        edges.append(EdgePair(f"h{i}", f"p{i}", f"p{i + 1}", label))
        edges.append(EdgePair(f"v{i}", q_prev, f"q{i + 1}", label))
    return KrajewskiDiagram(algebra, 0, tuple(vertices), tuple(edges), tuple(jmap))


def relabel(d: KrajewskiDiagram, rng: random.Random) -> KrajewskiDiagram:
    """An isomorphic copy with fresh vertex and edge ids and shuffled tuples."""
    tag = rng.getrandbits(32)
    v_order = list(range(len(d.vertices)))
    e_order = list(range(len(d.edges)))
    rng.shuffle(v_order)
    rng.shuffle(e_order)
    vid = {v.id: f"v{tag:x}_{v_order[i]}" for i, v in enumerate(d.vertices)}
    eid = {e.id: f"e{tag:x}_{e_order[i]}" for i, e in enumerate(d.edges)}
    vertices = [replace(v, id=vid[v.id]) for v in d.vertices]
    edges = [
        replace(e, id=eid[e.id], source=vid[e.source], target=vid[e.target])
        for e in d.edges
    ]
    jmap = None
    if d.jmap is not None:
        jmap = [(vid[a], vid[b]) for a, b in d.jmap]
        rng.shuffle(jmap)
        jmap = tuple(jmap)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return replace(d, vertices=tuple(vertices), edges=tuple(edges), jmap=jmap)


# ---------------------------------------------------------------------------
# Corpus: builtins, fixtures, the square, and random designs


def square_diagram() -> KrajewskiDiagram:
    """M2(C) + M3(C), four vertices in a square whose 2-cycle pair lifts."""
    algebra = FiniteAlgebra.of((2, FactorKind.COMPLEX), (3, FactorKind.COMPLEX))
    r2, r3 = RepLabel(0), RepLabel(1)
    vertices = (
        DiagramVertex("v22", r2, r2, sign=1),
        DiagramVertex("v32", r3, r2, sign=-1),
        DiagramVertex("v33", r3, r3, sign=1),
        DiagramVertex("v23", r2, r3, sign=-1),
    )
    edges = (
        EdgePair("a", "v22", "v32", SymbolicOperator("a")),
        EdgePair("b", "v32", "v33", SymbolicOperator("b")),
        EdgePair("c", "v23", "v33", SymbolicOperator("b")),
        EdgePair("d", "v22", "v23", SymbolicOperator("a")),
    )
    jmap = (("v22", "v22"), ("v32", "v23"), ("v33", "v33"))
    return KrajewskiDiagram(algebra, 0, vertices, edges, jmap)


def fixed_members() -> list[tuple[str, KrajewskiDiagram]]:
    rows = [
        ("sm", builtin("sm")),
        ("chain", builtin("chain")),
        ("ym:2", builtin("ym:2")),
        ("ym:3", builtin("ym:3")),
        ("ym:5", builtin("ym:5")),
        ("square", square_diagram()),
    ]
    for name in FIXTURE_NAMES:
        rows.append((name, parse((FIXTURE_DIR / name).read_text(encoding="utf-8"))))
    return rows


def design_exempt(e1, e2, algebra: FiniteAlgebra) -> bool:
    """The exemption rule stated on unordered design edges (label pairs)."""
    shared = set(e1) & set(e2)
    for v in shared:
        factor = algebra.factors[v.factor_index]
        if factor.kind is FactorKind.COMPLEX and factor.size == 1:
            return True
    for v in shared:
        if algebra.factors[v.factor_index].kind is not FactorKind.QUATERNION:
            continue
        other1 = e1[0] if e1[1] == v else e1[1]
        other2 = e2[0] if e2[1] == v else e2[1]
        if other2 == other1.conjugated(algebra):
            return True
    return False


def random_design_diagram(rng: random.Random) -> tuple[KrajewskiDiagram, bool]:
    """A valid j-symmetric diagram whose projection is a star/path/cycle
    design, with its expected R-connectedness in dimension 4.

    Every projected edge has a horizontal and a mirrored vertical preimage
    and no vertex carries both, so no pair of 2-cycles lifts through a mixed
    walk: the diagram is R-connected exactly when every pair of design edges
    is exempt.
    """
    n_factors = rng.randint(3, 5)
    specs: list[tuple[int, FactorKind]] = [(1, FactorKind.COMPLEX)]
    for _ in range(n_factors - 1):
        kind = rng.choice(
            (FactorKind.COMPLEX, FactorKind.COMPLEX, FactorKind.QUATERNION, FactorKind.REAL)
        )
        size = rng.randint(1, 3) if kind is FactorKind.COMPLEX else rng.randint(1, 2)
        specs.append((size, kind))
    algebra = FiniteAlgebra.of(*specs)

    labels = []
    for i, (_size, kind) in enumerate(specs):
        labels.append(RepLabel(i))
        if kind is FactorKind.COMPLEX:
            labels.append(RepLabel(i, True))
    trivial = RepLabel(0)
    labels.remove(trivial)
    rng.shuffle(labels)
    n_anchor = rng.randint(1, 2)
    anchors = labels[:n_anchor]
    field_pool = labels[n_anchor:] + [trivial]
    rng.shuffle(field_pool)

    n_comp = 1 if rng.random() < 0.7 or len(field_pool) < 4 else 2
    design_edges: list[tuple[RepLabel, RepLabel]] = []
    components: list[dict] = []
    for ci in range(n_comp):
        if len(field_pool) < 2:
            break
        kinds = ("star", "path") if len(field_pool) < 4 else ("star", "path", "cycle")
        kind = rng.choice(kinds)
        size = 4 if kind == "cycle" else rng.randint(2, min(4, len(field_pool)))
        chosen = [field_pool.pop() for _ in range(size)]
        if kind == "star" and trivial in chosen and rng.random() < 0.8:
            chosen.remove(trivial)
            chosen.insert(0, trivial)
        if kind == "star":
            hub = chosen[0]
            comp_edges = [(hub, leaf) for leaf in chosen[1:]]
            color = {hub: 1, **{leaf: -1 for leaf in chosen[1:]}}
        elif kind == "cycle":
            comp_edges = list(zip(chosen, chosen[1:])) + [(chosen[-1], chosen[0])]
            color = {lab: 1 if k % 2 == 0 else -1 for k, lab in enumerate(chosen)}
        else:
            comp_edges = list(zip(chosen, chosen[1:]))
            color = {lab: 1 if k % 2 == 0 else -1 for k, lab in enumerate(chosen)}
        components.append(
            {
                "labels": chosen,
                "edges": comp_edges,
                "color": color,
                "anchor": anchors[ci % len(anchors)],
            }
        )
        design_edges.extend(comp_edges)

    vertices: list[DiagramVertex] = []
    edges: list[EdgePair] = []
    jpairs: list[tuple[str, str]] = []
    upper: dict[tuple[int, RepLabel], str] = {}
    lower: dict[tuple[int, RepLabel], str] = {}
    for ci, comp in enumerate(components):
        anchor = comp["anchor"]
        for f in comp["labels"]:
            u_id, d_id = f"c{ci}u{len(vertices)}", f"c{ci}d{len(vertices)}"
            vertices.append(DiagramVertex(u_id, f, anchor, comp["color"][f]))
            vertices.append(DiagramVertex(d_id, anchor, f, comp["color"][f]))
            jpairs.append((u_id, d_id))
            upper[(ci, f)] = u_id
            lower[(ci, f)] = d_id
        for x, y in comp["edges"]:
            k = len(edges) // 2
            copies = 2 if rng.random() < 0.25 else 1
            for copy in range(copies):
                suffix = "" if copy == 0 else "x"
                label = SymbolicOperator(f"y{k}{suffix}")
                edges.append(
                    EdgePair(f"h{k}{suffix}", upper[(ci, x)], upper[(ci, y)], label)
                )
                edges.append(
                    EdgePair(f"v{k}{suffix}", lower[(ci, x)], lower[(ci, y)], label)
                )

    diagram = KrajewskiDiagram(
        algebra=algebra,
        kodim=0,
        vertices=tuple(vertices),
        edges=tuple(edges),
        jmap=tuple(jpairs),
        families=rng.randint(1, 2),
    )
    expected = all(
        design_exempt(design_edges[i], design_edges[j], algebra)
        for i in range(len(design_edges))
        for j in range(i, len(design_edges))
    )
    return diagram, expected


def _random_entry(rng: random.Random) -> GaussRational:
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0
    return GaussRational.of(re, im)


def _random_matrix(rng: random.Random, rows: int, cols: int):
    while True:
        matrix = tuple(
            tuple(_random_entry(rng) for _ in range(cols)) for _ in range(rows)
        )
        if any(entry for row in matrix for entry in row):
            return matrix


def with_numeric_operators(d: KrajewskiDiagram, rng: random.Random) -> KrajewskiDiagram:
    """Every edge gets an exact matrix of the shape validation expects;
    an edge and its j-mirror share one matrix, as they share one label."""
    verts = {v.id: v for v in d.vertices}
    by_label: dict[str, tuple] = {}
    edges = []
    for e in d.edges:
        s, t = verts[e.source], verts[e.target]
        if edge_part(d, e) is DiracPart.J_DELTA_J:
            shape = (t.row.dimension(d.algebra), s.row.dimension(d.algebra))
        else:
            shape = (t.col.dimension(d.algebra), s.col.dimension(d.algebra))
        key = e.operator.label if isinstance(e.operator, SymbolicOperator) else e.id
        if key not in by_label:
            by_label[key] = _random_matrix(rng, *shape)
        edges.append(replace(e, operator=NumericOperator(by_label[key])))
    return replace(d, edges=tuple(edges))


def corpus(rng: random.Random, n_designs: int) -> list[tuple[str, KrajewskiDiagram, bool | None]]:
    """(name, validated diagram, expected R-connectedness or None)."""
    rows: list[tuple[str, KrajewskiDiagram, bool | None]] = [
        (name, validated(d), None) for name, d in fixed_members()
    ]
    for k in range(n_designs):
        d, expected = random_design_diagram(rng)
        name = f"design{k}"
        if rng.random() < NUMERIC_SHARE:
            d, name = with_numeric_operators(d, rng), f"design{k}n"
        rows.append((name, validated(d), expected))
    return rows
