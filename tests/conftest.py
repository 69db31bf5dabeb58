"""Shared fixtures: the diagram corpus, random generators, and independent
verifiers used by both the module tests and the acceptance suite.

The random diagrams are *designs*: bipartite projected graphs (stars or
paths) over field labels, hosted row-by-row so that every projected edge has
a horizontal and a mirrored vertical preimage but no vertex carries both.
That shape makes the expected R-connectedness verdict computable from the
design alone (no pair of 2-cycles can lift through a mixed walk, so the
verdict is exactly "every pair of design edges is exempt"), giving an
oracle that is independent of the lift-search implementation.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from kra import (
    DiagramVertex,
    DiracPart,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    KrajewskiDiagram,
    LiftWitness,
    RepLabel,
    SymbolicOperator,
    builtin,
    check_r_connected,
    counterterm_coverage,
    edge_part,
    parse,
    validate,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ("sm.kra", "chain.kra", "chain_repaired.kra")


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def load_fixture(name: str) -> KrajewskiDiagram:
    return parse(fixture_text(name))


#: oracle inputs kept apart from the fixtures, which the golden and corpus
#: loops read: the two texts of ROADMAP item 13
CASE_DIR = Path(__file__).parent / "cases"
CASE_NAMES = ("four.kra", "six.kra")


def load_case(name: str) -> KrajewskiDiagram:
    return parse((CASE_DIR / name).read_text(encoding="utf-8"))


def must_validate(d: KrajewskiDiagram) -> KrajewskiDiagram:
    report = validate(d)
    assert report.ok, [entry.details for entry in report.failures()]
    assert report.diagram is not None
    return report.diagram


# ---------------------------------------------------------------------------
# Hand-built synthetic diagram: a genuine square lift


def square_diagram() -> KrajewskiDiagram:
    """M2(C) + M3(C), four vertices in a square.

    The projected graph has the single non-loop edge {2, 3}; the self-pair of
    its 2-cycle is not exempt (neither endpoint is trivial) and lifts through
    the square itself, alternating horizontal and vertical steps.
    """
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


# ---------------------------------------------------------------------------
# Scaling families (the recipe of the benchmark's grid and path workloads)


def grid_diagram(k: int) -> KrajewskiDiagram:
    """C + M2(C)^k with a vertex at every (column, row) pair of the k + 1
    non-conjugate labels and path edges along every row and column:
    (k + 1)^2 vertices, 2k(k + 1) edges, R-connected in dimension 4."""
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
    """A chain of n horizontal edges along the trivial row through n + 1
    column labels, plus its mirror down the trivial column: 2n + 1
    vertices, 2n edges, not R-connected."""
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


def ring_diagram(n: int) -> KrajewskiDiagram:
    """``path_diagram(n)`` closed by the edges p_n → p0 and q_n → p0: Γ̃ is
    one cycle through all n + 1 column labels, and the diagram cycle
    p0 → p1 → … → p_n lifts it."""
    d = path_diagram(n)
    closing = SymbolicOperator(f"y{n}")
    edges = d.edges + (
        EdgePair(f"h{n}", f"p{n}", "p0", closing),
        EdgePair(f"v{n}", f"q{n}", "p0", closing),
    )
    return KrajewskiDiagram(d.algebra, d.kodim, d.vertices, edges, d.jmap)


# ---------------------------------------------------------------------------
# Random design diagrams with a computable expected verdict


def _design_exempt(e1, e2, algebra: FiniteAlgebra) -> bool:
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


def random_design_diagram(rng: random.Random) -> tuple[KrajewskiDiagram, dict]:
    """A valid j-symmetric diagram whose projection is a star/path design.

    Returns the diagram plus metadata carrying the design edges and the
    expected R-connectedness verdict at m = 4 (see the module docstring).
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
                "kind": kind,
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
                label = f"y{k}{suffix}"
                edges.append(
                    EdgePair(
                        f"h{k}{suffix}",
                        upper[(ci, x)],
                        upper[(ci, y)],
                        SymbolicOperator(label),
                    )
                )
                edges.append(
                    EdgePair(
                        f"v{k}{suffix}",
                        lower[(ci, x)],
                        lower[(ci, y)],
                        SymbolicOperator(label),
                    )
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
        _design_exempt(design_edges[i], design_edges[j], algebra)
        for i in range(len(design_edges))
        for j in range(i, len(design_edges))
    )
    meta = {
        "components": components,
        "design_edges": design_edges,
        "expected_rconnected": expected,
    }
    return diagram, meta


# ---------------------------------------------------------------------------
# Random Feynman-graph profiles, consistent by construction


def random_consistent_profile(rng: random.Random):
    """Draw vertices, wire their half-edges, derive lines and loops.

    Every profile returned satisfies the three half-edge identities and
    Euler's loop formula by construction; draws that would need a negative
    loop number are rejected (the caller loops until one sticks).
    """
    from kra import GraphProfile

    while True:
        V: dict[tuple[int, int], int] = {}
        for _ in range(rng.randint(0, 4)):
            i = rng.randint(0, 4)
            j = rng.randint(max(0, 3 - i), 4 - i)
            V[(i, j)] = V.get((i, j), 0) + 1
        vga, vgc = rng.randint(0, 2), rng.randint(0, 2)
        gauge_stubs = sum(i * c for (i, _j), c in V.items()) + vga
        higgs_stubs = sum(j * c for (_i, j), c in V.items()) + vgc
        ghost_stubs = 2 * vga + 2 * vgc
        i_a = rng.randint(0, gauge_stubs // 2)
        i_chi = rng.randint(0, higgs_stubs // 2)
        i_g = rng.randint(0, ghost_stubs // 2)
        total_vertices = sum(V.values()) + vga + vgc
        loops = i_a + i_chi + i_g - total_vertices + 1
        if loops < 0:
            continue
        return GraphProfile(
            L=loops,
            I_A=i_a,
            I_chi=i_chi,
            I_ghost=i_g,
            V=V,
            V_ghostA=vga,
            V_ghostChi=vgc,
            E_A=gauge_stubs - 2 * i_a,
            E_chi=higgs_stubs - 2 * i_chi,
            E_ghost=ghost_stubs - 2 * i_g,
        )


#: each mutation bumps one census field; the named identity must break
PROFILE_MUTATIONS = (
    ("E_A", "gauge half-edges"),
    ("E_chi", "higgs half-edges"),
    ("E_ghost", "ghost half-edges"),
    ("L", "euler loops"),
)


def mutate_profile(p, field_name: str):
    from dataclasses import replace

    return replace(p, **{field_name: getattr(p, field_name) + 1})


# ---------------------------------------------------------------------------
# Independent lift verifiers (used by module tests and the acceptance gate)


def _witness_steps(d: KrajewskiDiagram, w: LiftWitness):
    """Yield (source vertex, target vertex, Dirac part) per step, after
    checking that each named edge pair really joins the claimed vertices."""
    by_id = {e.id: e for e in d.edges}
    n = len(w.vertices)
    assert len(w.edges) == n, "a closed walk has as many steps as vertices"
    for i, eid in enumerate(w.edges):
        u, v = w.vertices[i], w.vertices[(i + 1) % n]
        e = by_id[eid]
        assert {e.source, e.target} == {u, v} or (
            e.source == e.target == u == v
        ), f"edge {eid} does not join {u} and {v}"
        yield d.vertex(u), d.vertex(v), edge_part(d, e)


def cyclic_equal(a: tuple, b: tuple) -> bool:
    """Equality of cyclic sequences up to rotation only (orientation kept)."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(b[r:] + b[:r] == tuple(a) for r in range(len(b)))


def _reduce(seq):
    out = []
    for item in seq:
        if out and out[-1] == item:
            continue
        out.append(item)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def verify_cycle_witness(d: KrajewskiDiagram, w: LiftWitness, target) -> None:
    """Check a condition-(1) witness: a genuine diagram cycle whose column
    trace, loops deleted, reproduces the target up to rotation."""
    assert len(set(w.vertices)) == len(w.vertices), "lift cycles repeat no vertex"
    cols = [step[0].col for step in _witness_steps(d, w)]
    assert cyclic_equal(_reduce(cols), tuple(target)) or cyclic_equal(
        _reduce(cols), tuple(reversed(target))
    ), f"witness projects to {cols}, wanted {target}"


def verify_pair_witness(d: KrajewskiDiagram, w: LiftWitness, g1, g2) -> None:
    """Check a condition-(2) witness: a closed walk whose horizontal steps
    trace one cycle through the columns and whose vertical steps trace the
    other through the rows, each up to rotation and orientation."""
    h_trace: list[RepLabel] = []
    v_trace: list[RepLabel] = []
    for source, target, part in _witness_steps(d, w):
        if part is DiracPart.DELTA:
            assert source.row == target.row, "horizontal steps fix the row"
            h_trace.append(source.col)
        elif part is DiracPart.J_DELTA_J:
            assert source.col == target.col, "vertical steps fix the column"
            v_trace.append(source.row)
        else:
            raise AssertionError("pair lifts may not use diagonal (D0) steps")

    def matches(trace, cycle) -> bool:
        fwd = tuple(cycle)
        return cyclic_equal(tuple(trace), fwd) or cyclic_equal(
            tuple(trace), tuple(reversed(fwd))
        )

    ok_direct = matches(h_trace, g1) and matches(v_trace, g2)
    ok_swapped = matches(h_trace, g2) and matches(v_trace, g1)
    assert ok_direct or ok_swapped, (
        f"walk traces H={h_trace} V={v_trace} do not reproduce {g1} and {g2}"
    )


def verify_rconnect_report(d: KrajewskiDiagram, report) -> None:
    """Re-project every witness in the report through the verifiers."""
    for entry in report.cond1:
        if entry.witness is not None:
            verify_cycle_witness(d, entry.witness, entry.cycle)
    for entry in report.cond2:
        if entry.witness is not None:
            verify_pair_witness(d, entry.witness, *entry.pair)


# ---------------------------------------------------------------------------
# Corpus fixtures


def _corpus_diagrams() -> list[tuple[str, KrajewskiDiagram, dict | None]]:
    rows: list[tuple[str, KrajewskiDiagram, dict | None]] = [
        ("sm", builtin("sm"), None),
        ("chain", builtin("chain"), None),
        ("ym:2", builtin("ym", 2), None),
        ("ym:3", builtin("ym", 3), None),
        ("ym:5", builtin("ym", 5), None),
        ("square", square_diagram(), None),
        ("chain_repaired", load_fixture("chain_repaired.kra"), None),
    ]
    rng = random.Random(20260818)
    for k in range(50):
        diagram, meta = random_design_diagram(rng)
        rows.append((f"design{k}", diagram, meta))
    return rows


@pytest.fixture(scope="session")
def corpus():
    """(name, validated diagram, meta-or-None) for every corpus member."""
    started = time.perf_counter()
    rows = [
        (name, must_validate(d), meta) for name, d, meta in _corpus_diagrams()
    ]
    elapsed = {"build": time.perf_counter() - started}
    return rows, elapsed


@pytest.fixture(scope="session")
def corpus_reports(corpus):
    """Corpus rows paired with their R-connectedness report and coverage."""
    rows, elapsed = corpus
    started = time.perf_counter()
    out = [
        (name, d, meta, check_r_connected(d, 4), counterterm_coverage(d))
        for name, d, meta in rows
    ]
    elapsed["reports"] = time.perf_counter() - started
    return out, elapsed
