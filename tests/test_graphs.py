"""Projected graphs, cycle enumeration (with brute-force oracle), lifts."""

from __future__ import annotations

import gc
import random
from itertools import permutations
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kra import (
    DiagramVertex,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    KrajewskiDiagram,
    ProjectedGraph,
    RepLabel,
    SymbolicOperator,
    builtin,
    canonical_cycle,
    check_r_connected,
    diagram_cycles,
    enumerate_cycles,
    graphs,
    lift_cycle,
    lift_pair,
    project,
)
from kra.graphs import proj_edge
from oracle_pairs import cycle_pairs

from conftest import (
    cyclic_equal,
    must_validate,
    path_diagram,
    ring_diagram,
    square_diagram,
    verify_cycle_witness,
    verify_pair_witness,
)

V = [RepLabel(i) for i in range(8)]


def graph(n: int, *edges: tuple[int, int]) -> ProjectedGraph:
    es = tuple(sorted({proj_edge(V[a], V[b]) for a, b in edges}))
    return ProjectedGraph(tuple(V[:n]), es, {})


def split_cell_diagram() -> KrajewskiDiagram:
    """M2(C)^4 with labels a, b, c, d and two vertices u, w in the cell
    (a, c): u carries the horizontal edge to p = (b, c), w the vertical edge
    to r = (a, d), and the mirror repeats this in cell (c, a).  Γ̃ has the
    2-cycles (a, b) and (c, d).  Their pair passes the edge test, since the
    step a–b is held in row c and the step c–d in column a, but a walk
    cannot get from u to w, so the pair has no lift."""
    algebra = FiniteAlgebra.of(*[(2, FactorKind.COMPLEX)] * 4)
    a, b, c, d = (RepLabel(i) for i in range(4))
    vertices = (
        DiagramVertex("u", a, c), DiagramVertex("w", a, c),
        DiagramVertex("p", b, c), DiagramVertex("r", a, d),
        DiagramVertex("u'", c, a), DiagramVertex("w'", c, a),
        DiagramVertex("p'", c, b), DiagramVertex("r'", d, a),
    )
    edges = (
        EdgePair("h", "u", "p", SymbolicOperator("x")),
        EdgePair("v", "w", "r", SymbolicOperator("y")),
        EdgePair("h'", "w'", "r'", SymbolicOperator("y")),
        EdgePair("v'", "u'", "p'", SymbolicOperator("x")),
    )
    jmap = (("u", "u'"), ("w", "w'"), ("p", "p'"), ("r", "r'"))
    return KrajewskiDiagram(algebra, 1, vertices, edges, jmap)


def brute_force_cycles(g: ProjectedGraph, max_len: int) -> set:
    """Independent oracle: try every vertex arrangement outright."""
    edge_set = set(g.non_loop_edges)
    out = {canonical_cycle(e) for e in g.non_loop_edges}
    for k in range(3, max_len + 1):
        for combo in permutations(g.vertices, k):
            if all(
                proj_edge(combo[i], combo[(i + 1) % k]) in edge_set
                for i in range(k)
            ):
                out.add(canonical_cycle(combo))
    return out


class TestProjection:
    def test_standard_model(self):
        d = must_validate(builtin("sm"))
        g = project(d)
        disp = lambda lab: lab.display(d.algebra)
        assert [disp(v) for v in g.vertices] == ["1", "1~", "2", "3"]
        assert sorted((disp(a), disp(b)) for a, b in g.non_loop_edges) == [
            ("1", "2"),
            ("1~", "2"),
        ]
        assert sorted((disp(a), disp(b)) for a, b in g.edges if a == b) == [
            ("1", "1"),
            ("3", "3"),
        ]

    def test_chain(self):
        d = must_validate(builtin("chain"))
        g = project(d)
        disp = lambda lab: lab.display(d.algebra)
        assert sorted((disp(a), disp(b)) for a, b in g.non_loop_edges) == [
            ("1", "2"),
            ("1~", "2"),
            ("1~", "3"),
        ]

    def test_psi_covers_every_edge_pair(self):
        d = must_validate(builtin("chain"))
        g = project(d)
        assert set(g.psi) == {e.id for e in d.edges}
        assert set(g.psi.values()) <= set(g.edges)

    def test_yang_mills_is_a_single_loop(self):
        d = must_validate(builtin("ym", 3))
        g = project(d)
        assert len(g.vertices) == 1
        assert g.non_loop_edges == ()


class TestCanonicalForms:
    def test_canonical_cycle_rotations_and_reversals(self):
        a, b, c = V[0], V[1], V[2]
        for variant in [(a, b, c), (b, c, a), (c, a, b), (c, b, a), (a, c, b)]:
            assert canonical_cycle(variant) == canonical_cycle((a, b, c))

    def test_cyclic_equal_is_rotation_only(self):
        a, b, c, d = V[:4]
        assert cyclic_equal((a, b, c, d), (c, d, a, b))
        assert not cyclic_equal((a, b, c, d), (d, c, b, a))
        assert not cyclic_equal((a, b, c), (a, b))
        assert cyclic_equal((), ())

    @given(st.lists(st.integers(0, 7), min_size=2, max_size=6))
    @settings(deadline=None)
    def test_canonical_cycle_invariant_under_presentation(self, idx):
        seq = tuple(V[i] for i in idx)
        base = canonical_cycle(seq)
        for r in range(len(seq)):
            assert canonical_cycle(seq[r:] + seq[:r]) == base
        assert canonical_cycle(tuple(reversed(seq))) == base


class TestEnumerateCycles:
    def test_complete_graph_on_four_vertices(self):
        k4 = graph(4, *[(i, j) for i in range(4) for j in range(i + 1, 4)])
        cycles = enumerate_cycles(k4, 4)
        by_len = {}
        for c in cycles:
            by_len.setdefault(len(c), []).append(c)
        assert len(by_len[2]) == 6
        assert len(by_len[3]) == 4
        assert len(by_len[4]) == 3
        assert len(cycles) == 13

    def test_loops_never_participate(self):
        g = graph(2, (0, 0), (0, 1), (1, 1))
        cycles = enumerate_cycles(g, 4)
        assert cycles == (canonical_cycle((V[0], V[1])),)

    def test_max_len_cuts_off(self):
        triangle = graph(3, (0, 1), (1, 2), (0, 2))
        assert len(enumerate_cycles(triangle, 2)) == 3
        assert len(enumerate_cycles(triangle, 3)) == 4

    def test_max_len_below_two_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cycles(graph(2, (0, 1)), 1)

    def test_deterministic_order(self):
        k4 = graph(4, *[(i, j) for i in range(4) for j in range(i + 1, 4)])
        cycles = enumerate_cycles(k4, 4)
        assert list(cycles) == sorted(cycles, key=lambda c: (len(c), c))
        assert all(c == canonical_cycle(c) for c in cycles)

    def test_against_brute_force_oracle(self):
        rng = random.Random(97)
        for trial in range(150):
            n = rng.randint(2, 6)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i, n)
                if rng.random() < 0.45
            ]
            g = graph(n, *edges) if edges else graph(n, (0, 0))
            max_len = rng.randint(2, n) if n >= 2 else 2
            got = set(enumerate_cycles(g, max_len))
            want = {c for c in brute_force_cycles(g, max_len)}
            assert got == want, f"trial {trial}: {got ^ want}"

    def test_oracle_on_larger_graphs(self):
        rng = random.Random(11)
        for _ in range(10):
            edges = [
                (i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.5
            ]
            g = graph(7, *edges) if edges else graph(7, (0, 1))
            assert set(enumerate_cycles(g, 7)) == brute_force_cycles(g, 7)


class TestRing:
    """The ring: Γ̃ is one cycle through every column label.  Times are
    generous bounds, in the style of the acceptance criteria."""

    def test_the_long_cycle_lifts_fast(self):
        d = must_validate(ring_diagram(151))
        (cycle,) = [c for c in diagram_cycles(d, 152) if len(c) == 152]
        gc.freeze()  # a full collection then skips what earlier tests left behind
        try:
            t0 = perf_counter()
            w = lift_cycle(cycle, d)
            elapsed = perf_counter() - t0
        finally:
            gc.unfreeze()
        assert elapsed < 0.1
        assert w is not None and len(w) == 152
        verify_cycle_witness(d, w, cycle)

    def test_cycles_of_a_long_ring_are_enumerated_fast(self):
        d = must_validate(ring_diagram(301))
        gc.freeze()
        try:
            t0 = perf_counter()
            cycles = diagram_cycles(d, 310)
            elapsed = perf_counter() - t0
        finally:
            gc.unfreeze()
        assert elapsed < 0.5
        assert len(cycles) == 303 and len(cycles[-1]) == 302  # 302 edges and the ring

    def test_no_recursion_limit_on_a_very_long_cycle(self):
        cycles = enumerate_cycles(project(ring_diagram(1101)), 1200)
        assert len(cycles) == 1103 and cycles[-1] == tuple(RepLabel(i) for i in range(1102))


class TestCyclePairs:
    """The pair list of the oracles, which ``rconnect`` numbers alike."""

    def test_chain_pairs_within_budget(self):
        d = must_validate(builtin("chain"))
        cycles = enumerate_cycles(project(d), 2)
        assert len(cycles) == 3
        pairs = cycle_pairs(cycles, 4)
        # three cycles, unordered with repetition: C(3+1, 2) = 6
        assert len(pairs) == 6
        assert all(len(g1) + len(g2) <= 4 for g1, g2 in pairs)

    def test_budget_excludes_long_combinations(self):
        d = must_validate(builtin("chain"))
        cycles = enumerate_cycles(project(d), 2)
        assert cycle_pairs(cycles, 3) == ()


class TestLiftCycle:
    def test_chain_two_cycles_lift(self):
        d = must_validate(builtin("chain"))
        cycles = enumerate_cycles(project(d), 4)
        for cycle in cycles:
            w = lift_cycle(cycle, d)
            assert w is not None, cycle
            verify_cycle_witness(d, w, cycle)

    def test_standard_model_cycles_lift(self):
        d = must_validate(builtin("sm"))
        for cycle in enumerate_cycles(project(d), 4):
            w = lift_cycle(cycle, d)
            assert w is not None
            verify_cycle_witness(d, w, cycle)

    def test_witness_is_minimal_for_direct_edge(self):
        d = must_validate(builtin("chain"))
        g = project(d)
        cycle = canonical_cycle(g.non_loop_edges[0])
        w = lift_cycle(cycle, d)
        assert w is not None and len(w) == 2

    def test_unliftable_cycle_returns_none(self):
        # the square's projected 2-cycle {2,3} lifts, but a fabricated
        # 3-cycle over labels the diagram never connects cannot
        d = must_validate(square_diagram())
        fake = (RepLabel(0), RepLabel(1), RepLabel(0, True))
        assert lift_cycle(fake, d) is None


class TestLiftPair:
    def test_square_self_pair_lifts(self):
        d = must_validate(square_diagram())
        g = project(d)
        cycle = canonical_cycle(g.non_loop_edges[0])
        w = lift_pair(cycle, cycle, d)
        assert w is not None
        assert len(w) == 4
        verify_pair_witness(d, w, cycle, cycle)

    def test_chain_disjoint_pair_has_no_lift(self):
        d = must_validate(builtin("chain"))
        alg = d.algebra
        by_disp = {
            tuple(x.display(alg) for x in c): c
            for c in enumerate_cycles(project(d), 2)
        }
        g1 = by_disp[("1", "2")]
        g2 = by_disp[("1~", "3")]
        assert lift_pair(g1, g2, d) is None
        assert lift_pair(g2, g1, d) is None
        assert lift_pair((), g1, d) is None and lift_pair(g1, (), d) is None

    def test_a_two_cycle_is_searched_in_one_orientation(self, monkeypatch):
        """Read backwards, a 2-cycle is one of its own rotations.  So a 2+2
        pair with no lift starts one kernel search per rotation of each
        cycle and meeting cell, and none for the reversed second cycle."""
        d = must_validate(split_cell_diagram())
        g1, g2 = diagram_cycles(d, 2)
        assert graphs._edges_held(g1, g2, d.index)  # the pair reaches the kernel
        cells = d.index.cells
        starts = [
            start
            for a in (g1, g1[::-1])
            for b in (g2, g2[::-1])
            for start in cells.get((a[0], b[0]), ())
        ]
        calls = []
        original = graphs._first_walk

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "_first_walk", counted)
        assert lift_pair(g1, g2, d) is None
        assert starts == ["u", "w", "r", "p"] and calls == starts

    @pytest.mark.parametrize("n", [5, 10, 20, 40])
    def test_no_pair_of_path_reaches_the_kernel(self, monkeypatch, n):
        """Every pair of path that is not exempt fails the edge test: a
        cycle holds a horizontal and a vertical edge only through the
        trivial label, and two cycles that share it are exempt."""
        calls = []
        original = graphs._first_walk

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "_first_walk", counted)
        report = check_r_connected(path_diagram(n), 4)
        assert not report.verdict and calls == []

    def test_all_found_lifts_verify_on_random_corpus(self, corpus):
        rows, _elapsed = corpus
        checked = 0
        for _name, d, _meta in rows:
            cycles = enumerate_cycles(project(d), 2)
            for g1, g2 in cycle_pairs(cycles, 4):
                w = lift_pair(g1, g2, d)
                if w is not None:
                    verify_pair_witness(d, w, g1, g2)
                    checked += 1
        assert checked >= 1  # the square-like designs contribute at least one
