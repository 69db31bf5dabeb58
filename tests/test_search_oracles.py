"""The cycle enumeration and the pair-lift refusal against the code they
replaced, on random small inputs.

``enumerate_cycles`` finds each cycle once, from its least vertex; it must
give the tuples ``oracle_cycles`` gives, in the same order.  ``lift_pair``
returns before any walk unless each step of either cycle has an edge over
it in a row or column of the other; that test must never refuse a pair the
exhaustive ``oracle_pairs.lift_pair`` lifts, and the witness must be the
oracle's in both orders of the pair.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_cycles
import oracle_pairs
from kra import (
    DiagramVertex,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    KrajewskiDiagram,
    ProjectedGraph,
    RepLabel,
    SymbolicOperator,
    enumerate_cycles,
    graphs,
    lift_pair,
)
from kra.graphs import proj_edge

LABELS = [RepLabel(i, conj) for i in range(4) for conj in (False, True)]


@st.composite
def small_graphs(draw) -> ProjectedGraph:
    vertices = sorted(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=7,
                                    unique=True)))
    ends = st.sampled_from(vertices)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=14))  # loops included
    edges = tuple(sorted({proj_edge(a, b) for a, b in pairs}))
    return ProjectedGraph(tuple(vertices), edges, {})


@settings(deadline=None, max_examples=300)
@given(small_graphs(), st.integers(2, 8))
def test_cycles_from_the_least_vertex_give_the_oracle_tuples(g, max_len):
    assert enumerate_cycles(g, max_len) == oracle_cycles.enumerate_cycles(g, max_len)


@st.composite
def small_diagrams(draw) -> KrajewskiDiagram:
    """A few vertices over two or three labels, so that cells are shared,
    and edges between any two of them; they need not validate."""
    labels = draw(st.integers(2, 3))
    cells = draw(st.lists(st.tuples(st.integers(0, labels - 1), st.integers(0, labels - 1)),
                          min_size=2, max_size=8))
    ids = [f"v{i}" for i in range(len(cells))]
    vertices = tuple(
        DiagramVertex(vid, RepLabel(col), RepLabel(row)) for vid, (col, row) in zip(ids, cells)
    )
    ends = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=12))
    edges = tuple(
        EdgePair(f"e{i}", source, target, SymbolicOperator(f"e{i}"))
        for i, (source, target) in enumerate(pairs)
    )
    algebra = FiniteAlgebra.of(*[(2, FactorKind.COMPLEX)] * labels)
    return KrajewskiDiagram(algebra, 0, vertices, edges)


@settings(deadline=None, max_examples=300)
@given(small_diagrams())
def test_the_edge_test_refuses_no_pair_the_oracle_lifts(d):
    labels = [RepLabel(i) for i in range(len(d.algebra.factors))]
    every_edge = tuple(proj_edge(a, b) for a in labels for b in labels if a < b)
    # every cycle over the labels, whether or not Γ̃ holds it
    cycles = enumerate_cycles(ProjectedGraph(tuple(labels), every_edge, {}), len(labels))
    copy = replace(d)  # a fresh index: the oracle reads nothing lift_pair stored
    for g1, g2 in product(cycles, repeat=2):
        want = oracle_pairs.lift_pair(g1, g2, copy)
        if want is not None:
            assert graphs._edges_held(g1, g2, d.index), (g1, g2)
        assert lift_pair(g1, g2, d) == want, (g1, g2)
