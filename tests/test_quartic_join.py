"""The quartic terms joined from two-step halves against the walk
enumeration from every vertex, on random small diagrams.

The diagrams are drawn for the shape of their walks, not for physics: a few
vertices over two or three column and row labels, so that several share a
cell, and edges between any two vertices, so that every Dirac part occurs,
with parallel copies, edges written in either direction and D0 self-loops.
They need not validate.  Terms must be equal one for one and in the same
order, origin and coefficient included, so the join must keep the first walk
of each term that ``oracle_walks`` keeps.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_walks
from kra import (
    DiagramVertex,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    KrajewskiDiagram,
    RepLabel,
    SymbolicOperator,
    action_terms,
)


@st.composite
def small_diagrams(draw) -> KrajewskiDiagram:
    labels = draw(st.integers(2, 3))
    cells = draw(st.lists(st.tuples(st.integers(0, labels - 1), st.integers(0, labels - 1)),
                          min_size=2, max_size=7))
    # vertex ids in a drawn order, so that the least vertex of a walk can lie
    # anywhere in it
    ids = draw(st.permutations([f"v{i}" for i in range(len(cells))]))
    vertices = tuple(
        DiagramVertex(vid, RepLabel(col), RepLabel(row)) for vid, (col, row) in zip(ids, cells)
    )
    ends = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=10))
    edges = tuple(
        EdgePair(f"e{i}", source, target, SymbolicOperator(f"e{i}"))
        for i, (source, target) in enumerate(pairs)
    )
    algebra = FiniteAlgebra.of(*[(2, FactorKind.COMPLEX)] * labels)
    return KrajewskiDiagram(algebra, 0, vertices, edges)


@settings(deadline=None, max_examples=400)
@given(small_diagrams())
def test_joined_walks_give_the_oracle_terms(d):
    assert action_terms(d) == oracle_walks.action_terms(d)
