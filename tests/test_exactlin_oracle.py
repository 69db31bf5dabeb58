"""The fraction-free rank kernel against the Gauss-Jordan elimination it
replaced (``oracle_exactlin``): equal ranks on every family drawn here."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_exactlin
from kra.exactlin import GaussRational, matrix_rank, span_rank

ZERO = GaussRational.of(0)


def entries(draw, n: int) -> list[GaussRational]:
    """n entries whose parts have numerators in -5..5 and denominators up
    to 5, drawn as two integer lists (much faster than n fraction draws)."""
    nums = draw(st.lists(st.integers(-5, 5), min_size=2 * n, max_size=2 * n))
    dens = draw(st.lists(st.integers(1, 5), min_size=2 * n, max_size=2 * n))
    parts = [Fraction(a, b) for a, b in zip(nums, dens)]
    return [GaussRational(parts[2 * k], parts[2 * k + 1]) for k in range(n)]


@st.composite
def families(draw):
    """A matrix of up to 8×8 over Q(i): each row is drawn free, sparse (some
    entries zero), zero, or as a Gaussian-rational combination of up to
    three rows before it; then some columns are zeroed and the rows
    shuffled."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rows: list[list[GaussRational]] = []
    for r in range(n_rows):
        kinds = ("free", "sparse", "zero", "combination")
        kind = draw(st.sampled_from(kinds if r else kinds[:3]))
        if kind == "free":
            row = entries(draw, n_cols)
        elif kind == "sparse":
            kept = draw(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols))
            row = [x if keep else ZERO for x, keep in zip(entries(draw, n_cols), kept)]
        elif kind == "zero":
            row = [ZERO] * n_cols
        else:
            row = [ZERO] * n_cols
            picked = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=3))
            for k, c in zip(picked, entries(draw, len(picked))):
                row = [x + c * y for x, y in zip(row, rows[k])]
        rows.append(row)
    zeroed = draw(st.sets(st.integers(0, max(n_cols - 1, 0)), max_size=n_cols))
    rows = [[ZERO if j in zeroed else x for j, x in enumerate(row)] for row in rows]
    rows = draw(st.permutations(rows))
    return tuple(tuple(row) for row in rows), n_cols


@given(families())
@settings(deadline=None, max_examples=300)
def test_matrix_rank_matches_oracle(family):
    m, _ = family
    assert matrix_rank(m) == oracle_exactlin.matrix_rank(m)


@given(families(), st.data())
@settings(deadline=None, max_examples=300)
def test_span_rank_matches_oracle(family, data):
    """Each row, cut into a matrix of a drawn shape, is one member."""
    m, n_cols = family
    height = data.draw(st.sampled_from([d for d in range(1, n_cols + 1) if n_cols % d == 0] or [0]))
    width = n_cols // height if height else 0
    matrices = tuple(
        tuple(row[k * width:(k + 1) * width] for k in range(height)) for row in m
    )
    assert span_rank(matrices) == oracle_exactlin.span_rank(matrices)
