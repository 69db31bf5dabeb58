"""Exact Gaussian-rational arithmetic and rank computations."""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kra import (
    AlgebraFactor,
    DiagramVertex,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    GaussRational,
    KrajewskiDiagram,
    NumericOperator,
    RepLabel,
    basis_dimension,
    matrix_rank,
    span_rank,
)


def g(re, im=0) -> GaussRational:
    return GaussRational(Fraction(re), Fraction(im))


class TestGaussRational:
    def test_product(self):
        assert g(1, 2) * g(3, -1) == g(5, 5)

    def test_sum_and_difference(self):
        assert g(1, 2) + g(3, -1) == g(4, 1)
        assert g(1, 2) - g(3, -1) == g(-2, 3)

    def test_conjugate(self):
        assert g(Fraction(1, 2), Fraction(-3, 4)).conjugate() == g(
            Fraction(1, 2), Fraction(3, 4)
        )

    def test_inverse(self):
        z = g(Fraction(3, 7), Fraction(-2, 5))
        assert z * z.inverse() == g(1, 0)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            g(0, 0).inverse()

    def test_truthiness(self):
        assert not g(0, 0)
        assert g(0, 1)
        assert g(Fraction(1, 1000000), 0)

    def test_of_accepts_ints_and_fractions(self):
        assert GaussRational.of(2) == g(2, 0)
        assert GaussRational.of(Fraction(1, 3), Fraction(2, 3)) == g(
            Fraction(1, 3), Fraction(2, 3)
        )

    @given(
        st.tuples(
            st.fractions(max_denominator=20), st.fractions(max_denominator=20)
        ),
        st.tuples(
            st.fractions(max_denominator=20), st.fractions(max_denominator=20)
        ),
    )
    @settings(deadline=None)
    def test_multiplication_norm_is_multiplicative(self, a, b):
        za, zb = g(*a), g(*b)
        prod = za * zb

        def norm(z):
            return z.re * z.re + z.im * z.im

        assert norm(prod) == norm(za) * norm(zb)

    @given(
        st.tuples(
            st.fractions(max_denominator=10), st.fractions(max_denominator=10)
        )
    )
    @settings(deadline=None)
    def test_nonzero_inverse_round_trip(self, a):
        z = g(*a)
        if not z:
            return
        assert z * z.inverse() == g(1, 0)


ONE = GaussRational.of(1)
ZERO = GaussRational.of(0)
I = GaussRational.of(0, 1)


class TestMatrixRank:
    def test_identity(self):
        m = tuple(
            tuple(ONE if i == j else ZERO for j in range(3)) for i in range(3)
        )
        assert matrix_rank(m) == 3

    def test_proportional_rows(self):
        m = (
            (GaussRational.of(1), GaussRational.of(2)),
            (GaussRational.of(2), GaussRational.of(4)),
        )
        assert matrix_rank(m) == 1

    def test_zero_matrix(self):
        m = ((ZERO, ZERO), (ZERO, ZERO))
        assert matrix_rank(m) == 0

    def test_complex_dependence(self):
        # second row is i times the first
        m = ((ONE, I), (I, GaussRational.of(-1)))
        assert matrix_rank(m) == 1

    def test_rectangular(self):
        m = ((ONE, ZERO, I),)
        assert matrix_rank(m) == 1

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32))
    @settings(deadline=None, max_examples=60)
    def test_rank_bounded_by_shape(self, rows, cols, seed):
        import random

        rng = random.Random(seed)
        m = tuple(
            tuple(
                GaussRational.of(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(cols)
            )
            for _ in range(rows)
        )
        r = matrix_rank(m)
        assert 0 <= r <= min(rows, cols) if rows and cols else r == 0
        # row swaps and a nonzero row scaling leave the rank alone
        if rows >= 2:
            swapped = (m[1], m[0]) + m[2:]
            assert matrix_rank(swapped) == r
            scaled = (tuple(x * GaussRational.of(3) for x in m[0]),) + m[1:]
            assert matrix_rank(scaled) == r


class TestSpanRank:
    def test_independent_matrices(self):
        a = ((ONE, ZERO),)
        b = ((ZERO, ONE),)
        assert span_rank((a, b)) == 2

    def test_dependent_matrices(self):
        a = ((ONE, ZERO),)
        b = ((GaussRational.of(2), ZERO),)
        assert span_rank((a, b)) == 1

    def test_i_multiple_is_dependent(self):
        a = ((ONE,),)
        b = ((I,),)
        assert span_rank((a, b)) == 1

    def test_empty(self):
        assert span_rank(()) == 0

    def test_shape_mismatch(self):
        a = ((ONE, ZERO),)
        b = ((ONE,),)
        with pytest.raises(ValueError):
            span_rank((a, b))


class TestRaggedRows:
    def test_matrix_rank_rejects_a_longer_later_row(self):
        with pytest.raises(ValueError):
            matrix_rank(((ZERO,), (ZERO, ONE)))

    def test_matrix_rank_rejects_a_shorter_later_row(self):
        with pytest.raises(ValueError):
            matrix_rank(((ONE, ZERO), (ZERO,)))

    def test_span_rank_rejects_ragged_matrices(self):
        with pytest.raises(ValueError):
            span_rank((((ONE,), (ZERO, ONE)), ((ONE,), (ONE, ONE))))

    def test_span_rank_rejects_rows_of_another_width(self):
        with pytest.raises(ValueError):
            span_rank((((ONE, ZERO), (ZERO, ONE)), ((ONE, ZERO, ONE), (ONE,))))


def test_int_parts_rank_as_fraction_parts():
    rng = random.Random(19)
    for _ in range(50):
        parts = [
            [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
            for _ in range(3)
        ]
        parts.append([(a + 2 * c, b + 2 * d) for (a, b), (c, d) in zip(*parts[:2])])
        as_int = tuple(tuple(GaussRational(re, im) for re, im in row) for row in parts)
        as_fraction = tuple(tuple(GaussRational.of(re, im) for re, im in row) for row in parts)
        assert isinstance(as_int[0][0].re, int)
        assert matrix_rank(as_int) == matrix_rank(as_fraction) <= 3
        assert span_rank(tuple((row,) for row in as_int)) == matrix_rank(as_fraction)


def _random_entry(rng: random.Random) -> GaussRational:
    return GaussRational.of(
        Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
    )


class TestRankTime:
    """Elimination without the exact division lets entries grow
    exponentially with the size; these bounds catch that."""

    def test_basis_dimension_of_36_matrices_on_one_edge(self):
        rng = random.Random(36)
        algebra = FiniteAlgebra((
            AlgebraFactor(6, FactorKind.COMPLEX),
            AlgebraFactor(6, FactorKind.COMPLEX),
            AlgebraFactor(1, FactorKind.COMPLEX),
        ))
        a, b, c = (RepLabel(k) for k in range(3))
        edges = tuple(
            EdgePair(f"e{k}", "x", "y", NumericOperator(tuple(
                tuple(_random_entry(rng) for _ in range(6)) for _ in range(6)
            )))
            for k in range(36)
        )
        d = KrajewskiDiagram(
            algebra, 0, (DiagramVertex("x", a, c, 1), DiagramVertex("y", b, c, -1)), edges
        )
        t0 = perf_counter()
        assert basis_dimension((a, b), d) == 36
        assert perf_counter() - t0 < 0.25

    def test_matrix_rank_of_a_30_by_25_matrix(self):
        rng = random.Random(30)
        m = tuple(tuple(_random_entry(rng) for _ in range(25)) for _ in range(30))
        t0 = perf_counter()
        assert matrix_rank(m) == 25
        assert perf_counter() - t0 < 0.1
