"""Exact linear algebra over the Gaussian rationals Q(i).

Operator matrices attached to diagram edges are stored with entries of the
form ``a + b*i`` where ``a`` and ``b`` are :class:`fractions.Fraction`.  The
only nontrivial routine needed on top of the arithmetic is an exact rank
computation, used to measure the dimension of the span of a family of
matrices: each row is scaled to Gaussian integers and eliminated
fraction-free (Bareiss), so the loop runs on plain ints.  Everything here is
tolerance-free by construction; no floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Sequence

__all__ = ["GaussRational", "Matrix", "matrix_rank", "span_rank"]


@dataclass(frozen=True, slots=True)
class GaussRational:
    """A complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re: int | Fraction, im: int | Fraction = 0) -> "GaussRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def inverse(self) -> "GaussRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussRational(self.re / norm, -self.im / norm)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0


ZERO = GaussRational()

#: A dense matrix: tuple of rows, each a tuple of entries.
Matrix = tuple[tuple[GaussRational, ...], ...]


def _gauss_integer_row(entries: Iterable[GaussRational]) -> list[tuple[int, int]]:
    """The entries scaled by the least common multiple of their denominators,
    as (re, im) int pairs: a nonzero scaling, so the row spans the same line."""
    parts = []
    scale = 1
    for z in entries:
        a, b = z.re.as_integer_ratio()
        c, d = z.im.as_integer_ratio()
        parts.append((a, b, c, d))
        scale = lcm(scale, b, d)
    if scale == 1:
        return [(a, c) for a, _, c, _ in parts]
    return [(a * (scale // b), c * (scale // d)) for a, b, c, d in parts]


def _bareiss_rank(rows: list[list[tuple[int, int]]]) -> int:
    """Rank of rows of Gaussian integers by fraction-free elimination.

    At each pivot p every row r below becomes (p*r - f*q)/prev, with q the
    pivot row, f the entry of r under p and prev the pivot before (1 at the
    start).  By Sylvester's identity each entry is then a minor of the
    input, so the division by prev is exact in Z[i] and no entry grows past
    the size of a minor.  A column with no pivot is dropped, and so are each
    pivot row once used and each row that becomes zero: every row left is
    nonzero and holds only the columns not yet passed, so a last one left
    adds 1 to the rank.
    """
    rank = 0
    prev_re, prev_im, prev_norm = 1, 0, 1
    rows = [row for row in rows if any(map(any, row))]
    while len(rows) > 1:
        for k, row in enumerate(rows):
            if any(row[0]):
                break
        else:
            rows = [row[1:] for row in rows]
            continue
        pivot = rows.pop(k)
        rank += 1
        p_re, p_im = pivot[0]
        lead = pivot[1:]
        eliminated = []
        for row in rows:
            f_re, f_im = row[0]
            out = []
            for (x_re, x_im), (q_re, q_im) in zip(row[1:], lead):
                # a = p*x - f*q, then a / prev = a * conj(prev) / |prev|^2
                a_re = p_re * x_re - p_im * x_im - f_re * q_re + f_im * q_im
                a_im = p_re * x_im + p_im * x_re - f_re * q_im - f_im * q_re
                out.append((
                    (a_re * prev_re + a_im * prev_im) // prev_norm,
                    (a_im * prev_re - a_re * prev_im) // prev_norm,
                ))
            if any(map(any, out)):
                eliminated.append(out)
        rows = eliminated
        prev_re, prev_im, prev_norm = p_re, p_im, p_re * p_re + p_im * p_im
    return rank + len(rows)


def matrix_rank(rows: Sequence[Sequence[GaussRational]]) -> int:
    """Rank of a dense matrix over Q(i), by exact fraction-free elimination."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("matrix_rank requires rows of equal length")
    return _bareiss_rank([_gauss_integer_row(row) for row in rows])


def span_rank(matrices: Sequence[Matrix]) -> int:
    """Dimension of the linear span of same-shape matrices over Q(i).

    Each matrix is flattened to a vector; the rank of the stacked vectors is
    the span dimension.
    """
    if not matrices:
        return 0
    first = matrices[0]
    widths = [len(first[0]) if first else 0] * len(first)
    rows = []
    for m in matrices:
        if list(map(len, m)) != widths:
            raise ValueError("span_rank requires matrices of equal shape")
        rows.append(_gauss_integer_row(chain.from_iterable(m)))
    return _bareiss_rank(rows)
