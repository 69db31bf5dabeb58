"""Finite algebras A = ⊕ M_k(F) and their gauge Lie algebra.

A finite real algebra is given by its Wedderburn decomposition: an ordered
list of matrix factors M_k(F) with F one of R, C, H.  Irreducible
representations are labeled by a factor index plus a conjugation flag (only
complex factors have inequivalent conjugates).  The traceless-unitary gauge
Lie algebra decomposes factorwise into o(k) / su(k) / sp(k) summands plus an
abelian part u(1)^(C-1), with the -1 coming from the unimodularity condition
tying together the C circle generators of the complex factors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

__all__ = [
    "FactorKind",
    "AlgebraFactor",
    "FiniteAlgebra",
    "RepLabel",
    "GaugeAlgebraDecomposition",
    "UnimodularityRelation",
    "gauge_lie_algebra",
    "simple_factor_dimension",
    "algebra_dimension",
    "unimodularity_relation",
    "irrep_correspondence_check",
]


class FactorKind(enum.Enum):
    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"


@dataclass(frozen=True, slots=True)
class AlgebraFactor:
    """One Wedderburn factor M_size(kind)."""

    size: int
    kind: FactorKind

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"factor size must be >= 1, got {self.size}")

    @property
    def rep_dimension(self) -> int:
        """Complex dimension of the fundamental representation.

        M_k(R) and M_k(C) act irreducibly on C^k; M_k(H) on C^(2k).
        """
        if self.kind is FactorKind.QUATERNION:
            return 2 * self.size
        return self.size


@dataclass(frozen=True, slots=True)
class FiniteAlgebra:
    factors: tuple[AlgebraFactor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("an algebra needs at least one factor")

    @classmethod
    def of(cls, *factors: tuple[int, FactorKind]) -> "FiniteAlgebra":
        return cls(tuple(AlgebraFactor(size, kind) for size, kind in factors))


class RepLabel(NamedTuple):
    """An irreducible representation: factor index + conjugation flag.

    Ordering is (factor_index, conjugate), which doubles as the canonical
    sort key everywhere representation labels are compared or printed.
    A label is a tuple of its two fields, so it hashes, compares and sorts
    at C speed, and it equals the plain tuple ``(factor_index, conjugate)``.
    """

    factor_index: int
    conjugate: bool = False

    def display(self, algebra: FiniteAlgebra) -> str:
        """Human-readable label: the rep dimension, with ``~`` for conjugates."""
        dim = algebra.factors[self.factor_index].rep_dimension
        return f"{dim}~" if self.conjugate else str(dim)

    def dimension(self, algebra: FiniteAlgebra) -> int:
        return algebra.factors[self.factor_index].rep_dimension

    def conjugated(self, algebra: FiniteAlgebra) -> "RepLabel":
        """The conjugate representation.

        Real and quaternionic fundamentals are self-conjugate; complex ones
        flip the flag.
        """
        if algebra.factors[self.factor_index].kind is FactorKind.COMPLEX:
            return RepLabel(self.factor_index, not self.conjugate)
        return self

    def check_against(self, algebra: FiniteAlgebra) -> None:
        if not 0 <= self.factor_index < len(algebra.factors):
            raise ValueError(f"factor index {self.factor_index} out of range")
        kind = algebra.factors[self.factor_index].kind
        if self.conjugate and kind is not FactorKind.COMPLEX:
            raise ValueError(
                "conjugate labels only exist over complex factors, "
                f"factor {self.factor_index} is {kind.value}"
            )


# ---------------------------------------------------------------------------
# Gauge Lie algebra


class GaugeAlgebraDecomposition(NamedTuple):
    """Simple summands (kind, k) plus the rank of the abelian part.

    ``simple_factors`` entries use the classical series names: ("o", k),
    ("su", k), ("sp", k).  Zero-dimensional entries o(1) and su(1) are
    omitted at construction time by :func:`gauge_lie_algebra`.
    """

    simple_factors: tuple[tuple[str, int], ...]
    abelian_rank: int

    def display(self) -> str:
        parts = [f"{kind}({k})" for kind, k in self.simple_factors]
        if self.abelian_rank == 1:
            parts.append("u(1)")
        elif self.abelian_rank > 1:
            parts.append(f"u(1)^{self.abelian_rank}")
        return " + ".join(parts) if parts else "0"


_SIMPLE_DIMENSION = {
    "o": lambda k: k * (k - 1) // 2,
    "su": lambda k: k * k - 1,
    "sp": lambda k: k * (2 * k + 1),
}

_SERIES_FOR_KIND = {
    FactorKind.REAL: "o",
    FactorKind.COMPLEX: "su",
    FactorKind.QUATERNION: "sp",
}


def gauge_lie_algebra(algebra: FiniteAlgebra) -> GaugeAlgebraDecomposition:
    """Decompose the traceless-unitary Lie algebra of ``algebra``.

    Factorwise: M_k(R) -> o(k), M_k(C) -> su(k), M_k(H) -> sp(k), dropping
    the zero-dimensional o(1) and su(1).  Complex factors additionally
    contribute circle generators, of which C - 1 survive the unimodularity
    condition (0 when there is no complex factor at all).
    """
    simple: list[tuple[str, int]] = []
    complex_count = 0
    for factor in algebra.factors:
        if factor.kind is FactorKind.COMPLEX:
            complex_count += 1
        series = _SERIES_FOR_KIND[factor.kind]
        if _SIMPLE_DIMENSION[series](factor.size) > 0:
            simple.append((series, factor.size))
    return GaugeAlgebraDecomposition(
        simple_factors=tuple(simple),
        abelian_rank=max(complex_count - 1, 0),
    )


def simple_factor_dimension(series: str, k: int) -> int:
    """Dimension of o(k), su(k), or sp(k)."""
    return _SIMPLE_DIMENSION[series](k)


def algebra_dimension(decomp: GaugeAlgebraDecomposition) -> int:
    """Total dimension: simple summand dimensions plus the abelian rank."""
    total = sum(_SIMPLE_DIMENSION[kind](k) for kind, k in decomp.simple_factors)
    return total + decomp.abelian_rank


# ---------------------------------------------------------------------------
# Unimodularity


class UnimodularityRelation(NamedTuple):
    """The single linear relation among the complex factors' u(1) generators.

    ``constraint`` lists (factor_index, coefficient) for complex factors; the
    relation reads sum(coefficient * z_i) = 0.  When every coefficient
    vanishes the relation is empty and all C circle generators survive, which
    is flagged as degenerate.
    """

    constraint: tuple[tuple[int, int], ...]
    effective_abelian_rank: int
    degenerate: bool


def unimodularity_relation(
    algebra: FiniteAlgebra, multiplicities: Sequence[int]
) -> UnimodularityRelation:
    """Impose tracelessness on the abelian gauge sector.

    ``multiplicities`` gives, per factor, how often its fundamental
    representation occurs in the Hilbert space.  The trace of a gauge element
    restricted to the abelian part is sum over complex factors of
    multiplicity * z_i; setting it to zero removes one generator whenever
    some complex factor actually acts (nonzero multiplicity), leaving rank
    C - 1.  With all multiplicities zero there is no condition and the rank
    stays C (degenerate case).
    """
    if len(multiplicities) != len(algebra.factors):
        raise ValueError(
            f"need one multiplicity per factor: got {len(multiplicities)} "
            f"for {len(algebra.factors)} factors"
        )
    if any(m < 0 for m in multiplicities):
        raise ValueError("multiplicities must be non-negative")
    constraint = tuple(
        (i, int(multiplicities[i]))
        for i, factor in enumerate(algebra.factors)
        if factor.kind is FactorKind.COMPLEX
    )
    complex_count = len(constraint)
    if any(coeff != 0 for _, coeff in constraint):
        return UnimodularityRelation(constraint, complex_count - 1, False)
    return UnimodularityRelation(constraint, complex_count, True)


def irrep_correspondence_check(algebra: FiniteAlgebra) -> tuple[bool, str]:
    """Check the hypothesis tying irreducible representations to the factors.

    Holds iff the algebra contains no real factor, and either no complex
    factor at all or at least one complex factor of size > 1.  Returns the
    verdict together with a diagnostic naming the violating clause.
    """
    for i, factor in enumerate(algebra.factors):
        if factor.kind is FactorKind.REAL:
            return False, f"factor {i} is a real matrix algebra M_{factor.size}(R)"
    complex_factors = [
        (i, f) for i, f in enumerate(algebra.factors) if f.kind is FactorKind.COMPLEX
    ]
    if complex_factors and all(f.size == 1 for _, f in complex_factors):
        return (
            False,
            "all complex factors are one-dimensional; "
            "at least one M_k(C) with k > 1 is needed",
        )
    return True, "no real factors; complex factors admissible"
