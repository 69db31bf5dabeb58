"""Power counting for the asymptotically expanded action at order n.

All propagators fall off as |p|^{-(n-2)}, gauge-Higgs vertices of valence
(i, j) carry momentum degree n - i - j, and ghost vertices degree n - 3
(gauge) or n - 4 (Higgs).  The superficial degree of divergence of a graph
is bounded by a sum over its profile, and after eliminating internal lines
through the half-edge and Euler identities, by

    omega <= (4 - n)(L - 1) + 4 - (E_A + E_chi + E_ghost),

which is what makes the expansion renormalizable for n >= 4 and
superrenormalizable for n >= 8.  At n >= 8 every multi-loop graph with at
least one external line has omega < 0.  The single exception is the
two-loop vacuum graph at n = 8, which is exactly marginal (omega = 0); it
carries no external field, so it renormalizes no term of the action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:
    from .diagram import KrajewskiDiagram
    from .rconnect import RConnectReport

__all__ = [
    "GraphProfile",
    "ExpansionOrder",
    "HeatKernelCoefficients",
    "Verdict",
    "expansion_order",
    "validate_profile",
    "omega_bound",
    "omega_external",
    "heat_kernel_coefficients",
    "propagator_uv_degrees",
    "renorm_verdict",
    "NON_MULTIPLICATIVE_NOTE",
    "ORDER_FOUR_NOTE",
    "ORDER_EIGHT_VACUUM_NOTE",
    "IRREP_HYPOTHESIS",
    "RCONNECT_HYPOTHESIS",
]


@dataclass(frozen=True)
class ExpansionOrder:
    """Truncation order of the expansion: an even integer, at least 4 (odd
    heat-kernel terms vanish, so odd orders are meaningless here)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("expansion order must be at least 4")
        if self.n % 2 != 0:
            raise ValueError("expansion order must be even (odd orders vanish)")


def expansion_order(n: int | ExpansionOrder) -> int:
    return n.n if isinstance(n, ExpansionOrder) else ExpansionOrder(n).n


@dataclass(frozen=True)
class GraphProfile:
    """Line/vertex census of one Feynman graph.

    V maps gauge-Higgs vertex valences (i, j) — i gauge and j Higgs legs,
    i + j >= 3 — to their multiplicities; the ghost vertices carry one gauge
    or one Higgs leg plus two ghost legs each.
    """

    L: int
    I_A: int = 0
    I_chi: int = 0
    I_ghost: int = 0
    V: Mapping[tuple[int, int], int] = field(default_factory=dict)
    V_ghostA: int = 0
    V_ghostChi: int = 0
    E_A: int = 0
    E_chi: int = 0
    E_ghost: int = 0

    def __post_init__(self) -> None:
        counts = [
            self.L, self.I_A, self.I_chi, self.I_ghost,
            self.V_ghostA, self.V_ghostChi, self.E_A, self.E_chi, self.E_ghost,
        ]
        if any(c < 0 for c in counts) or any(c < 0 for c in self.V.values()):
            raise ValueError("profile counts must be non-negative")
        for i, j in self.V:
            if i < 0 or j < 0 or i + j < 3:
                raise ValueError(f"vertex valence ({i},{j}) must have i+j >= 3")

    @property
    def total_vertices(self) -> int:
        return sum(self.V.values()) + self.V_ghostA + self.V_ghostChi

    @property
    def internal_lines(self) -> int:
        return self.I_A + self.I_chi + self.I_ghost


class ProfileCheck(NamedTuple):
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class ProfileReport(NamedTuple):
    checks: tuple[ProfileCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def validate_profile(p: GraphProfile) -> ProfileReport:
    """The three half-edge identities plus Euler's loop formula."""
    gauge_stubs = sum(i * count for (i, _j), count in p.V.items())
    higgs_stubs = sum(j * count for (_i, j), count in p.V.items())
    checks = (
        ProfileCheck("gauge half-edges", 2 * p.I_A + p.E_A, gauge_stubs + p.V_ghostA),
        ProfileCheck("higgs half-edges", 2 * p.I_chi + p.E_chi, higgs_stubs + p.V_ghostChi),
        ProfileCheck(
            "ghost half-edges",
            2 * p.I_ghost + p.E_ghost,
            2 * p.V_ghostA + 2 * p.V_ghostChi,
        ),
        ProfileCheck("euler loops", p.L, p.internal_lines - p.total_vertices + 1),
    )
    return ProfileReport(checks)


def omega_bound(p: GraphProfile, n: int | ExpansionOrder) -> int:
    """Superficial divergence bound straight from the graph profile."""
    order = expansion_order(n)
    for i, j in p.V:
        if i + j > order:
            raise ValueError(
                f"vertex valence ({i},{j}) exceeds the expansion order {order}"
            )
    return (
        4 * p.L
        - p.internal_lines * (order - 2)
        + sum((order - i - j) * count for (i, j), count in p.V.items())
        + p.V_ghostA * (order - 3)
        + p.V_ghostChi * (order - 4)
    )


def omega_external(
    L: int, E_A: int, E_chi: int, E_ghost: int, n: int | ExpansionOrder
) -> int:
    """The bound rewritten in external quantities only."""
    if L < 0:
        raise ValueError("loop order must be non-negative")
    order = expansion_order(n)
    return (4 - order) * (L - 1) + 4 - (E_A + E_chi + E_ghost)


class HeatKernelCoefficients(NamedTuple):
    k: int
    c: Fraction
    c_prime: Fraction
    prefactor: str = "1/(8*pi^2)"


def heat_kernel_coefficients(k: int) -> HeatKernelCoefficients:
    """Exact rational parts of c_k and c'_k; the 1/(8π²) stays symbolic."""
    if k < 0:
        raise ValueError("k must be non-negative")
    c = Fraction(factorial(k + 1), (2 * k + 3) * factorial(2 * k + 1))
    c_prime = Fraction(factorial(k), factorial(2 * k + 1))
    return HeatKernelCoefficients(k, c, c_prime)


def propagator_uv_degrees(n: int | ExpansionOrder) -> dict[str, int]:
    order = expansion_order(n)
    degree = -(order - 2)
    return {"gauge": degree, "higgs": degree, "ghost": degree}


NON_MULTIPLICATIVE_NOTE = (
    "Not multiplicatively renormalizable: the coefficients in front of the "
    "required counterterms may differ from the generated ones."
)
ORDER_FOUR_NOTE = (
    "At order n = 4 the truncation is strictly speaking not a "
    "higher-derivative theory; the verdict applies to the order-4 action."
)
ORDER_EIGHT_VACUUM_NOTE = (
    "At order n = 8 the two-loop vacuum graph is marginal (omega = 0); it "
    "has no external lines, so it renormalizes no term of the action."
)

IRREP_HYPOTHESIS = "irreducible-representation correspondence fails"
RCONNECT_HYPOTHESIS = "R-connectedness fails"


class Verdict(NamedTuple):
    verdict: str
    order: int
    failing_hypotheses: tuple[str, ...]
    notes: tuple[str, ...]
    irrep_ok: bool
    irrep_detail: str
    rconnect: RConnectReport

    @property
    def headline(self) -> str:
        if self.failing_hypotheses:
            return f"{self.verdict}: {' and '.join(self.failing_hypotheses)}"
        return self.verdict


def renorm_verdict(d: KrajewskiDiagram, n: int | ExpansionOrder) -> Verdict:
    """Sufficient-condition verdict at expansion order n.

    Both hypotheses passing yields Renormalizable (Superrenormalizable for
    n >= 8); any failure yields Inconclusive — never "non-renormalizable",
    the criterion being sufficient only.  Superrenormalizable means that
    every multi-loop graph with an external line converges; at n = 8 the
    two-loop vacuum graph is marginal, which ORDER_EIGHT_VACUUM_NOTE records.
    """
    # imported at call time: power counting without a diagram runs no diagram code
    from .algebra import irrep_correspondence_check
    from .rconnect import check_r_connected

    order = expansion_order(n)
    irrep_ok, irrep_detail = irrep_correspondence_check(d.algebra)
    report = check_r_connected(d, 4)
    failing = []
    if irrep_ok and report.verdict:
        verdict = "Superrenormalizable" if order >= 8 else "Renormalizable"
    else:
        verdict = "Inconclusive"
        if not report.verdict:
            failing.append(RCONNECT_HYPOTHESIS)
        if not irrep_ok:
            failing.append(IRREP_HYPOTHESIS)
    notes = [NON_MULTIPLICATIVE_NOTE]
    if order == 4:
        notes.append(ORDER_FOUR_NOTE)
    elif order == 8:
        notes.append(ORDER_EIGHT_VACUUM_NOTE)
    return Verdict(
        verdict=verdict,
        order=order,
        failing_hypotheses=tuple(failing),
        notes=tuple(notes),
        irrep_ok=irrep_ok,
        irrep_detail=irrep_detail,
        rconnect=report,
    )
