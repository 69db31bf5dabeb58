"""Power counting: divergence bounds, identities, coefficients, verdicts."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from kra import (
    COVERAGE_HYPOTHESIS,
    IRREP_HYPOTHESIS,
    NON_MULTIPLICATIVE_NOTE,
    ORDER_EIGHT_VACUUM_NOTE,
    ORDER_FOUR_NOTE,
    RCONNECT_HYPOTHESIS,
    ExpansionOrder,
    FactorKind,
    FiniteAlgebra,
    GraphProfile,
    KrajewskiDiagram,
    builtin,
    heat_kernel_coefficients,
    omega_bound,
    omega_external,
    propagator_uv_degrees,
    renorm_verdict,
    validate_profile,
)

from conftest import (
    CASE_NAMES,
    PROFILE_MUTATIONS,
    load_case,
    must_validate,
    mutate_profile,
    random_consistent_profile,
)

BUBBLE = GraphProfile(L=1, I_A=2, V={(3, 0): 2}, E_A=2)
TREE = GraphProfile(L=0, V={(3, 0): 1}, E_A=3)


class TestExpansionOrder:
    def test_accepts_even_orders_from_four(self):
        for n in (4, 6, 8, 10):
            assert ExpansionOrder(n).n == n

    def test_rejects_small_or_odd(self):
        for n in (2, 3, 5, 0, -4):
            with pytest.raises(ValueError):
                ExpansionOrder(n)


class TestHeatKernel:
    def test_frozen_low_orders(self):
        c0 = heat_kernel_coefficients(0)
        assert (c0.c, c0.c_prime) == (Fraction(1, 3), Fraction(1))
        c1 = heat_kernel_coefficients(1)
        assert (c1.c, c1.c_prime) == (Fraction(1, 15), Fraction(1, 6))
        c2 = heat_kernel_coefficients(2)
        assert (c2.c, c2.c_prime) == (Fraction(1, 140), Fraction(1, 60))

    def test_symbolic_prefactor(self):
        assert heat_kernel_coefficients(0).prefactor == "1/(8*pi^2)"

    def test_positive_and_decreasing(self):
        prev = None
        for k in range(11):
            ck = heat_kernel_coefficients(k)
            assert ck.c > 0 and ck.c_prime > 0
            if prev is not None:
                assert ck.c < prev.c and ck.c_prime < prev.c_prime
            prev = ck

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            heat_kernel_coefficients(-1)


class TestPropagatorDegrees:
    def test_degree_tracks_expansion_order(self):
        for n, deg in ((4, -2), (6, -4), (8, -6)):
            degrees = propagator_uv_degrees(n)
            assert degrees == {"gauge": deg, "higgs": deg, "ghost": deg}


class TestProfileValidation:
    def test_gluon_bubble_is_consistent(self):
        report = validate_profile(BUBBLE)
        assert report.ok
        assert [c.name for c in report.checks] == [
            "gauge half-edges",
            "higgs half-edges",
            "ghost half-edges",
            "euler loops",
        ]

    def test_three_point_tree_is_consistent(self):
        assert validate_profile(TREE).ok

    def test_external_line_miscount_fails_the_gauge_identity(self):
        broken = mutate_profile(BUBBLE, "E_A")
        report = validate_profile(broken)
        assert not report.ok
        failing = [c.name for c in report.checks if not c.ok]
        assert failing == ["gauge half-edges"]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            GraphProfile(L=-1)
        with pytest.raises(ValueError):
            GraphProfile(L=0, I_A=-2)

    def test_low_valence_vertices_rejected(self):
        with pytest.raises(ValueError):
            GraphProfile(L=0, V={(1, 1): 1})


class TestOmegaBound:
    def test_bubble_is_log_divergent_at_any_order(self):
        # 4L - I(n-2) + V(n-3) stays at 2 for the two-point gluon bubble
        assert omega_bound(BUBBLE, 4) == 2
        assert omega_bound(BUBBLE, 8) == 2

    def test_empty_profile(self):
        assert omega_bound(GraphProfile(L=0), 4) == 0

    def test_valence_above_order_rejected(self):
        p = GraphProfile(L=0, V={(5, 0): 1}, E_A=5)
        with pytest.raises(ValueError):
            omega_bound(p, 4)
        assert omega_bound(p, 6) == 1

    def test_two_loop_vacuum_graphs_are_marginal_at_order_eight(self):
        # The census form alone reaches omega = 0 at n = 8 on consistent
        # two-loop vacuum profiles, without going through omega_external.
        figure_eight = GraphProfile(L=2, I_chi=2, V={(0, 4): 1})
        theta = GraphProfile(L=2, I_A=3, V={(3, 0): 2})
        for p in (figure_eight, theta):
            assert validate_profile(p).ok
            assert omega_bound(p, 8) == 0
            assert omega_bound(p, 10) == -2


class TestOmegaExternal:
    def test_spec_points(self):
        assert omega_external(2, 2, 0, 0, 8) == -2
        assert omega_external(1, 5, 0, 0, 4) == -1
        assert omega_external(1, 5, 0, 0, 8) == -1
        assert omega_external(1, 4, 0, 0, 4) == 0

    def test_negative_loop_order_rejected(self):
        with pytest.raises(ValueError):
            omega_external(-1, 0, 0, 0, 4)

    def test_order_four_depends_only_on_external_lines(self):
        for loops in range(11):
            for e in range(9):
                assert omega_external(loops, e, 0, 0, 4) == 4 - e

    def test_four_external_lines_at_one_loop_are_marginal(self):
        for n in (4, 6, 8, 10):
            for split in ((4, 0, 0), (2, 1, 1), (0, 4, 0), (1, 2, 1)):
                assert omega_external(1, *split, n) == 0

    def test_more_than_four_external_lines_always_converge(self):
        for n in (4, 6, 8, 10):
            for loops in range(1, 11):
                for e in range(5, 12):
                    assert omega_external(loops, e, 0, 0, n) < 0

    def test_high_order_multiloop_sharp_form(self):
        """For n >= 8 every multi-loop graph is finite except the n = 8,
        L = 2 vacuum diagram, which is exactly marginal."""
        for n in (8, 10):
            for loops in range(2, 11):
                for e in range(0, 11):
                    w = omega_external(loops, e, 0, 0, n)
                    if (n, loops, e) == (8, 2, 0):
                        assert w == 0
                    else:
                        assert w < 0

    def test_two_loop_order_eight_equals_minus_external_count(self):
        for e in range(11):
            assert omega_external(2, e, 0, 0, 8) == -e


class TestProfileProperties:
    def make_profiles(self, count, seed):
        rng = random.Random(seed)
        return [random_consistent_profile(rng) for _ in range(count)]

    def test_constructed_profiles_satisfy_the_identities(self):
        for p in self.make_profiles(500, 424242):
            assert validate_profile(p).ok

    def test_bound_equals_external_form_minus_higgs_ghosts(self):
        """On consistent profiles the census bound collapses to the
        external-line form, with one unit of extra convergence per
        Higgs-ghost vertex."""
        for p in self.make_profiles(300, 777):
            for n in (4, 6, 8):
                assert omega_bound(p, n) == (
                    omega_external(p.L, p.E_A, p.E_chi, p.E_ghost, n)
                    - p.V_ghostChi
                )

    def test_mutations_break_the_named_identity(self):
        for k, p in enumerate(self.make_profiles(120, 31337)):
            field_name, check_name = PROFILE_MUTATIONS[k % len(PROFILE_MUTATIONS)]
            report = validate_profile(mutate_profile(p, field_name))
            assert not report.ok
            assert check_name in [c.name for c in report.checks if not c.ok]

    def test_exhaustive_small_census(self):
        """Every profile with at most 4 vertices and 6 internal lines that
        passes the identities also satisfies the sharp bound equality."""
        valences = [
            (i, j) for i in range(5) for j in range(5) if 3 <= i + j <= 4
        ]
        items = valences + ["ghostA", "ghostChi"]
        seen = 0
        for n_v in range(5):
            for combo in combinations_with_replacement(items, n_v):
                V: dict[tuple[int, int], int] = {}
                vga = vgc = 0
                for item in combo:
                    if item == "ghostA":
                        vga += 1
                    elif item == "ghostChi":
                        vgc += 1
                    else:
                        V[item] = V.get(item, 0) + 1
                gauge_stubs = sum(i * c for (i, _j), c in V.items()) + vga
                higgs_stubs = sum(j * c for (_i, j), c in V.items()) + vgc
                ghost_stubs = 2 * (vga + vgc)
                for i_a in range(gauge_stubs // 2 + 1):
                    for i_chi in range(higgs_stubs // 2 + 1):
                        for i_g in range(ghost_stubs // 2 + 1):
                            lines = i_a + i_chi + i_g
                            if lines > 6:
                                continue
                            loops = lines - n_v + 1
                            if loops < 0:
                                continue
                            p = GraphProfile(
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
                            assert validate_profile(p).ok
                            for n in (4, 6, 8):
                                assert omega_bound(p, n) == (
                                    omega_external(
                                        p.L, p.E_A, p.E_chi, p.E_ghost, n
                                    )
                                    - p.V_ghostChi
                                )
                            seen += 1
        assert seen > 1000


class TestRenormVerdict:
    def test_standard_model_renormalizable_at_order_four(self):
        v = renorm_verdict(must_validate(builtin("sm")), 4)
        assert v.verdict == "Renormalizable"
        assert v.headline == "Renormalizable"
        assert v.failing_hypotheses == ()
        assert v.order == 4
        assert NON_MULTIPLICATIVE_NOTE in v.notes
        assert ORDER_FOUR_NOTE in v.notes

    def test_standard_model_superrenormalizable_at_order_eight(self):
        v = renorm_verdict(must_validate(builtin("sm")), 8)
        assert v.verdict == "Superrenormalizable"
        assert ORDER_FOUR_NOTE not in v.notes
        assert NON_MULTIPLICATIVE_NOTE in v.notes

    def test_yang_mills_superrenormalizable(self):
        for n_colors in (2, 3, 5):
            v = renorm_verdict(must_validate(builtin("ym", n_colors)), 8)
            assert v.verdict == "Superrenormalizable"

    def test_vacuum_note_only_at_order_eight(self):
        diagrams = [builtin("sm")] + [builtin("ym", k) for k in (2, 3, 5)]
        for d in map(must_validate, diagrams):
            assert ORDER_EIGHT_VACUUM_NOTE in renorm_verdict(d, 8).notes
            assert ORDER_EIGHT_VACUUM_NOTE not in renorm_verdict(d, 4).notes
            assert ORDER_EIGHT_VACUUM_NOTE not in renorm_verdict(d, 10).notes

    def test_chain_is_inconclusive_with_named_hypothesis(self):
        v = renorm_verdict(must_validate(builtin("chain")), 4)
        assert v.verdict == "Inconclusive"
        assert v.failing_hypotheses == (RCONNECT_HYPOTHESIS,)
        assert v.headline == f"Inconclusive: {RCONNECT_HYPOTHESIS}"
        assert v.irrep_ok

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_incomplete_coverage_fails_a_third_hypothesis(self, name):
        # ROADMAP item 13's texts hold both hypotheses and miss a required term
        d = must_validate(load_case(name))
        for n in (4, 8):
            v = renorm_verdict(d, n)
            assert v.irrep_ok and v.rconnect.verdict
            assert v.failing_hypotheses == (COVERAGE_HYPOTHESIS,)
            assert v.headline == f"Inconclusive: {COVERAGE_HYPOTHESIS}"

    def test_both_hypotheses_can_fail_and_are_ordered(self):
        d = builtin("chain")
        real_algebra = FiniteAlgebra.of(
            (1, FactorKind.COMPLEX), (1, FactorKind.REAL), (3, FactorKind.COMPLEX)
        )
        twisted = must_validate(
            KrajewskiDiagram(
                real_algebra, d.kodim, d.vertices, d.edges, d.jmap, d.families
            )
        )
        v = renorm_verdict(twisted, 4)
        assert v.verdict == "Inconclusive"
        assert v.failing_hypotheses == (RCONNECT_HYPOTHESIS, IRREP_HYPOTHESIS)
        assert (
            v.headline
            == f"Inconclusive: {RCONNECT_HYPOTHESIS} and {IRREP_HYPOTHESIS}"
        )

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            renorm_verdict(must_validate(builtin("sm")), 5)

    def test_verdict_carries_the_rconnect_report(self):
        v = renorm_verdict(must_validate(builtin("chain")), 4)
        assert not v.rconnect.verdict
        assert v.rconnect.dimension == 4
