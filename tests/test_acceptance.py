"""Acceptance gate: one test per shipped guarantee, exact values, timed.

Each test asserts the guarantee literally.  A failing line here means the
package does not deliver the stated behaviour — nothing in this file is
weakened to pass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

from kra import (
    ORDER_EIGHT_VACUUM_NOTE,
    TermKind,
    builtin,
    check_r_connected,
    counterterm_coverage,
    enumerate_cycles,
    gauge_lie_algebra,
    heat_kernel_coefficients,
    hilbert_dimension,
    omega_external,
    parse,
    renorm_verdict,
    serialize,
    structural_key,
    validate_profile,
)
from kra import graphs, invariants
from kra.invariants import cycle_display, structure_display

from conftest import (
    FIXTURE_NAMES,
    PROFILE_MUTATIONS,
    fixture_text,
    must_validate,
    mutate_profile,
    random_consistent_profile,
    verify_rconnect_report,
)
from test_graphs import brute_force_cycles, graph


def test_criterion_1_standard_model_pipeline():
    t0 = perf_counter()
    d = must_validate(builtin("sm"))
    assert hilbert_dimension(d) == 96

    decomp = gauge_lie_algebra(d.algebra)
    assert decomp.simple_factors == (("sp", 1), ("su", 3))
    assert decomp.abelian_rank == 1
    assert decomp.display() == "sp(1) + su(3) + u(1)"

    rc = check_r_connected(d, 4)
    assert rc.verdict is True
    assert rc.cond1 and all(e.witness is not None for e in rc.cond1)
    assert all(e.ok for e in rc.cond2)
    verify_rconnect_report(d, rc)

    assert renorm_verdict(d, 4).verdict == "Renormalizable"
    assert perf_counter() - t0 < 1.0


def test_criterion_2_counterexample_pipeline():
    t0 = perf_counter()
    d = must_validate(builtin("chain"))

    rc = check_r_connected(d, 4)
    assert rc.verdict is False
    missing = [e for e in rc.cond2 if e.status == "missing"]
    assert len(missing) == 1
    pair = {cycle_display(c, d.algebra) for c in missing[0].pair}
    assert pair == {"(1 2)(2 1)", "(1~ 3)(3 1~)"}
    # each display function is defined beside the type it prints
    assert invariants.cycle_display is graphs.cycle_display
    assert invariants.edge_display is graphs.edge_display

    cov = counterterm_coverage(d)
    assert cov.complete is False
    holes = [e for e in cov.entries if e.matched is None]
    assert len(holes) == 1
    term = holes[0].required
    assert term.kind is TermKind.QUARTIC
    assert len(term.blocks) == 2  # double trace
    assert (
        structure_display(term, d.algebra)
        == "tr[phi{1,2}* phi{1,2}] tr[phi{1~,3}* phi{1~,3}]"
    )
    assert perf_counter() - t0 < 1.0


def test_criterion_3_yang_mills_pipeline():
    t0 = perf_counter()
    for n in (2, 3, 5):
        d = must_validate(builtin("ym", n))
        rc = check_r_connected(d, 4)
        assert rc.verdict is True
        assert rc.cond1 == () and rc.cond2 == ()  # trivially R-connected
        assert renorm_verdict(d, 8).verdict == "Superrenormalizable"
    assert perf_counter() - t0 < 1.0


def test_criterion_4a_four_external_lines_never_diverge_at_one_loop():
    t0 = perf_counter()
    for n in (4, 6, 8, 10):
        for e_gauge in range(5):
            assert omega_external(1, e_gauge, 4 - e_gauge, 0, n) <= 0
    assert perf_counter() - t0 < 1.0


def test_criterion_4b_more_than_four_external_lines_converge():
    t0 = perf_counter()
    for n in (4, 6, 8, 10):
        for loops in range(1, 11):
            for total in range(5, 13):
                for e_gauge in range(total + 1):
                    assert omega_external(loops, e_gauge, total - e_gauge, 0, n) < 0
    assert perf_counter() - t0 < 1.0


def test_criterion_4c_multiloop_graphs_converge_at_order_eight():
    # At n >= 8 every multi-loop graph with an external line converges; the
    # one marginal point is the two-loop vacuum graph at n = 8 (omega = 0),
    # which renormalizes no term of the action and is named in the verdict.
    t0 = perf_counter()
    omegas = {}
    for n in (8, 10):
        for loops in range(2, 11):
            for total in range(0, 11):
                for e_gauge in range(total + 1):
                    for e_higgs in range(total - e_gauge + 1):
                        e_ghost = total - e_gauge - e_higgs
                        w = omega_external(loops, e_gauge, e_higgs, e_ghost, n)
                        omegas.setdefault((n, loops, total), []).append(w)
    marginal = sorted(key for key, ws in omegas.items() if max(ws) >= 0)
    assert marginal == [(8, 2, 0)], (
        f"omega >= 0 at (n, L, E) = {marginal}; expected only the order-8 "
        "two-loop vacuum graph"
    )
    assert omegas[(8, 2, 0)] == [0]
    with_external = [key for key in omegas if key[2] >= 1]
    assert all(max(omegas[key]) < 0 for key in with_external)
    d = must_validate(builtin("ym", 3))
    assert ORDER_EIGHT_VACUUM_NOTE in renorm_verdict(d, 8).notes
    assert ORDER_EIGHT_VACUUM_NOTE not in renorm_verdict(d, 10).notes
    assert perf_counter() - t0 < 1.0


def test_criterion_5_heat_kernel_prefactors():
    c0 = heat_kernel_coefficients(0)
    assert c0.c == Fraction(1, 3)
    assert c0.c_prime == Fraction(1)


def test_criterion_6_property_suites(corpus_reports):
    rows, elapsed = corpus_reports
    t0 = perf_counter()

    # (a) cycle enumeration against the brute-force oracle
    rng = random.Random(808)
    for trial in range(200):
        n = rng.randint(3, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i, n)
            if rng.random() < 0.45
        ]
        g = graph(n, *edges) if edges else graph(n, (0, 1))
        assert set(enumerate_cycles(g, n)) == brute_force_cycles(g, n), trial

    # (b) every lift witness re-projects under the independent verifier
    assert sum(1 for name, *_ in rows if name.startswith("design")) == 50
    for name, d, _meta, rc, _cov in rows:
        verify_rconnect_report(d, rc)

    # (c) coverage-complete <=> lifting conditions (1) and (2)
    for name, _d, _meta, rc, cov in rows:
        conds = all(e.ok for e in rc.cond1) and all(e.ok for e in rc.cond2)
        assert cov.complete == conds, name

    # (d) parse/serialize round trip on all fixtures
    for name in FIXTURE_NAMES:
        d = parse(fixture_text(name))
        text = serialize(d)
        again = parse(text)
        assert structural_key(again) == structural_key(d), name
        assert serialize(again) == text, name

    # (e) identities hold on consistent profiles, fail on mutated ones
    prof_rng = random.Random(6060)
    profiles = [random_consistent_profile(prof_rng) for _ in range(500)]
    for p in profiles:
        assert validate_profile(p).ok
    for k, p in enumerate(profiles):
        field_name, check_name = PROFILE_MUTATIONS[k % len(PROFILE_MUTATIONS)]
        report = validate_profile(mutate_profile(p, field_name))
        assert not report.ok
        assert any(c.name == check_name and not c.ok for c in report.checks)

    total = elapsed["build"] + elapsed["reports"] + (perf_counter() - t0)
    assert total < 30.0
