"""R-connectedness: exemptions, the three conditions, verdicts, invariances."""

from __future__ import annotations

import tracemalloc
from time import perf_counter

import pytest

from kra import (
    QUATERNION_CONJUGATE_PAIR,
    SHARED_TRIVIAL_VERTEX,
    DiagramVertex,
    KrajewskiDiagram,
    builtin,
    check_r_connected,
    canonical_cycle,
    collapse_blocks,
    cycle_pairs,
    diagram_cycles,
    enumerate_cycles,
    exemption_check,
    ko_signs,
    project,
)
from kra import rconnect
from kra.invariants import _collapse_at, _cycle_block, _diagram_step_codes
from kra.rconnect import pair_exemptions

from conftest import (
    FIXTURE_NAMES,
    grid_diagram,
    load_fixture,
    must_validate,
    path_diagram,
    ring_diagram,
    square_diagram,
    verify_rconnect_report,
)


def cycles_by_display(d):
    alg = d.algebra
    return {
        tuple(x.display(alg) for x in c): c
        for c in enumerate_cycles(project(d), 4)
    }


class TestExemptions:
    def test_standard_model_pairs(self):
        d = must_validate(builtin("sm"))
        by = cycles_by_display(d)
        g12, g12c = by[("1", "2")], by[("1~", "2")]

        e = exemption_check(g12, g12, d)
        assert e.exempt and e.clause == SHARED_TRIVIAL_VERTEX
        assert e.vertex.display(d.algebra) == "1"

        e = exemption_check(g12, g12c, d)
        assert e.exempt and e.clause == QUATERNION_CONJUGATE_PAIR
        assert e.vertex.display(d.algebra) == "2"

        e = exemption_check(g12c, g12c, d)
        assert e.exempt and e.clause == SHARED_TRIVIAL_VERTEX
        assert e.vertex.display(d.algebra) == "1~"

    def test_chain_disjoint_pair_not_exempt(self):
        d = must_validate(builtin("chain"))
        by = cycles_by_display(d)
        e = exemption_check(by[("1", "2")], by[("1~", "3")], d)
        assert not e.exempt
        assert e.clause is None and e.vertex is None

    def test_square_self_pair_not_exempt(self):
        # both shared labels are matrix factors of size > 1
        d = must_validate(square_diagram())
        g = project(d)
        cycle = canonical_cycle(g.non_loop_edges[0])
        assert not exemption_check(cycle, cycle, d).exempt

    def test_trivial_vertex_clause_takes_priority(self):
        # in the chain, (1~ 2) + (1~ 3) shares the trivial conjugate label;
        # clause (a) fires even though 2 is quaternionic elsewhere
        d = must_validate(builtin("chain"))
        by = cycles_by_display(d)
        e = exemption_check(by[("1~", "2")], by[("1~", "3")], d)
        assert e.exempt and e.clause == SHARED_TRIVIAL_VERTEX
        assert e.vertex.display(d.algebra) == "1~"

    def test_exemption_is_symmetric(self):
        d = must_validate(builtin("chain"))
        by = cycles_by_display(d)
        for a in by.values():
            for b in by.values():
                assert (
                    exemption_check(a, b, d).exempt
                    == exemption_check(b, a, d).exempt
                )


def _assert_table_agrees(d) -> None:
    """The pair table keys every cycle pair in order, holds its exemption,
    and names the shared trivial vertex exactly where the blocks collapse."""
    table = pair_exemptions(d, 4)
    assert tuple(table) == cycle_pairs(diagram_cycles(d, 4), 4)
    codes = _diagram_step_codes(d)
    for (c1, c2), ex in table.items():
        assert ex == exemption_check(c1, c2, d)
        b1, b2 = _cycle_block(c1, codes), _cycle_block(c2, codes)
        collapsed = collapse_blocks(b1, b2, d.algebra)
        assert (collapsed is not None) == (ex.clause == SHARED_TRIVIAL_VERTEX)
        if collapsed is not None:
            assert collapsed == _collapse_at(b1, b2, ex.vertex)


class TestPairTable:
    @pytest.mark.parametrize(
        "make",
        [lambda: builtin("sm"), lambda: builtin("chain"), lambda: builtin("ym", 3)]
        + [lambda name=name: load_fixture(name) for name in FIXTURE_NAMES]
        + [square_diagram, lambda: grid_diagram(2), lambda: grid_diagram(3),
           lambda: path_diagram(10), lambda: ring_diagram(11), lambda: ring_diagram(31)],
        ids=["sm", "chain", "ym3"] + list(FIXTURE_NAMES)
        + ["square", "grid2", "grid3", "path10", "ring11", "ring31"],
    )
    def test_table_agrees_with_the_block_collapse(self, make):
        _assert_table_agrees(must_validate(make()))

    def test_table_agrees_on_the_design_corpus(self, corpus):
        rows, _elapsed = corpus
        for _name, d, _meta in rows:
            _assert_table_agrees(d)

    def test_table_is_stored_and_read_only(self):
        d = must_validate(builtin("chain"))
        table = pair_exemptions(d, 4)
        assert pair_exemptions(d, 4) is table
        with pytest.raises(TypeError):
            table[next(iter(table))] = None


class TestVerdicts:
    def test_standard_model_is_r_connected(self):
        d = must_validate(builtin("sm"))
        report = check_r_connected(d, 4)
        assert report.verdict
        assert report.dimension == 4 and not report.strict_bounds
        assert all(entry.ok for entry in report.cond1)
        assert all(entry.ok for entry in report.cond2)
        assert report.cond3 == ()
        # every pair is excused rather than lifted: the condition holds
        # vacuously on its non-exempt subset
        assert all(entry.status == "exempt" for entry in report.cond2)
        verify_rconnect_report(d, report)

    def test_yang_mills_is_r_connected(self):
        for n in (2, 3, 5):
            d = must_validate(builtin("ym", n))
            report = check_r_connected(d, 4)
            assert report.verdict
            assert report.cond1 == () and report.cond2 == ()

    def test_chain_fails_on_one_pair(self):
        d = must_validate(builtin("chain"))
        report = check_r_connected(d, 4)
        assert not report.verdict
        statuses = {}
        alg = d.algebra
        for entry in report.cond2:
            key = tuple(
                tuple(x.display(alg) for x in c) for c in entry.pair
            )
            statuses[key] = entry.status
        assert len(statuses) == 6
        missing = [k for k, s in statuses.items() if s == "missing"]
        assert missing == [(("1", "2"), ("1~", "3"))]
        assert sum(1 for s in statuses.values() if s == "exempt") == 5
        # condition (1) still holds: all three 2-cycles lift
        assert all(entry.ok for entry in report.cond1)
        verify_rconnect_report(d, report)

    def test_square_is_r_connected_by_a_genuine_lift(self):
        d = must_validate(square_diagram())
        report = check_r_connected(d, 4)
        assert report.verdict
        assert [entry.status for entry in report.cond2] == ["lifted"]
        verify_rconnect_report(d, report)

    def test_repaired_chain_is_r_connected(self, corpus):
        rows, _ = corpus
        d = dict((name, diag) for name, diag, _ in rows)["chain_repaired"]
        report = check_r_connected(d, 4)
        assert report.verdict
        verify_rconnect_report(d, report)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            check_r_connected(builtin("chain"), -1)

    @pytest.mark.parametrize("n", [5, 10, 20, 40])
    def test_path_lifts_only_pairs_with_the_full_column(self, monkeypatch, n):
        """In path n only column 0 holds a row other than 0, so a pair
        reaches ``lift_pair`` only through the one cycle on column 0: it is
        called once each way for that cycle and each of the n - 1 others,
        not for all of the pairs that are not exempt."""
        calls = []
        original = rconnect.lift_pair

        def counted(g1, g2, d):
            calls.append((g1, g2))
            return original(g1, g2, d)

        monkeypatch.setattr(rconnect, "lift_pair", counted)
        report = check_r_connected(path_diagram(n), 4)
        assert not report.verdict and len(calls) == 2 * (n - 1)


class TestBounds:
    def test_strict_bounds_shrink_the_pair_budget(self):
        d = must_validate(builtin("chain"))
        report = check_r_connected(d, 4, strict_bounds=True)
        # bound 3: 2-cycles still enumerate, but no pair fits in total 3
        assert report.strict_bounds
        assert report.cond2 == ()
        assert len(report.cond1) == 3
        assert report.verdict

    def test_tiny_dimensions(self):
        d = must_validate(builtin("chain"))
        assert check_r_connected(d, 1).cond1 == ()
        assert check_r_connected(d, 1).verdict
        report = check_r_connected(d, 2)
        assert len(report.cond1) == 3
        assert report.cond2 == ()
        assert report.verdict

    def test_chain_dimension_six_has_offending_triples(self):
        d = must_validate(builtin("chain"))
        report = check_r_connected(d, 6)
        assert not report.verdict
        alg = d.algebra

        def disp(c):
            return "(" + " ".join(x.display(alg) for x in c) + ")"

        triples = sorted(tuple(disp(c) for c in tup) for tup in report.cond3)
        assert triples == [
            ("(1 2)", "(1 2)", "(1~ 3)"),
            ("(1 2)", "(1~ 2)", "(1~ 3)"),
            ("(1 2)", "(1~ 3)", "(1~ 3)"),
        ]
        # each offending triple contains the one genuinely bad pair
        assert all(
            any(disp(c) == "(1 2)" for c in tup)
            and any(disp(c) == "(1~ 3)" for c in tup)
            for tup in report.cond3
        )

    def test_condition_three_in_dimension_400_is_fast(self):
        """Up to 200 cycles to a tuple: each tuple is decided by its few
        distinct cycles, not by its r(r-1)/2 pairs of members."""
        d = must_validate(builtin("sm"))
        t0 = perf_counter()
        report = check_r_connected(d, 400)
        assert report.cond3 == ()
        assert perf_counter() - t0 < 5.0

    def test_condition_three_in_dimension_1000_is_fast(self):
        """About 125,000 tuples of up to 500 cycles: each is decided as its
        last member is added, in O(distinct cycles), not by counting its
        members."""
        d = must_validate(builtin("sm"))
        t0 = perf_counter()
        report = check_r_connected(d, 1000)
        assert report.cond3 == ()
        assert perf_counter() - t0 < 2.0

    def test_condition_three_without_cycles_allocates_nothing_per_dimension(self):
        """ym:3 has no Γ̃-cycle, so condition 3 finds no tuple: it keeps a
        list only for each tuple size it finds, not one per size the bound
        allows."""
        d = must_validate(builtin("ym", 3))
        tracemalloc.start()
        try:
            report = check_r_connected(d, 2_000_000)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.cond3 == ()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "make", [lambda: builtin("sm"), lambda: builtin("ym", 3)], ids=["sm", "ym3"]
    )
    def test_condition_three_on_a_table_with_every_pair_exempt_is_fast(self, make):
        """When every pair is exempt, no tuple can hold a pair that is not,
        so condition 3 walks none of the multisets of cycles the bound
        admits."""
        d = must_validate(make())
        t0 = perf_counter()
        report = check_r_connected(d, 20_000)
        assert all(entry.exemption.exempt for entry in report.cond2)
        assert report.cond3 == ()
        assert perf_counter() - t0 < 1.0

    def test_condition_three_empty_in_low_dimensions(self, corpus_reports):
        rows, _ = corpus_reports
        for name, _d, _meta, report, _cov in rows:
            assert report.cond3 == (), name


class TestInvariances:
    def test_vertex_relabeling_preserves_the_verdict(self):
        d = must_validate(builtin("chain"))
        rename = {v.id: f"z_{v.id}" for v in d.vertices}
        relabeled = KrajewskiDiagram(
            d.algebra,
            d.kodim,
            tuple(
                DiagramVertex(rename[v.id], v.col, v.row, v.sign)
                for v in d.vertices
            ),
            tuple(
                type(e)(e.id, rename[e.source], rename[e.target], e.operator)
                for e in d.edges
            ),
            tuple((rename[a], rename[b]) for a, b in d.jmap),
            d.families,
        )
        relabeled = must_validate(relabeled)
        before = check_r_connected(d, 4)
        after = check_r_connected(relabeled, 4)
        assert before.verdict == after.verdict
        assert [e.status for e in before.cond2] == [
            e.status for e in after.cond2
        ]

    @staticmethod
    def mirrored(d: KrajewskiDiagram) -> KrajewskiDiagram:
        eps_dd = ko_signs(d.kodim).eps_double_prime or 1
        return KrajewskiDiagram(
            d.algebra,
            d.kodim,
            tuple(
                DiagramVertex(
                    v.id,
                    v.row,
                    v.col,
                    None if v.sign is None else eps_dd * v.sign,
                )
                for v in d.vertices
            ),
            d.edges,
            d.jmap,
            d.families,
        )

    def test_mirror_reflection_preserves_the_verdict(self, corpus):
        rows, _ = corpus
        for name, d, _meta in rows[:20]:
            m = must_validate(self.mirrored(d))
            assert (
                check_r_connected(m, 4).verdict
                == check_r_connected(d, 4).verdict
            ), name


class TestDesignOracle:
    def test_expected_verdicts_on_random_designs(self, corpus_reports):
        rows, _ = corpus_reports
        seen = 0
        for name, _d, meta, report, _cov in rows:
            if meta is None:
                continue
            assert report.verdict == meta["expected_rconnected"], name
            seen += 1
        assert seen == 50

    def test_all_witnesses_verify_across_corpus(self, corpus_reports):
        rows, _ = corpus_reports
        for name, d, _meta, report, _cov in rows:
            verify_rconnect_report(d, report)
