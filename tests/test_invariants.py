"""Scalar fields, action trace terms, required counterterms, coverage."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_exactlin
import oracle_kernel
from kra import (
    DiagramVertex,
    DiracPart,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    GaussRational,
    KrajewskiDiagram,
    NumericOperator,
    RepLabel,
    TermKind,
    action_terms,
    basis_dimension,
    builtin,
    canonical_block,
    counterterm_coverage,
    enumerate_cycles,
    enumerate_fields,
    gauge_lie_algebra,
    project,
    required_counterterms,
)
from kra import invariants
from kra.exactlin import span_rank
from kra.graphs import proj_edge
from kra.invariants import TraceSlot, _cycle_block, structure_display
from oracle_pairs import collapse_blocks, cycle_pairs
from oracle_walks import term_key

from test_dsl_oracle import _load_bench_inputs

from conftest import (
    FIXTURE_NAMES, grid_diagram, load_fixture, must_validate, path_diagram, ring_diagram,
    square_diagram,
)


def kinds(terms):
    return sorted(t.kind.value for t in terms)


def displays(terms, algebra):
    return sorted(structure_display(t, algebra) for t in terms)


class TestEnumerateFields:
    def test_standard_model_inventory(self):
        d = must_validate(builtin("sm"))
        inv = enumerate_fields(d)
        assert inv.total_components == 8
        assert len(inv.components) == 4
        alg = d.algebra
        rows = sorted(
            (
                c.edge[0].display(alg),
                c.edge[1].display(alg),
                c.basis_index,
            )
            for c in inv.components
        )
        # each Yukawa edge carries a two-dimensional operator basis
        assert rows == [
            ("1", "2", 1),
            ("1", "2", 2),
            ("1~", "2", 1),
            ("1~", "2", 2),
        ]

    def test_chain_inventory(self):
        d = must_validate(builtin("chain"))
        inv = enumerate_fields(d)
        assert len(inv.components) == 3
        # dims 1x2, 1x2, 1x3
        assert inv.total_components == 7

    def test_yang_mills_has_no_scalars(self):
        d = must_validate(builtin("ym", 3))
        inv = enumerate_fields(d)
        assert inv.components == ()
        assert inv.total_components == 0

    def test_component_reps_are_the_edge_endpoints(self):
        d = must_validate(builtin("chain"))
        for c in enumerate_fields(d).components:
            assert (c.source_rep, c.target_rep) == c.edge


class TestBasisDimension:
    def _diagram_with_ops(self, *ops):
        algebra = FiniteAlgebra.of((1, FactorKind.COMPLEX), (2, FactorKind.COMPLEX))
        r1, r2 = RepLabel(0), RepLabel(1)
        from kra import DiagramVertex, EdgePair, KrajewskiDiagram

        vertices = (
            DiagramVertex("a", r1, r1, sign=1),
            DiagramVertex("b", r2, r1, sign=-1),
            DiagramVertex("ja", r1, r1, sign=1),
            DiagramVertex("jb", r1, r2, sign=-1),
        )
        edges = tuple(
            EdgePair(f"e{i}", "a", "b", op) for i, op in enumerate(ops)
        ) + tuple(
            EdgePair(f"je{i}", "ja", "jb", op) for i, op in enumerate(ops)
        )
        jmap = (("a", "ja"), ("b", "jb"))
        return must_validate(
            KrajewskiDiagram(algebra, 0, vertices, edges, jmap)
        ), proj_edge(r1, r2)

    def test_numeric_independent_operators(self):
        one, zero = GaussRational.of(1), GaussRational.of(0)
        d, e = self._diagram_with_ops(
            NumericOperator(((one,), (zero,))),
            NumericOperator(((zero,), (one,))),
        )
        assert basis_dimension(e, d) == 2

    def test_numeric_dependent_operators(self):
        one, zero, i = GaussRational.of(1), GaussRational.of(0), GaussRational.of(0, 1)
        d, e = self._diagram_with_ops(
            NumericOperator(((one,), (zero,))),
            NumericOperator(((i,), (zero,))),
        )
        assert basis_dimension(e, d) == 1

    def test_symbolic_labels_count_distinct(self):
        from kra import SymbolicOperator

        d, e = self._diagram_with_ops(
            SymbolicOperator("x"), SymbolicOperator("y"), SymbolicOperator("x")
        )
        assert basis_dimension(e, d) == 2

    def test_loop_edge_rejected(self):
        d = must_validate(builtin("sm"))
        loops = [e for e in project(d).edges if e[0] == e[1]]
        assert loops  # the Majorana mass projects onto a loop
        with pytest.raises(ValueError):
            basis_dimension(loops[0], d)

    def test_absent_edge_has_dimension_zero(self):
        d = must_validate(builtin("chain"))
        fake = proj_edge(RepLabel(1), RepLabel(2))
        assert basis_dimension(fake, d) == 0


def _count_span_rank(monkeypatch) -> list[int]:
    """Count the calls of ``exactlin.span_rank``, rebound at every kra
    module that holds it, as the stage counts of test_analysis_pass are."""
    calls = [0]
    original = span_rank

    def counted(matrices):
        calls[0] += 1
        return original(matrices)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kra" and getattr(module, "span_rank", None) is original:
            monkeypatch.setattr(module, "span_rank", counted)
    return calls


#: entries with small parts, zero about a third of the time
_ENTRIES = st.one_of(
    st.just(GaussRational.of(0)),
    st.builds(GaussRational.of, st.fractions(-3, 3, max_denominator=4),
              st.fractions(-3, 3, max_denominator=4)),
)


class TestOneMatrixOverAnEdge:
    """A single matrix over a projected edge spans a line unless it is zero,
    in either orientation, so basis_dimension answers without span_rank."""

    @staticmethod
    def _unvalidated(matrix, forward: bool):
        """Two vertices in one row and an edge between them that carries
        matrix, from the low column label to the high one when forward."""
        rows, cols = len(matrix), len(matrix[0])
        target, source = (1, 0) if forward else (0, 1)
        sizes = {target: rows, source: cols}
        algebra = FiniteAlgebra.of(*[(sizes[i], FactorKind.COMPLEX) for i in (0, 1)])
        vertices = (
            DiagramVertex("a", RepLabel(source), RepLabel(0), 1),
            DiagramVertex("b", RepLabel(target), RepLabel(0), -1),
        )
        edges = (EdgePair("e", "a", "b", NumericOperator(matrix)),)
        return KrajewskiDiagram(algebra, 0, vertices, edges)

    @given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_oracle_span_rank(self, rows, cols, forward, data):
        matrix = tuple(
            tuple(data.draw(_ENTRIES) for _ in range(cols)) for _ in range(rows)
        )
        d = self._unvalidated(matrix, forward)
        oriented = matrix if forward else invariants._dagger(matrix)
        assert basis_dimension(proj_edge(RepLabel(0), RepLabel(1)), d) == (
            oracle_exactlin.span_rank([oriented])
        )

    @pytest.mark.parametrize("forward", [True, False])
    def test_a_zero_matrix_gives_zero(self, forward):
        zero = GaussRational.of(0)
        d = self._unvalidated(((zero, zero), (zero, zero), (zero, zero)), forward)
        assert basis_dimension(proj_edge(RepLabel(0), RepLabel(1)), d) == 0

    def test_span_rank_runs_only_for_two_or_more_matrices(self, monkeypatch):
        calls = _count_span_rank(monkeypatch)
        one, i = GaussRational.of(1), GaussRational.of(0, 1)
        d, e = TestBasisDimension()._diagram_with_ops(NumericOperator(((one,), (i,))))
        assert basis_dimension(e, d) == 1 and calls == [0]
        d, e = TestBasisDimension()._diagram_with_ops(
            NumericOperator(((one,), (i,))), NumericOperator(((i,), (-one,)))
        )
        assert basis_dimension(e, d) == 1 and calls == [1]

    def test_span_rank_calls_on_numeric_designs(self, monkeypatch):
        """One call per projected edge that carries two or more matrices,
        over the numeric designs of the benchmark's corpus."""
        rows = _load_bench_inputs().corpus(random.Random(11), 120)
        numeric = [d for name, d, _expected in rows if name.endswith("n")]
        calls = _count_span_rank(monkeypatch)
        shared = single = 0
        for d in numeric:
            calls[0] = 0
            enumerate_fields(d)
            sizes = [len(over) for over in d.index.horizontal.values()]
            assert calls[0] == sum(size > 1 for size in sizes)
            shared += calls[0]
            single += sizes.count(1)
        assert len(numeric) >= 20 and shared and single > shared


class TestCanonicalForms:
    def _block(self, d):
        e = project(d).non_loop_edges[0]
        return (
            TraceSlot(e, True),
            TraceSlot(e, False),
            TraceSlot(e, True),
            TraceSlot(e, False),
        )

    def test_rotation_invariance(self):
        d = must_validate(builtin("chain"))
        b = self._block(d)
        for r in range(4):
            assert canonical_block(b[r:] + b[:r]) == canonical_block(b)

    def test_dagger_reversal_invariance(self):
        d = must_validate(builtin("chain"))
        e = project(d).non_loop_edges[0]
        fwd = (TraceSlot(e, True), TraceSlot(e, False))
        rev = (TraceSlot(e, True), TraceSlot(e, False))
        assert canonical_block(fwd) == canonical_block(rev)

    # the term key and the collapse at a trivial vertex are the oracles' own
    def test_canonical_key_ignores_block_order(self):
        d = must_validate(builtin("chain"))
        req = [
            t
            for t in required_counterterms(d)
            if t.kind is TermKind.QUARTIC and len(t.blocks) == 2
        ]
        assert req
        t = req[0]
        swapped = t._replace(blocks=(t.blocks[1], t.blocks[0]))
        assert term_key(t) == term_key(swapped)

    def test_collapse_at_shared_trivial_vertex(self):
        d = must_validate(builtin("sm"))
        g = project(d)
        e = g.non_loop_edges[0]  # {1, 2}
        b = (TraceSlot(e, True), TraceSlot(e, False))
        merged = collapse_blocks(b, b, d.algebra)
        assert merged is not None
        assert len(merged) == 4

    def test_collapse_requires_a_trivial_meeting_point(self):
        d = must_validate(square_diagram())
        e = project(d).non_loop_edges[0]  # {2, 3}: no trivial label
        b = (TraceSlot(e, True), TraceSlot(e, False))
        assert collapse_blocks(b, b, d.algebra) is None


def _label_walks():
    """Closed walks of 2 to 6 steps over six labels, no step staying put."""
    labels = st.sampled_from([RepLabel(i, c) for i in range(3) for c in (False, True)])
    return st.lists(labels, min_size=2, max_size=6).filter(
        lambda w: all(a != b for a, b in zip(w, w[1:] + w[:1]))
    )


def _chained_block(walk):
    """The raw slots of a closed label walk, one per step, in walk order."""
    return tuple(TraceSlot(proj_edge(a, b), a < b) for a, b in zip(walk, walk[1:] + walk[:1]))


class TestCanonicalBlockProperty:
    """canonical_block on random chained blocks.  The orbit is built at the
    label level: the walk read backwards gives a rotation of the dagger."""

    @given(_label_walks())
    @settings(deadline=None, max_examples=300)
    def test_least_element_of_the_rotation_dagger_orbit(self, walk):
        block, back = _chained_block(walk), _chained_block(walk[::-1])
        orbit = {b[r:] + b[:r] for b in (block, back) for r in range(len(block))}
        assert tuple(TraceSlot(s.edge, not s.forward) for s in reversed(block)) in orbit
        canon = canonical_block(block)
        assert canon in orbit
        assert canon == min(orbit)
        assert all(canonical_block(member) == canon for member in orbit)


class TestCodedBlockProperty:
    """_cycle_block canonicalises a walk's step codes and turns only the
    winner back into slots; the result is the canonical block of the walk's
    slots, under any code table that holds its steps."""

    LABELS = [RepLabel(i, c) for i in range(3) for c in (False, True)]
    #: every step among the six labels: a walk's edges get ranks with gaps
    CODES = invariants._step_codes(product(LABELS, repeat=2))

    @given(_label_walks())
    @settings(deadline=None, max_examples=300)
    def test_equals_the_canonical_block_of_the_slots(self, walk):
        canon = canonical_block(_chained_block(walk))
        own = invariants._step_codes(zip(walk, walk[1:] + walk[:1]))
        for codes in (self.CODES, own):
            assert _cycle_block(walk, codes) == canon
            for r in range(len(walk)):
                rotated = walk[r:] + walk[:r]
                assert _cycle_block(rotated, codes) == canon
                assert _cycle_block(rotated[::-1], codes) == canon


class TestActionTerms:
    def test_standard_model_terms(self):
        d = must_validate(builtin("sm"))
        terms = action_terms(d)
        assert len(terms) == 9
        assert kinds(terms) == [
            "Quartic",
            "Quartic",
            "Quartic",
            "ScalarKinetic",
            "ScalarKinetic",
            "ScalarMass",
            "ScalarMass",
            "YangMillsF2",
            "YangMillsF2",
        ]
        alg = d.algebra
        assert "tr F[sp(1)[0]]_mu_nu F[sp(1)[0]]^mu^nu" in displays(terms, alg)
        assert "tr[phi{1,2}* phi{1,2} phi{1~,2}* phi{1~,2}]" in displays(
            terms, alg
        )

    def test_yang_mills_terms_are_gauge_only(self):
        d = must_validate(builtin("ym", 3))
        terms = action_terms(d)
        assert kinds(terms) == ["YangMillsF2"]
        assert terms[0].gauge_factor == "su(3)[0]"

    def test_square_generates_single_and_double_trace_quartics(self):
        d = must_validate(square_diagram())
        quartics = [
            structure_display(t, d.algebra)
            for t in action_terms(d)
            if t.kind is TermKind.QUARTIC
        ]
        assert sorted(quartics) == [
            "tr[phi{2,3}* phi{2,3} phi{2,3}* phi{2,3}]",
            "tr[phi{2,3}* phi{2,3}] tr[phi{2,3}* phi{2,3}]",
        ]

    def test_quartic_coefficients_name_the_edge_operators(self):
        d = must_validate(builtin("sm"))
        for t in action_terms(d):
            if t.kind is TermKind.QUARTIC:
                assert t.coefficient.startswith("prop. to ")
                assert t.coefficient_factors
                for _eid, p in t.coefficient_factors:
                    assert p.startswith("p")

    def test_terms_deduplicate_by_canonical_key(self):
        d = must_validate(builtin("sm"))
        terms = action_terms(d)
        keys = [term_key(t) for t in terms]
        assert len(keys) == len(set(keys))

    def test_each_label_walk_is_made_into_blocks_once(self, monkeypatch):
        """On grid k=3 the quartic walks from their least vertex are 20
        four-step and 63 mixed walks.  The join leaves out the 18 mixed
        walks whose reversal came first, and the 65 it keeps trace far
        fewer distinct (column codes, row codes) pairs of step-code walks.
        ``_least_walk`` canonicalises each code walk of each distinct pair
        once: 41 calls, where one per walk made 146."""
        d = must_validate(grid_diagram(3))
        index = d.index
        code = invariants._diagram_step_codes(d).code

        def coded(labels):  # the step codes of a closed label walk
            return tuple(code[step] for step in zip(labels, labels[1:] + labels[:1]))

        want, walks, pairs = [], [0, 0], set()
        for start in sorted(index.steps):
            # the join's walks from start: vertices at least start, none
            # whose reversal starts with a smaller step, by forward half
            # (e1, a, e2, b), and for each half the four-step walks first
            found = []
            for kind, (n_h, n_v) in enumerate(((4, 0), (2, 2))):
                for vertices, edges, parts in oracle_kernel.closed_walks(
                    index, start, (None,) * n_h, (None,) * n_v
                ):
                    if min(vertices) == start and (edges[3], vertices[3]) >= (edges[0], vertices[1]):
                        half = (edges[0], vertices[1], edges[1], vertices[2])
                        found.append((half, kind, vertices, parts))
            found.sort(key=lambda f: f[0])
            for _half, kind, vertices, parts in found:
                walks[kind] += 1
                cells = [(index.vertices[vid], part) for vid, part in zip(vertices, parts)]
                h = coded(tuple(c.col for c, part in cells if part is DiracPart.DELTA))
                v = coded(tuple(c.row for c, part in cells if part is not DiracPart.DELTA))
                if (h, v) not in pairs:
                    pairs.add((h, v))
                    want.extend(w for w in (h, v) if w)
        assert walks == [20, 45]

        calls = []
        original = invariants._least_walk

        def counted(walk):
            calls.append(walk)
            return original(walk)

        monkeypatch.setattr(invariants, "_least_walk", counted)
        action_terms(d)
        assert calls == want
        assert len(calls) == 41


class TestBuiltBlocksAreCanonical:
    """Every block the two term builders make is canonical already, so a
    term's kind and sorted blocks are its trace structure."""

    def assert_canonical(self, name, d):
        for term in action_terms(d) + required_counterterms(d):
            for block in term.blocks:
                assert block == canonical_block(block), (name, term.origin)

    def test_corpus(self, corpus):
        rows, _ = corpus
        for name, d, _meta in rows:
            self.assert_canonical(name, d)

    @pytest.mark.parametrize("name", ["sm.kra", "chain.kra", "chain_repaired.kra"])
    def test_fixtures(self, name):
        self.assert_canonical(name, must_validate(load_fixture(name)))

    @pytest.mark.parametrize(
        "name, build",
        [
            ("grid2", lambda: grid_diagram(2)),
            ("grid3", lambda: grid_diagram(3)),
            ("path5", lambda: path_diagram(5)),
            ("path10", lambda: path_diagram(10)),
        ],
    )
    def test_families(self, name, build):
        self.assert_canonical(name, must_validate(build()))


class TestRequiredCounterterms:
    def test_standard_model_required(self):
        d = must_validate(builtin("sm"))
        req = required_counterterms(d)
        assert len(req) == 8
        quartics = [t for t in req if t.kind is TermKind.QUARTIC]
        assert len(quartics) == 2
        # both exempt pairs collapse to single traces at the trivial vertex
        for t in quartics:
            assert len(t.blocks) == 1
            assert "collapsed at the shared trivial vertex" in t.origin

    def test_chain_required_includes_unmet_double(self):
        d = must_validate(builtin("chain"))
        req = required_counterterms(d)
        assert len(req) == 13
        doubles = [
            t
            for t in req
            if t.kind is TermKind.QUARTIC and len(t.blocks) == 2
        ]
        assert len(doubles) == 1
        assert (
            structure_display(doubles[0], d.algebra)
            == "tr[phi{1,2}* phi{1,2}] tr[phi{1~,3}* phi{1~,3}]"
        )
        assert doubles[0].origin == "cycle pair (1 2)(2 1) + (1~ 3)(3 1~)"

    def test_quaternion_conjugate_pairs_are_omitted(self):
        d = must_validate(builtin("sm"))
        req = required_counterterms(d)
        # the (1 2) + (1~ 2) pair is exempt by the quaternionic clause and
        # contributes no required term at all: 2 quartics, not 3
        assert sum(1 for t in req if t.kind is TermKind.QUARTIC) == 2

    def test_square_requires_a_double_trace(self):
        d = must_validate(square_diagram())
        req = required_counterterms(d)
        quartics = [t for t in req if t.kind is TermKind.QUARTIC]
        assert len(quartics) == 1
        assert len(quartics[0].blocks) == 2
        assert quartics[0].origin == "cycle pair (2 3)(3 2) + (2 3)(3 2)"

    def test_quadratics_per_projected_edge(self):
        for name, expected in (("sm", 2), ("chain", 3)):
            d = must_validate(builtin(name))
            req = required_counterterms(d)
            masses = [t for t in req if t.kind is TermKind.SCALAR_MASS]
            kinetics = [t for t in req if t.kind is TermKind.SCALAR_KINETIC]
            assert len(masses) == len(kinetics) == expected


class TestCoverage:
    def test_standard_model_complete(self):
        d = must_validate(builtin("sm"))
        report = counterterm_coverage(d)
        assert report.complete
        assert report.missing == ()
        assert all(e.matched is not None for e in report.entries)

    def test_yang_mills_complete(self):
        for n in (2, 3, 5):
            report = counterterm_coverage(must_validate(builtin("ym", n)))
            assert report.complete

    def test_square_complete_via_mixed_walk(self):
        report = counterterm_coverage(must_validate(square_diagram()))
        assert report.complete

    def test_chain_missing_exactly_the_disjoint_pair_term(self):
        d = must_validate(builtin("chain"))
        report = counterterm_coverage(d)
        assert not report.complete
        assert len(report.missing) == 1
        term = report.missing[0]
        assert term.kind is TermKind.QUARTIC
        assert (
            structure_display(term, d.algebra)
            == "tr[phi{1,2}* phi{1,2}] tr[phi{1~,3}* phi{1~,3}]"
        )
        assert term.origin == "cycle pair (1 2)(2 1) + (1~ 3)(3 1~)"

    def test_entries_cover_every_required_term(self):
        d = must_validate(builtin("chain"))
        report = counterterm_coverage(d)
        assert len(report.entries) == len(required_counterterms(d))


def _assert_prefixes_agree(d) -> None:
    """The action's terms and the required counterterms both start with one
    F² term per simple gauge factor, then a mass and a kinetic term per
    non-loop Γ̃ edge; coverage matches each required term of that prefix to
    the generated term at its position."""
    n = len(gauge_lie_algebra(d.algebra).simple_factors) + 2 * len(project(d).non_loop_edges)
    generated, required = action_terms(d)[:n], required_counterterms(d)[:n]
    assert len(generated) == len(required) == n
    assert [(t.kind, t.blocks, t.gauge_factor) for t in generated] == [
        (t.kind, t.blocks, t.gauge_factor) for t in required
    ]
    entries = counterterm_coverage(d).entries[:n]
    assert [e.required for e in entries] == list(required)
    assert all(e.matched is t for e, t in zip(entries, generated))


class TestGaugeAndEdgePrefix:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: builtin("sm"), id="sm"),
        pytest.param(lambda: builtin("chain"), id="chain"),
        *(pytest.param(lambda n=n: builtin("ym", n), id=f"ym:{n}") for n in (1, 2, 3, 5)),
        *(pytest.param(lambda name=name: load_fixture(name), id=name) for name in FIXTURE_NAMES),
        *(pytest.param(lambda n=n: path_diagram(n), id=f"path{n}") for n in (2, 5, 10)),
        *(pytest.param(lambda n=n: ring_diagram(n), id=f"ring{n}") for n in (3, 11)),
        *(pytest.param(lambda k=k: grid_diagram(k), id=f"grid{k}") for k in (2, 3)),
        pytest.param(square_diagram, id="square"),
    ])
    def test_generated_and_required_prefixes_agree(self, build):
        _assert_prefixes_agree(must_validate(build()))

    def test_corpus(self, corpus):
        rows, _elapsed = corpus
        for _name, d, _meta in rows:
            _assert_prefixes_agree(d)


class TestCorpusProperties:
    def test_coverage_iff_both_lift_conditions(self, corpus_reports):
        """Counterterm coverage and R-connectedness agree in dimension 4."""
        rows, _ = corpus_reports
        for name, _d, _meta, rc, cov in rows:
            cond1 = all(e.ok for e in rc.cond1)
            cond2 = all(e.ok for e in rc.cond2)
            assert cov.complete == (cond1 and cond2), name

    def test_missing_terms_are_always_nonexempt_pair_doubles(self, corpus_reports):
        rows, _ = corpus_reports
        for name, _d, _meta, _rc, cov in rows:
            for term in cov.missing:
                assert term.kind is TermKind.QUARTIC, name
                assert len(term.blocks) == 2, name
                assert term.origin.startswith("cycle pair "), name

    def test_required_quartic_origins_come_from_the_projection(
        self, corpus_reports
    ):
        """Every required quartic names a 4-cycle or a pair of 2-cycles that
        the projected graph actually contains."""
        rows, _ = corpus_reports
        for name, d, _meta, _rc, cov in rows:
            g = project(d)
            cycles = enumerate_cycles(g, 4)
            two = [c for c in cycles if len(c) == 2]
            four = [c for c in cycles if len(c) == 4]
            n_pairs = len(cycle_pairs(two, 4))
            n_single_required = sum(
                1
                for e in cov.entries
                if e.required.kind is TermKind.QUARTIC
                and e.required.origin.startswith("4-cycle ")
            )
            n_pair_required = sum(
                1
                for e in cov.entries
                if e.required.kind is TermKind.QUARTIC
                and e.required.origin.startswith("cycle pair ")
            )
            assert n_single_required == len(four), name
            # pair-derived terms never exceed the pair count (exempt pairs
            # may merge or drop), and exist whenever pairs do
            assert n_pair_required <= n_pairs, name
            if n_pairs and not n_pair_required:
                # only possible if every pair was quaternion-exempt
                assert all(
                    e.exemption.clause is not None for e in _rc.cond2
                ), name

    def test_scalar_quadratics_match_field_content(self, corpus_reports):
        rows, _ = corpus_reports
        for name, d, _meta, _rc, cov in rows:
            g = project(d)
            n_edges = len(g.non_loop_edges)
            masses = sum(
                1
                for e in cov.entries
                if e.required.kind is TermKind.SCALAR_MASS
            )
            assert masses == n_edges, name
            comps = enumerate_fields(d).components
            assert {c.edge for c in comps} == set(g.non_loop_edges), name
