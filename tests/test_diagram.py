"""Krajewski diagram model: KO signs, Dirac parts, validation, dimensions."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

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
    SymbolicOperator,
    action_terms,
    basis_dimension,
    builtin,
    check_r_connected,
    counterterm_coverage,
    dirac_decomposition,
    edge_part,
    fundamental_multiplicities,
    hilbert_dimension,
    ko_signs,
    parse,
    project,
    required_counterterms,
    resolve_jmap,
    serialize,
    structural_key,
    validate,
)

from test_dsl_oracle import _load_bench_inputs

from conftest import FIXTURE_DIR, load_fixture, must_validate, square_diagram


class TestKOSigns:
    # (eps, eps', eps'') per KO-dimension mod 8; eps'' only in even dims
    TABLE = {
        0: (1, 1, 1),
        1: (1, -1, None),
        2: (-1, 1, -1),
        3: (-1, 1, None),
        4: (-1, 1, 1),
        5: (-1, -1, None),
        6: (1, 1, -1),
        7: (1, 1, None),
    }

    def test_full_table(self):
        for n, (eps, eps_prime, eps_dd) in self.TABLE.items():
            signs = ko_signs(n)
            assert (signs.eps, signs.eps_prime, signs.eps_double_prime) == (
                eps,
                eps_prime,
                eps_dd,
            ), f"KO-dimension {n}"
            assert signs.even == (n % 2 == 0)

    def test_mod_eight(self):
        assert ko_signs(8) == ko_signs(0)
        assert ko_signs(14) == ko_signs(6)


class TestDiracParts:
    def test_chain_edges_split_into_horizontal_and_vertical(self):
        d = must_validate(builtin("chain"))
        parts = {e.id: edge_part(d, e) for e in d.edges}
        assert parts["h1"] is DiracPart.DELTA
        assert parts["h2"] is DiracPart.DELTA
        assert parts["v1"] is DiracPart.J_DELTA_J
        assert parts["v2"] is DiracPart.J_DELTA_J

    def test_diagonal_edge_is_order_zero_part(self):
        algebra = FiniteAlgebra.of((2, FactorKind.COMPLEX))
        r = RepLabel(0)
        d = KrajewskiDiagram(
            algebra=algebra,
            kodim=0,
            vertices=(DiagramVertex("v", r, r, sign=1),),
            edges=(EdgePair("e", "v", "v", SymbolicOperator("m")),),
            jmap=(("v", "v"),),
        )
        assert edge_part(d, d.edges[0]) is DiracPart.D0

    def test_skew_edge_violates_first_order_condition(self):
        algebra = FiniteAlgebra.of((2, FactorKind.COMPLEX), (3, FactorKind.COMPLEX))
        r2, r3 = RepLabel(0), RepLabel(1)
        d = KrajewskiDiagram(
            algebra=algebra,
            kodim=0,
            vertices=(
                DiagramVertex("a", r2, r2, sign=1),
                DiagramVertex("b", r3, r3, sign=-1),
            ),
            edges=(EdgePair("e", "a", "b", SymbolicOperator("x")),),
            jmap=(("a", "a"), ("b", "b")),
        )
        with pytest.raises(ValueError):
            edge_part(d, d.edges[0])
        report = validate(d)
        assert not report.ok
        assert any(entry.check == "first-order" for entry in report.failures())

    def test_decomposition_partitions_the_edges(self):
        d = must_validate(builtin("sm"))
        decomp = dirac_decomposition(d)
        ids = sorted(e.id for part in decomp.values() for e in part)
        assert ids == sorted(e.id for e in d.edges)


def all_stages(d):
    return (
        project(d),
        action_terms(d),
        required_counterterms(d),
        counterterm_coverage(d),
        check_r_connected(d, 4),
    )


class _JmapUnread(KrajewskiDiagram):
    """A diagram whose jmap raises when read."""

    def __getattribute__(self, name):
        if name == "jmap":
            raise AssertionError("the jmap was read")
        return super().__getattribute__(name)


def _square_without_jmap() -> KrajewskiDiagram:
    d = square_diagram()
    return KrajewskiDiagram(d.algebra, d.kodim, d.vertices, d.edges)  # jmap inferred


# the builtins, every fixture that validates and a diagram whose jmap is
# inferred
STAGE_INPUTS = {
    **{name: partial(builtin, name) for name in ("sm", "chain", "ym:1", "ym:3")},
    **{
        path.name: partial(load_fixture, path.name)
        for path in sorted(FIXTURE_DIR.glob("*.kra"))
        if path.name not in ("bad_syntax.kra", "grading_fails.kra", "mixed_operators.kra")
    },
    "square without jmap": _square_without_jmap,
}


class TestDiagramIndex:
    def test_builds_on_a_diagram_that_fails_validation(self):
        algebra = FiniteAlgebra.of((2, FactorKind.COMPLEX), (3, FactorKind.COMPLEX))
        r2, r3 = RepLabel(0), RepLabel(1)
        d = KrajewskiDiagram(
            algebra=algebra,
            kodim=0,
            vertices=(
                DiagramVertex("a", r2, r2, sign=1),
                DiagramVertex("b", r3, r3, sign=-1),
            ),
            edges=(
                EdgePair("skew", "a", "b", SymbolicOperator("x")),
                EdgePair("dangling", "a", "nowhere", SymbolicOperator("y")),
            ),
        )
        index = d.index
        assert index.steps["a"] == (("skew", "b", None),)
        assert index.neighbors["b"] == (("a", "skew"),)
        assert index.cells[(r3, r3)] == ["b"]
        assert index.horizontal == {}
        assert not validate(d).ok

    def test_index_is_not_part_of_the_value(self):
        d = must_validate(square_diagram())
        fresh = must_validate(square_diagram())
        d.index  # built on d only
        assert d == fresh and hash(d) == hash(fresh)
        assert repr(d) == repr(fresh)
        moved = replace(d, families=2)
        assert moved.index is not d.index
        assert moved.index.horizontal == d.index.horizontal

    @staticmethod
    def run_stages(d):
        return (
            project(d),
            action_terms(d),
            required_counterterms(d),
            check_r_connected(d, 4),
        )

    def test_stored_results_are_not_part_of_the_value(self):
        d = must_validate(builtin("sm"))
        fresh = must_validate(builtin("sm"))
        self.run_stages(d)
        assert d == fresh and hash(d) == hash(fresh)
        assert repr(d) == repr(fresh)

    def test_a_replaced_copy_starts_empty(self):
        d = must_validate(builtin("sm"))
        stored = self.run_stages(d)
        assert self.run_stages(d) == stored
        assert all(a is b for a, b in zip(self.run_stages(d), stored))
        copy = replace(d)
        again = self.run_stages(copy)
        assert again == stored
        assert not any(a is b for a, b in zip(again, stored))

    def test_the_validated_copy_shares_the_index(self):
        """``validate`` returns a copy that differs from its input only in the
        jmap, which no table and no stage reads: the copy shares its input's
        index, so a stage computed on the input is the copy's too."""
        bare = _square_without_jmap()
        bare.index.steps
        stage = project(bare)
        resolved = must_validate(bare)
        assert resolved.jmap != bare.jmap
        assert resolved.index is bare.index
        assert project(resolved) is stage
        assert check_r_connected(resolved, 4) is check_r_connected(bare, 4)

    @pytest.mark.parametrize("build", STAGE_INPUTS.values(), ids=STAGE_INPUTS.keys())
    def test_no_stage_reads_the_jmap(self, build):
        """Each stage gives the same result on the validated copy, on a
        ``dataclasses.replace`` of it, which has a fresh index, and on a copy
        whose jmap raises when read."""
        resolved = must_validate(build())
        stored = all_stages(resolved)
        assert all_stages(replace(resolved)) == stored
        unread = _JmapUnread(resolved.algebra, resolved.kodim, resolved.vertices,
                             resolved.edges, resolved.jmap, resolved.families)
        assert all_stages(unread) == stored

    @pytest.mark.parametrize("name", ["sm", "chain"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_rconnect_reports_are_stored_per_dimension_and_bounds(self, name, reverse):
        asks = [(3, False), (4, False), (4, True)]
        if reverse:
            asks.reverse()
        d = must_validate(builtin(name))
        for m, strict in asks:
            got = check_r_connected(d, m, strict_bounds=strict)
            want = check_r_connected(must_validate(builtin(name)), m, strict_bounds=strict)
            assert got == want
            assert (got.dimension, got.strict_bounds) == (m, strict)
        for m, strict in asks:
            assert check_r_connected(d, m, strict_bounds=strict) == check_r_connected(
                must_validate(builtin(name)), m, strict_bounds=strict
            )

    def test_a_rejected_dimension_raises_every_time(self):
        d = must_validate(builtin("sm"))
        with pytest.raises(ValueError):
            check_r_connected(d, -1)
        check_r_connected(d, 4)
        for _ in range(2):
            with pytest.raises(ValueError):
                check_r_connected(d, -1)


class TestValidation:
    def test_standard_model_validates(self):
        report = validate(builtin("sm"))
        assert report.ok
        assert not report.failures()
        assert report.diagram is not None

    def test_square_validates(self):
        must_validate(square_diagram())

    def _two_vertex_parts(self):
        algebra = FiniteAlgebra.of((1, FactorKind.COMPLEX), (2, FactorKind.COMPLEX))
        r1, r2 = RepLabel(0), RepLabel(1)
        vertices = (
            DiagramVertex("a", r1, r1, sign=1),
            DiagramVertex("b", r2, r1, sign=-1),
            DiagramVertex("ja", r1, r1, sign=1),
            DiagramVertex("jb", r1, r2, sign=-1),
        )
        # "a" is j-fixed in spirit but distinct here; use explicit pairs
        edges = (
            EdgePair("e", "a", "b", SymbolicOperator("y")),
            EdgePair("je", "ja", "jb", SymbolicOperator("y")),
        )
        jmap = (("a", "ja"), ("b", "jb"))
        return algebra, vertices, edges, jmap

    def test_duplicate_vertex_id_fails_structure(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        dup = vertices + (vertices[0],)
        d = KrajewskiDiagram(algebra, 0, dup, edges, jmap)
        report = validate(d)
        assert not report.ok
        assert any(e.check == "structure" for e in report.failures())

    def test_unknown_edge_endpoint_fails_structure(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        bad = edges + (EdgePair("zz", "a", "nowhere", SymbolicOperator("q")),)
        report = validate(KrajewskiDiagram(algebra, 0, vertices, bad, jmap))
        assert not report.ok
        assert any(e.check == "structure" for e in report.failures())

    def test_an_edge_with_an_unknown_endpoint_has_no_projection(self):
        # as in every index table: Γ̃ of an unvalidated diagram leaves it out
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        bad = edges + (EdgePair("zz", "a", "nowhere", SymbolicOperator("q")),)
        g = project(KrajewskiDiagram(algebra, 0, vertices, bad, jmap))
        assert g == project(KrajewskiDiagram(algebra, 0, vertices, edges, jmap))
        assert "zz" not in g.psi

    def test_missing_sign_in_even_ko_dimension_fails_grading(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        unsigned = (
            DiagramVertex("a", vertices[0].col, vertices[0].row),
        ) + vertices[1:]
        report = validate(KrajewskiDiagram(algebra, 0, unsigned, edges, jmap))
        assert not report.ok
        assert any(e.check == "grading" for e in report.failures())

    def test_equal_sign_edge_fails_grading(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        same = tuple(
            DiagramVertex(v.id, v.col, v.row, sign=1) for v in vertices
        )
        report = validate(KrajewskiDiagram(algebra, 0, same, edges, jmap))
        assert not report.ok
        assert any(e.check == "grading" for e in report.failures())

    def test_sign_epsilon_double_prime_rule(self):
        # KO-dimension 6 has eps'' = -1: j-partners must carry opposite signs
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        report = validate(KrajewskiDiagram(algebra, 6, vertices, edges, jmap))
        assert not report.ok
        assert any(e.check == "grading" for e in report.failures())
        flipped = tuple(
            DiagramVertex(v.id, v.col, v.row, -v.sign)
            if v.id in ("ja", "jb")
            else v
            for v in vertices
        )
        report = validate(KrajewskiDiagram(algebra, 6, flipped, edges, jmap))
        grading = [e for e in report.entries if e.check == "grading"]
        assert grading and all(e.ok for e in grading)

    def test_odd_ko_dimension_signs_warn(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        report = validate(KrajewskiDiagram(algebra, 1, vertices, edges, jmap))
        assert report.ok
        assert any(
            e.check == "grading" and e.severity == "warning" and not e.ok
            for e in report.entries
        )
        assert report.warnings  # the detail strings surface on the report

    def test_ko_subtlety_warning_in_dimensions_two_to_five(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        stripped = tuple(
            DiagramVertex(v.id, v.col, v.row) for v in vertices
        )
        report = validate(KrajewskiDiagram(algebra, 3, stripped, edges, jmap))
        assert report.ok
        assert any(
            e.check == "ko-subtlety" and not e.ok for e in report.entries
        )
        report = validate(KrajewskiDiagram(algebra, 0, vertices, edges, jmap))
        assert not any(
            e.check == "ko-subtlety" and not e.ok for e in report.entries
        )

    def test_j_symmetry_requires_mirror_edges(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        report = validate(
            KrajewskiDiagram(algebra, 0, vertices, edges[:1], jmap)
        )
        assert not report.ok
        assert any(e.check == "j-symmetry" for e in report.failures())

    def test_operator_shape_checked_for_numeric_edges(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        one = GaussRational.of(1)
        good = NumericOperator(((one,), (one,)))  # 2x1: dim(b.col) x dim(a.col)
        bad = NumericOperator(((one, one),))
        for op, should_pass in ((good, True), (bad, False)):
            replaced = (
                EdgePair("e", "a", "b", op),
                EdgePair("je", "ja", "jb", SymbolicOperator("y")),
            )
            report = validate(
                KrajewskiDiagram(algebra, 0, vertices, replaced, jmap)
            )
            shape = [e for e in report.entries if e.check == "operator-shape"]
            assert shape
            assert all(e.ok for e in shape) == should_pass

    def test_zero_numeric_operator_rejected(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        zero = GaussRational.of(0)
        replaced = (
            EdgePair("e", "a", "b", NumericOperator(((zero,), (zero,)))),
            EdgePair("je", "ja", "jb", SymbolicOperator("y")),
        )
        report = validate(KrajewskiDiagram(algebra, 0, vertices, replaced, jmap))
        assert not report.ok

    def test_mixed_operators_over_one_projected_edge_fail_operator_shape(self):
        d = load_fixture("mixed_operators.kra")
        report = validate(d)
        assert not report.ok
        # reported inside the existing entry: the list of checks is unchanged
        assert [e.check for e in report.entries] == [
            e.check for e in validate(builtin("chain")).entries
        ]
        assert [(e.check, e.details) for e in report.failures()] == [(
            "operator-shape",
            ("edges e1, e2: mixed symbolic and numeric operators over one projected edge",),
        )]
        # a library caller that skips validation still gets the ValueError
        (edge,) = project(d).non_loop_edges
        with pytest.raises(ValueError, match="mixed symbolic and numeric"):
            basis_dimension(edge, d)

    def test_kodim_out_of_range_fails(self):
        algebra, vertices, edges, jmap = self._two_vertex_parts()
        report = validate(KrajewskiDiagram(algebra, 9, vertices, edges, jmap))
        assert not report.ok


class TestValidationBuildsFewTables:
    """validate builds only the index tables its checks read: the vertex
    map and the known edges (each edge's Dirac part, which the first-order
    and operator-shape checks read and every analysis reads next), plus
    ``cells`` only when a mirror is inferred, and the horizontal edge table
    only when both kinds of operator occur.  A validated copy is kept for
    every corpus member, so each table more is paid for by every member
    held."""

    BASE = {"vertices", "_edges", "_stages", "known_edges"}

    @staticmethod
    def _tables_after_validate(d: KrajewskiDiagram) -> set[str]:
        fresh = parse(serialize(d)) if d.jmap else replace(d)  # an index of its own
        assert validate(fresh).ok
        return set(fresh.index.__dict__)

    @pytest.mark.parametrize("name", ["sm", "chain", "ym:3"])
    def test_declared_mirrors(self, name):
        assert self._tables_after_validate(builtin(name)) == self.BASE

    def test_inferred_mirrors(self):
        d = square_diagram()
        bare = KrajewskiDiagram(d.algebra, d.kodim, d.vertices, d.edges)
        assert self._tables_after_validate(bare) == self.BASE | {"cells"}

    def test_numeric_designs(self):
        rows = _load_bench_inputs().corpus(random.Random(11), 60)
        numeric = [d for name, d, _expected in rows if name.endswith("n")]
        assert numeric
        for d in numeric:
            assert self._tables_after_validate(d) == self.BASE

    def test_both_kinds_of_operator(self):
        d = load_fixture("mixed_operators.kra")  # no jmap: its mirrors are inferred
        validate(d)
        assert set(d.index.__dict__) == self.BASE | {"cells", "known_edges", "horizontal"}


class TestJmapResolution:
    def test_square_inference_without_explicit_map(self):
        d = square_diagram()
        bare = KrajewskiDiagram(d.algebra, d.kodim, d.vertices, d.edges)
        resolved = resolve_jmap(bare)
        assert dict(resolved) == dict(
            (("v22", "v22"), ("v32", "v23"), ("v23", "v32"), ("v33", "v33"))
        ) or set(map(frozenset, resolved)) == {
            frozenset({"v22"}),
            frozenset({"v32", "v23"}),
            frozenset({"v33"}),
        }

    def test_standard_model_inference_is_ambiguous(self):
        d = builtin("sm")
        bare = KrajewskiDiagram(
            d.algebra, d.kodim, d.vertices, d.edges, families=d.families
        )
        with pytest.raises(ValueError):
            resolve_jmap(bare)

    def test_conflicting_pairs_rejected(self):
        d = square_diagram()
        clash = KrajewskiDiagram(
            d.algebra,
            d.kodim,
            d.vertices,
            d.edges,
            jmap=(("v22", "v22"), ("v32", "v23"), ("v32", "v22")),
        )
        with pytest.raises(ValueError):
            resolve_jmap(clash)

    def test_non_mirror_pair_fails_j_involution_check(self):
        # resolve_jmap takes explicit pairs as given; validate's
        # j-involution check is what enforces the rep swap
        d = square_diagram()
        wrong = KrajewskiDiagram(
            d.algebra,
            d.kodim,
            d.vertices,
            d.edges,
            jmap=(("v22", "v33"), ("v32", "v23")),
        )
        report = validate(wrong)
        assert not report.ok
        assert any(e.check == "j-involution" for e in report.failures())


class TestDimensions:
    def test_standard_model_hilbert_dimension(self):
        d = must_validate(builtin("sm"))
        # per family: (2+1+1)*1 for the lepton column block... computed by
        # summing dim(col)*dim(row) over all 12 vertices: 32; three families
        per_family = sum(
            v.col.dimension(d.algebra) * v.row.dimension(d.algebra)
            for v in d.vertices
        )
        assert per_family == 32
        assert hilbert_dimension(d) == 96

    def test_standard_model_fundamental_multiplicities(self):
        d = must_validate(builtin("sm"))
        assert fundamental_multiplicities(d) == (36, 12, 12)

    def test_yang_mills_dimension(self):
        d = must_validate(builtin("ym", 3))
        assert hilbert_dimension(d) == 9
        assert fundamental_multiplicities(d) == (3,)


class TestStructuralKey:
    def test_equal_for_equal_structure(self):
        assert structural_key(builtin("sm")) == structural_key(builtin("sm"))

    def test_differs_across_diagrams(self):
        assert structural_key(builtin("sm")) != structural_key(builtin("chain"))
        assert structural_key(builtin("ym", 2)) != structural_key(
            builtin("ym", 3)
        )

    def test_insensitive_to_listing_order(self):
        d = builtin("chain")
        shuffled = KrajewskiDiagram(
            d.algebra,
            d.kodim,
            tuple(reversed(d.vertices)),
            tuple(reversed(d.edges)),
            d.jmap,
            d.families,
        )
        assert structural_key(d) == structural_key(shuffled)

    def test_unresolvable_jmap_is_insensitive_to_listing_order(self):
        # v22 is paired twice, so the key falls back to the declared pairs
        d = square_diagram()
        declared = (("v22", "v23"), ("v33", "v33"), ("v32", "v22"))
        keys, texts = set(), set()
        for jmap in (declared, tuple(reversed(declared))):
            permuted = KrajewskiDiagram(d.algebra, d.kodim, d.vertices, d.edges, jmap)
            with pytest.raises(ValueError):
                resolve_jmap(permuted)
            keys.add(structural_key(permuted))
            texts.add(serialize(permuted))
        assert len(texts) == 1
        assert len(keys) == 1
