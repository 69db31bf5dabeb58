"""Value semantics of the named-tuple types: labels, trace slots and the
records that analyses return.

``RepLabel`` and ``TraceSlot`` are named tuples, so their hashing,
equality and ordering run in C.  So are the result records (reports,
terms, coverage entries, pair lifts, exemptions, spans, ...), which cost
less to build than frozen dataclasses and carry no ``__dict__``.  Their
repr, field order, defaults and immutability are those of the frozen
dataclasses they replaced; the new facts are that a value equals the plain
tuple of its fields, iterates over them, and is copied with ``_replace``.
The data model that callers build and ``dataclasses.replace`` stays
dataclasses.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from kra import FactorKind, FiniteAlgebra, RepLabel
from kra.algebra import GaugeAlgebraDecomposition, UnimodularityRelation
from kra.diagram import CheckResult, DiagramVertex, EdgePair, ValidationReport, ko_signs
from kra.dsl import SourceSpan
from kra.graphs import LiftWitness
from kra.invariants import (
    CoverageEntry, CoverageReport, FieldComponent, FieldInventory, InvariantTerm, TermKind,
    TraceSlot,
)
from kra.powercount import (
    GraphProfile, HeatKernelCoefficients, ProfileCheck, ProfileReport, Verdict,
)
from kra.rconnect import CycleLift, Exemption, PairLift, RConnectReport

from conftest import path_diagram

ALGEBRA = FiniteAlgebra.of(
    (1, FactorKind.COMPLEX), (2, FactorKind.QUATERNION), (3, FactorKind.COMPLEX),
    (2, FactorKind.REAL),
)
LABELS = [RepLabel(0), RepLabel(0, True), RepLabel(1), RepLabel(2), RepLabel(2, True), RepLabel(3)]
SLOTS = [
    TraceSlot((a, b), forward) for a in LABELS for b in LABELS if a < b for forward in (True, False)
]


def test_reprs_are_pinned():
    assert repr(RepLabel(2, True)) == "RepLabel(factor_index=2, conjugate=True)"
    assert repr(RepLabel(0)) == "RepLabel(factor_index=0, conjugate=False)"
    assert repr(TraceSlot((RepLabel(0), RepLabel(1)), False)) == (
        "TraceSlot(edge=(RepLabel(factor_index=0, conjugate=False), "
        "RepLabel(factor_index=1, conjugate=False)), forward=False)"
    )


def test_sort_order_is_field_order():
    rng = random.Random(5)
    labels, slots = LABELS[:], SLOTS[:]
    rng.shuffle(labels)
    rng.shuffle(slots)
    assert sorted(labels) == sorted(labels, key=lambda r: (r.factor_index, r.conjugate))
    assert sorted(slots) == sorted(slots, key=lambda s: (s.edge, s.forward))


def test_equal_values_hash_equally():
    for label in LABELS:
        twin = RepLabel(label.factor_index, label.conjugate)
        assert twin == label and hash(twin) == hash(label)
        assert label == (label.factor_index, label.conjugate)
    for slot in SLOTS:
        twin = TraceSlot(tuple(slot.edge), slot.forward)
        assert twin == slot and hash(twin) == hash(slot)
        assert slot == (slot.edge, slot.forward)
    assert len(set(LABELS)) == len(LABELS) and len(set(SLOTS)) == len(SLOTS)


@pytest.mark.parametrize(
    "value, field",
    [(RepLabel(1), "factor_index"), (RepLabel(1), "conjugate"),
     (SLOTS[0], "edge"), (SLOTS[0], "forward")],
)
def test_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_conjugated_and_display():
    shown = [label.display(ALGEBRA) for label in LABELS]
    assert shown == ["1", "1~", "4", "3", "3~", "2"]
    conjugates = [label.conjugated(ALGEBRA) for label in LABELS]
    assert conjugates == [RepLabel(0, True), RepLabel(0), RepLabel(1), RepLabel(2, True),
                          RepLabel(2), RepLabel(3)]
    assert all(type(c) is RepLabel for c in conjugates)
    slot = TraceSlot((RepLabel(0), RepLabel(2)), False)
    assert (slot.source, slot.target) == (RepLabel(2), RepLabel(0))


# ---------------------------------------------------------------------------
# The result records

A, B = RepLabel(0), RepLabel(1, True)
A_TEXT = "RepLabel(factor_index=0, conjugate=False)"
B_TEXT = "RepLabel(factor_index=1, conjugate=True)"
TERM = InvariantTerm(TermKind.YANG_MILLS_F2, (), "g^-2", "F^2 of su(2)", "su(2)")
TERM_TEXT = (
    "InvariantTerm(kind=<TermKind.YANG_MILLS_F2: 'YangMillsF2'>, blocks=(), coefficient='g^-2', "
    "origin='F^2 of su(2)', gauge_factor='su(2)', coefficient_factors=())"
)
CHECK = CheckResult("grading", False, "error", ("e joins two + vertices",))
CHECK_TEXT = (
    "CheckResult(check='grading', ok=False, severity='error', "
    "details=('e joins two + vertices',))"
)
COMPONENT = FieldComponent((A, B), 0, A, B)
COMPONENT_TEXT = (
    f"FieldComponent(edge=({A_TEXT}, {B_TEXT}), basis_index=0, source_rep={A_TEXT}, "
    f"target_rep={B_TEXT})"
)
NOT_EXEMPT_TEXT = "Exemption(exempt=False, clause=None, vertex=None)"
CYCLE_LIFT = CycleLift((A, B), LiftWitness(("x", "y"), ("e", "f")))
CYCLE_LIFT_TEXT = (
    f"CycleLift(cycle=({A_TEXT}, {B_TEXT}), "
    "witness=LiftWitness(vertices=('x', 'y'), edges=('e', 'f')))"
)
PAIR_LIFT = PairLift(((A, B), (A, B)), Exemption(False), None)
PAIR_LIFT_TEXT = (
    f"PairLift(pair=(({A_TEXT}, {B_TEXT}), ({A_TEXT}, {B_TEXT})), "
    f"exemption={NOT_EXEMPT_TEXT}, witness=None)"
)
EMPTY_REPORT = RConnectReport(4, False, (), (), ())
EMPTY_REPORT_TEXT = (
    "RConnectReport(dimension=4, strict_bounds=False, cond1=(), cond2=(), cond3=())"
)

#: one instance of each record and the repr its frozen dataclass printed
RECORDS = [
    (GaugeAlgebraDecomposition((("su", 3), ("su", 2)), 1),
     "GaugeAlgebraDecomposition(simple_factors=(('su', 3), ('su', 2)), abelian_rank=1)"),
    (UnimodularityRelation(((0, 1), (2, 3)), 1, False),
     "UnimodularityRelation(constraint=((0, 1), (2, 3)), effective_abelian_rank=1, "
     "degenerate=False)"),
    (ko_signs(6), "KOSigns(n=6, eps=1, eps_prime=1, eps_double_prime=-1)"),
    (CHECK, CHECK_TEXT),
    (ValidationReport((CHECK,), None),
     f"ValidationReport(entries=({CHECK_TEXT},), diagram=None)"),
    (SourceSpan(3, 7), "SourceSpan(line=3, column=7, length=1)"),
    (COMPONENT, COMPONENT_TEXT),
    (FieldInventory((COMPONENT,), 1),
     f"FieldInventory(components=({COMPONENT_TEXT},), total_components=1)"),
    (TERM, TERM_TEXT),
    (InvariantTerm(TermKind.QUARTIC, (((TraceSlot((A, B), True)),),), "c", "4-cycle"),
     "InvariantTerm(kind=<TermKind.QUARTIC: 'Quartic'>, "
     f"blocks=((TraceSlot(edge=({A_TEXT}, {B_TEXT}), forward=True),),), coefficient='c', "
     "origin='4-cycle', gauge_factor=None, coefficient_factors=())"),
    (CoverageEntry(TERM, None), f"CoverageEntry(required={TERM_TEXT}, matched=None)"),
    (CoverageReport((CoverageEntry(TERM, TERM),)),
     f"CoverageReport(entries=(CoverageEntry(required={TERM_TEXT}, matched={TERM_TEXT}),))"),
    (ProfileCheck("euler loops", 1, 1), "ProfileCheck(name='euler loops', lhs=1, rhs=1)"),
    (ProfileReport((ProfileCheck("euler loops", 1, 2),)),
     "ProfileReport(checks=(ProfileCheck(name='euler loops', lhs=1, rhs=2),))"),
    (HeatKernelCoefficients(1, Fraction(1, 15), Fraction(1, 6)),
     "HeatKernelCoefficients(k=1, c=Fraction(1, 15), c_prime=Fraction(1, 6), "
     "prefactor='1/(8*pi^2)')"),
    (Verdict("Inconclusive", 4, ("R-connectedness fails",), ("note",), True, "ok",
             EMPTY_REPORT),
     "Verdict(verdict='Inconclusive', order=4, failing_hypotheses=('R-connectedness fails',), "
     f"notes=('note',), irrep_ok=True, irrep_detail='ok', rconnect={EMPTY_REPORT_TEXT})"),
    (Exemption(True, "shared-trivial-vertex", A),
     f"Exemption(exempt=True, clause='shared-trivial-vertex', vertex={A_TEXT})"),
    (Exemption(False), NOT_EXEMPT_TEXT),
    (CYCLE_LIFT, CYCLE_LIFT_TEXT),
    (PAIR_LIFT, PAIR_LIFT_TEXT),
    (EMPTY_REPORT, EMPTY_REPORT_TEXT),
    (RConnectReport(4, True, (CYCLE_LIFT,), (PAIR_LIFT,), (((A, B),) * 3,)),
     f"RConnectReport(dimension=4, strict_bounds=True, cond1=({CYCLE_LIFT_TEXT},), "
     f"cond2=({PAIR_LIFT_TEXT},), cond3=((({A_TEXT}, {B_TEXT}), ({A_TEXT}, {B_TEXT}), "
     f"({A_TEXT}, {B_TEXT})),))"),
]
RECORD_IDS = [f"{type(value).__name__}-{i}" for i, (value, _text) in enumerate(RECORDS)]


def test_every_result_record_is_pinned():
    assert {type(value).__name__ for value, _text in RECORDS} == {
        "GaugeAlgebraDecomposition", "UnimodularityRelation", "KOSigns", "CheckResult",
        "ValidationReport", "SourceSpan", "FieldComponent", "FieldInventory", "InvariantTerm",
        "CoverageEntry", "CoverageReport", "ProfileCheck", "ProfileReport",
        "HeatKernelCoefficients", "Verdict", "Exemption", "CycleLift", "PairLift",
        "RConnectReport",
    }
    for value, _text in RECORDS:
        assert isinstance(value, tuple) and not hasattr(value, "__dict__")


@pytest.mark.parametrize("value, text", RECORDS, ids=RECORD_IDS)
def test_record_reprs_are_those_of_the_dataclasses(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", RECORDS, ids=RECORD_IDS)
def test_equal_records_hash_equally(value, text):
    twin = type(value)(*value)
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
    assert value == tuple(value) and value._replace() == value
    assert twin._fields == type(value)._fields


@pytest.mark.parametrize("value, text", RECORDS, ids=RECORD_IDS)
def test_record_fields_cannot_be_assigned(value, text):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_record_properties_and_defaults():
    assert InvariantTerm(TermKind.QUARTIC, (), "c", "o")[4:] == (None, ())
    assert Exemption(False) == (False, None, None)
    assert SourceSpan(2, 5).length == 1
    assert HeatKernelCoefficients(0, Fraction(1), Fraction(1)).prefactor == "1/(8*pi^2)"
    assert CYCLE_LIFT.ok and PAIR_LIFT.status == "missing" and not PAIR_LIFT.ok
    assert PairLift(PAIR_LIFT.pair, Exemption(True, "q", A), None).status == "exempt"
    assert not RConnectReport(4, False, (), (PAIR_LIFT,), ()).verdict and EMPTY_REPORT.verdict
    assert CoverageReport((CoverageEntry(TERM, None),)).missing == (TERM,)
    assert ProfileCheck("x", 1, 1).ok and not ProfileReport((ProfileCheck("x", 1, 2),)).ok
    assert ko_signs(6).even and not ko_signs(5).even
    assert ValidationReport((CHECK,), None).failures() == (CHECK,)
    assert GaugeAlgebraDecomposition((("su", 3),), 2).display() == "su(3) + u(1)^2"


def test_the_data_model_stays_replaceable():
    """Callers copy the data model with ``dataclasses.replace``; it stays
    dataclasses, and so does ``GraphProfile``, which validates its fields."""
    d = path_diagram(5)
    v, e = d.vertices[0], d.edges[0]
    moved_vertex = dataclasses.replace(v, id="moved")
    moved_edge = dataclasses.replace(e, id="moved", source=moved_vertex.id)
    copy = dataclasses.replace(d, vertices=(moved_vertex,) + d.vertices[1:])
    assert isinstance(moved_vertex, DiagramVertex) and moved_vertex.col == v.col
    assert isinstance(moved_edge, EdgePair) and moved_edge.target == e.target
    assert copy.vertices[0] is moved_vertex and copy.edges == d.edges
    profile = GraphProfile(L=1, I_A=1, V={(3, 0): 1})
    assert dataclasses.replace(profile, E_A=2).E_A == 2
    with pytest.raises(ValueError):
        dataclasses.replace(profile, L=-1)
