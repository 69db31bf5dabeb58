"""Value semantics of the two label types the pair stages hash and sort.

``RepLabel`` and ``TraceSlot`` are named tuples, so their hashing,
equality and ordering run in C.  Their repr, field order, sort order and
immutability are those of the frozen dataclasses they replaced; the one new
fact is that a value equals the plain tuple of its fields.
"""

from __future__ import annotations

import random

import pytest

from kra import FactorKind, FiniteAlgebra, RepLabel
from kra.invariants import TraceSlot

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
