"""The census of small diagrams: its class and valid counts, which are facts
about the enumerator, not about the analysis."""

from __future__ import annotations

from kra import structural_key

from census import census, census_keys
from conftest import load_case, must_validate


def test_three_labels_and_up_to_five_edge_pairs():
    keys = census_keys(3, 5)
    assert len(keys) == 552
    assert len(census(3, 5)) == 418


def test_the_smallest_item_13_case_is_a_class():
    """four.kra, the smallest case of ROADMAP item 13, is the census class
    of sizes (1, 1, 2) and the edge pairs (0, 1) in row 0 and (0, 2) in
    row 2, vertex for vertex and edge for edge."""
    d = dict(census(3, 5))[(1, 1, 2), ((0, 1, 0), (0, 2, 2))]
    assert structural_key(d) == structural_key(must_validate(load_case("four.kra")))
