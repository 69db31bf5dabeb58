"""The term and pair stages against their oracles on random valid diagrams.

``random_diagrams`` draws diagrams of a few labels whose cells may hold both
horizontal and vertical edges, unlike the corpus designs, so that pairs of
2-cycles meet at the trivial label and lift through mixed walks.  On each,
the action terms must have the ``repr`` of ``oracle_walks``, and the
required terms, coverage and ``check_r_connected(·, 4)`` that of
``oracle_pairs``, each oracle run on a copy with a fresh index.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import oracle_pairs
import oracle_walks
from kra import action_terms, check_r_connected, counterterm_coverage, required_counterterms
from kra.invariants import _required

from random_diagrams import random_valid_diagrams

COLLAPSED = ", collapsed at the shared trivial vertex"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stages_give_the_oracle_results(seed):
    """500 diagrams per seed.  The sample must also hold collapsed pair terms
    matched by a four-step horizontal walk and by a mixed walk, the two
    ways a generated term covers one."""
    by_walk = by_mixed = 0
    for d in random_valid_diagrams(seed, 500):
        copy = replace(d)  # a fresh index: nothing computed on d is shared
        assert repr(action_terms(d)) == repr(oracle_walks.action_terms(copy))
        assert repr(required_counterterms(d)) == repr(oracle_pairs.required_counterterms(copy))
        coverage = counterterm_coverage(d)
        assert repr(coverage) == repr(oracle_pairs.counterterm_coverage(copy))
        assert repr(check_r_connected(d, 4)) == repr(oracle_pairs.check_r_connected(copy, 4))
        for required, matched in coverage.entries:
            if matched is not None and required.origin.endswith(COLLAPSED):
                by_walk += matched.origin.startswith("walk ")
                by_mixed += matched.origin.startswith("mixed walk ")
    assert by_walk and by_mixed, (by_walk, by_mixed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_pair_that_is_not_exempt_lifts_exactly_when_its_double_trace_is_generated(seed):
    """500 diagrams per seed.  At m = 4 condition 2 lists the pairs of
    2-cycles in pair-number order, and the required terms hold each pair's
    term at the position the pair table gives; for a pair that is not
    exempt that term is its double trace of two blocks."""
    pairs = 0
    for d in random_valid_diagrams(seed, 500):
        entries = counterterm_coverage(d).entries
        positions = _required(d)[2]
        cond2 = check_r_connected(d, 4).cond2
        assert len(cond2) == len(positions)
        for entry, at in zip(cond2, positions):
            if not entry.exemption.exempt:
                pairs += 1
                required, matched = entries[at]
                assert len(required.blocks) == 2
                assert (entry.status == "lifted") == (matched is not None), entry.pair
    assert pairs > 4000, pairs
