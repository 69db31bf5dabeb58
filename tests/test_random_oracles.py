"""The term and pair stages against their oracles on random valid diagrams
and on the census.

``random_diagrams`` draws diagrams of a few labels whose cells may hold both
horizontal and vertical edges, unlike the corpus designs, so that pairs of
2-cycles meet at the trivial label and lift through mixed walks; ``census``
lists every such diagram of three labels and up to five edge pairs, once
per class under relabelling.  On each, the action terms must have the
``repr`` of ``oracle_walks``, and the required terms, coverage and
``check_r_connected(·, 4)`` that of ``oracle_pairs``, each oracle run on a
copy with a fresh index; on the census, so must ``check_r_connected`` at
m = 6 and 8, where condition 3 is not vacuous.  On each, a
``Renormalizable`` or ``Superrenormalizable`` verdict must come with
complete coverage.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import oracle_pairs
import oracle_walks
from kra import (
    CoverageReport, action_terms, check_r_connected, counterterm_coverage, renorm_verdict,
    required_counterterms,
)
from kra.invariants import _required

from census import census
from random_diagrams import random_valid_diagrams

COLLAPSED = ", collapsed at the shared trivial vertex"


def _assert_stages_give_the_oracle_results(d) -> CoverageReport:
    """Compare each stage on d with its oracle, and check that the verdict
    is Inconclusive unless coverage is complete; return d's coverage."""
    copy = replace(d)  # a fresh index: nothing computed on d is shared
    generated = oracle_walks.action_terms(copy)
    assert repr(action_terms(d)) == repr(generated)
    assert repr(required_counterterms(d)) == repr(oracle_pairs.required_counterterms(copy))
    coverage = counterterm_coverage(d)
    assert repr(coverage) == repr(oracle_pairs.counterterm_coverage(copy, generated))
    assert repr(check_r_connected(d, 4)) == repr(oracle_pairs.check_r_connected(copy, 4))
    verdict = renorm_verdict(d, 4).verdict
    assert verdict == "Inconclusive" or coverage.complete, verdict
    return coverage


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stages_give_the_oracle_results(seed):
    """500 diagrams per seed.  The sample must also hold collapsed pair terms
    matched by a four-step horizontal walk and by a mixed walk, the two
    ways a generated term covers one."""
    by_walk = by_mixed = 0
    for d in random_valid_diagrams(seed, 500):
        coverage = _assert_stages_give_the_oracle_results(d)
        for required, matched in coverage.entries:
            if matched is not None and required.origin.endswith(COLLAPSED):
                by_walk += matched.origin.startswith("walk ")
                by_mixed += matched.origin.startswith("mixed walk ")
    assert by_walk and by_mixed, (by_walk, by_mixed)


def test_stages_give_the_oracle_results_on_the_census():
    """Also ``check_r_connected`` at m = 6 and 8, where condition 3 lists
    tuples of three and four cycles: most of those reports list some."""
    offending = 0
    for _key, d in census(3, 5):
        _assert_stages_give_the_oracle_results(d)
        copy = replace(d)
        for m in (6, 8):
            report = check_r_connected(d, m)
            assert repr(report) == repr(oracle_pairs.check_r_connected(copy, m)), m
            offending += bool(report.cond3)
    assert offending > 500, offending


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
