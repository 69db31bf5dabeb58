"""The walk kernel against the recursive kernel it replaced.

``oracle_kernel`` keeps ``closed_walks`` as it was before it closed a walk
on its last step and ran as one loop.  Both must yield the same
``(vertex ids, edge ids, parts)`` triples in the same order, in two forms:
label-free from each vertex, every closed walk of the quartic patterns, and
labelled with the rotations of a cycle pair from the cells where they meet,
as ``lift_pair`` searches.  Every walk is compared, not just the first.
"""

from __future__ import annotations

import pytest

import oracle_kernel
from kra import closed_walks, cycle_pairs, diagram_cycles

from conftest import FIXTURE_NAMES, grid_diagram, load_fixture, must_validate, path_diagram
from test_lift_oracle import _relabelled


def _kernel_calls(d):
    """(start, cols, rows) of the label-free quartic searches from every
    vertex, then of every kernel call a full analysis of d makes, with the
    labelled calls after a ``lift_pair`` found its witness."""
    index = d.index
    for n_h, n_v in ((4, 0), (2, 2)):
        for start in sorted(index.steps):
            yield start, (None,) * n_h, (None,) * n_v
    for p1, p2 in cycle_pairs(diagram_cycles(d, 4), 4):
        for g1, g2 in ((p1, p2), (p2, p1)):
            for b_seq in (g2, g2[::-1]):
                for r1 in range(len(g1)):
                    a_rot = g1[r1:] + g1[:r1]
                    for r2 in range(len(b_seq)):
                        b_rot = b_seq[r2:] + b_seq[:r2]
                        for start in index.cells.get((a_rot[0], b_rot[0]), ()):
                            yield start, a_rot, b_rot


def _assert_same_walks(d) -> int:
    """Compare every call; return the number of walks yielded."""
    index = d.index
    walks = 0
    for start, cols, rows in _kernel_calls(d):
        got = list(closed_walks(index, start, cols, rows))
        want = list(oracle_kernel.closed_walks(index, start, cols, rows, floor=None))
        assert got == want, (start, cols, rows)
        walks += len(got)
    return walks


def _family_diagrams():
    rows = [(f"grid{k}", grid_diagram(k)) for k in (2, 3, 4, 5)]
    rows += [(f"path{n}", path_diagram(n)) for n in (5, 10, 20)]
    rows += [
        ("grid3-relabelled", _relabelled(grid_diagram(3), 7)),
        ("path10-relabelled", _relabelled(path_diagram(10), 8)),
    ]
    rows += [(name, load_fixture(name)) for name in FIXTURE_NAMES]
    return [(name, must_validate(d)) for name, d in rows]


def test_corpus(corpus):
    rows, _elapsed = corpus
    assert sum(_assert_same_walks(d) for _name, d, _meta in rows) > 0


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in _family_diagrams()])
def test_families_and_fixtures(d):
    assert _assert_same_walks(d) > 0


def test_short_and_empty_step_counts():
    """Walks of no step and of one step, which no analysis asks for, keep
    the old kernel's answers too."""
    d = must_validate(grid_diagram(2))
    index = d.index
    for start in sorted(index.steps):
        for cols, rows in (((), ()), ((None,), ()), ((), (None,)), ((None,), (None,))):
            got = list(closed_walks(index, start, cols, rows))
            want = list(oracle_kernel.closed_walks(index, start, cols, rows, floor=None))
            assert got == want, (start, cols, rows)
