"""The pair-lift walk search against the recursive kernel it replaced.

``oracle_kernel`` keeps ``closed_walks`` as it was before it closed a walk
on its last step and ran as one loop.  ``graphs._first_walk`` must return
that kernel's first walk, as a ``LiftWitness`` of its vertex and edge ids,
or None when it yields none, for every labelled search a full analysis
makes: the rotations of each cycle pair, in both orientations, from each
cell where they meet, as ``lift_pair`` searches.  Calls after the one that
found a pair's witness are compared too.
"""

from __future__ import annotations

import pytest

import oracle_kernel
from kra import LiftWitness, diagram_cycles
from kra.graphs import _first_walk
from oracle_pairs import cycle_pairs

from conftest import FIXTURE_NAMES, grid_diagram, load_fixture, must_validate, path_diagram
from test_lift_oracle import _relabelled


def _kernel_calls(d):
    """(start, cols, rows) of every labelled search a full analysis of d
    could make, with the calls after a ``lift_pair`` found its witness."""
    index = d.index
    for p1, p2 in cycle_pairs(diagram_cycles(d, 4), 4):
        for g1, g2 in ((p1, p2), (p2, p1)):
            for b_seq in (g2, g2[::-1]):
                for r1 in range(len(g1)):
                    a_rot = g1[r1:] + g1[:r1]
                    for r2 in range(len(b_seq)):
                        b_rot = b_seq[r2:] + b_seq[:r2]
                        for start in index.cells.get((a_rot[0], b_rot[0]), ()):
                            yield start, a_rot, b_rot


def _assert_same_first_walks(d) -> tuple[int, int]:
    """Compare every call; return the numbers of calls and of walks found."""
    index = d.index
    calls = walks = 0
    for start, cols, rows in _kernel_calls(d):
        got = _first_walk(index, start, cols, rows)
        first = next(oracle_kernel.closed_walks(index, start, cols, rows, floor=None), None)
        want = None if first is None else LiftWitness(*first[:2])
        assert got == want, (start, cols, rows)
        calls += 1
        walks += got is not None
    return calls, walks


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
    counts = [_assert_same_first_walks(d) for _name, d, _meta in rows]
    assert sum(calls for calls, _walks in counts) > 0
    assert sum(walks for _calls, walks in counts) > 0


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in _family_diagrams()])
def test_families_and_fixtures(d):
    # on sm no labelled search finds a walk, so count the calls compared
    calls, _walks = _assert_same_first_walks(d)
    assert calls > 0
