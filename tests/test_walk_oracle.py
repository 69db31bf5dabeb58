"""The closed-walk kernel against the walk enumeration it replaced.

``oracle_walks`` enumerates every closed walk from each of its vertices;
``action_terms`` enumerates walks only from their least vertex.  The terms
must be equal one for one, in the same order: kind, blocks, coefficient,
origin and coefficient factors.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import oracle_walks
from kra import TermKind, action_terms

from conftest import FIXTURE_NAMES, grid_diagram, load_fixture, must_validate, path_diagram
from test_lift_oracle import _relabelled
from test_pair_oracle import one_sided_square


def test_corpus_matches_the_oracle(corpus):
    rows, _elapsed = corpus
    for name, d, _meta in rows:
        assert action_terms(d) == oracle_walks.action_terms(d), name


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_matches_the_oracle(name):
    d = must_validate(load_fixture(name))
    assert action_terms(d) == oracle_walks.action_terms(d)


@pytest.mark.parametrize(
    "make",
    [lambda k=k: grid_diagram(k) for k in (2, 3, 4, 5)]
    + [lambda: _relabelled(grid_diagram(3), 7)]
    + [lambda n=n: path_diagram(n) for n in (5, 10, 20)],
    ids=["grid2", "grid3", "grid4", "grid5", "grid3-relabelled", "path5", "path10", "path20"],
)
def test_family_matches_the_oracle(make):
    d = must_validate(make())
    assert action_terms(d) == oracle_walks.action_terms(d)


@pytest.mark.parametrize("drop", [(), ("h3",)], ids=["one-sided-square", "without-h3"])
def test_diagram_without_mirrors_matches_the_oracle(drop):
    """The one-sided square has no mirror: the rows {c, e} of its mixed
    walk's vertical steps are a Γ̃ edge only through the horizontal edge h3
    in row f.  Without h3 they are no Γ̃ edge at all, and the row trace is
    made from the row steps of the diagram's vertical edges alone."""
    d = one_sided_square()
    d = replace(d, edges=tuple(e for e in d.edges if e.id not in drop))
    terms = action_terms(d)
    assert any(t.origin.startswith("mixed walk ") for t in terms)
    assert terms == oracle_walks.action_terms(d)


def test_grid_has_both_quartic_kinds():
    """The comparison is not vacuous: grid 3 yields pure and mixed walk terms."""
    origins = [t.origin for t in action_terms(must_validate(grid_diagram(3)))
               if t.kind is TermKind.QUARTIC]
    assert sum(o.startswith("walk ") for o in origins) == 5
    assert sum(o.startswith("mixed walk ") for o in origins) == 6
