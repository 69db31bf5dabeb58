"""The pair stages against their oracle.

``oracle_pairs`` derives the exemption decision, the pair lift search, the
required counterterms, coverage and R-connectedness from the definition.
Every result must have the same ``repr``: terms, origins, order, exemptions
and witnesses alike.  The oracle runs on a copy of the diagram, so it reads
nothing the fast stages stored.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

import oracle_pairs
from kra import (
    DiagramVertex,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    KrajewskiDiagram,
    RepLabel,
    SymbolicOperator,
    builtin,
    check_r_connected,
    counterterm_coverage,
    diagram_cycles,
    graphs,
    lift_pair,
    renorm_verdict,
    required_counterterms,
)

from conftest import (
    CASE_NAMES, FIXTURE_NAMES, grid_diagram, load_case, load_fixture, must_validate,
    path_diagram, ring_diagram,
)
from test_lift_oracle import _relabelled


def _assert_same_pair_stages(d) -> None:
    copy = replace(d)  # a fresh index: nothing computed on d is shared
    assert repr(required_counterterms(d)) == repr(oracle_pairs.required_counterterms(copy))
    assert repr(counterterm_coverage(d)) == repr(oracle_pairs.counterterm_coverage(copy))
    assert repr(check_r_connected(d, 4)) == repr(oracle_pairs.check_r_connected(copy, 4))


def _family_diagrams():
    rows = [(f"grid{k}", grid_diagram(k)) for k in (2, 3, 4, 5)]
    rows += [(f"path{n}", path_diagram(n)) for n in (5, 10, 20, 40)]
    # a ring's closing 2-cycle (0, n) comes second in cycle order and shares
    # label n with the last, (n - 1, n): a pair that meets far apart
    rows += [(f"ring{n}", ring_diagram(n)) for n in (11, 31)]
    rows += [
        ("grid3-relabelled", _relabelled(grid_diagram(3), 7)),
        ("path10-relabelled", _relabelled(path_diagram(10), 8)),
    ]
    rows += [(name, load_fixture(name)) for name in FIXTURE_NAMES]
    rows += [(name, load_case(name)) for name in CASE_NAMES]
    return [(name, must_validate(d)) for name, d in rows]


def test_corpus(corpus):
    rows, _elapsed = corpus
    for _name, d, _meta in rows:
        _assert_same_pair_stages(d)


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in _family_diagrams()])
def test_families_and_fixtures(d):
    _assert_same_pair_stages(d)


@pytest.mark.parametrize(
    "d",
    [pytest.param(must_validate(builtin(name)), id=name) for name in ("sm", "chain")]
    + [pytest.param(grid_diagram(k), id=f"grid{k}") for k in (2, 3)]
    + [pytest.param(path_diagram(5), id="path5"), pytest.param(ring_diagram(11), id="ring11")],
)
def test_condition_three_in_dimensions_five_to_eight(d):
    """Tuples of three and four cycles: condition 3 decides each by the
    pairs of its distinct cycles, the oracle by every pair of its members."""
    copy = replace(d)
    for m in range(5, 9):
        assert repr(check_r_connected(d, m)) == repr(oracle_pairs.check_r_connected(copy, m))


def test_pairs_that_share_no_cell_start_no_walk(monkeypatch):
    """In path n, column 0 holds every row and every other column only row
    0, so an ordered pair (g1, g2) of 2-cycles meets in a cell exactly when
    0 is on g1 or on g2.  A pair that does not meet is decided without a
    single walk; one that meets gets the oracle's witness."""
    d = must_validate(path_diagram(10))
    cells = d.index.cells
    calls = []
    original = graphs._first_walk

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(graphs, "_first_walk", counted)
    apart = lifted = 0
    for g1, g2 in product(diagram_cycles(d, 2), repeat=2):
        meets = any((col, row) in cells for col in g1 for row in g2)
        calls.clear()
        w = lift_pair(g1, g2, d)
        assert w == oracle_pairs.lift_pair(g1, g2, d), (g1, g2)
        if not meets:
            assert calls == [], (g1, g2)
            apart += 1
        lifted += w is not None
    assert apart == 9 * 9  # the ordered pairs of cycles that miss label 0
    assert lifted > 0



def one_sided_square() -> KrajewskiDiagram:
    """A square of cells {a, b} x {c, e}, joined by two horizontal and two
    vertical edges, plus one horizontal edge c–e in row f.  No cell lies in
    {c, e} x {a, b}: the diagram has no mirror, so it is not a valid
    spectral triple, but the pair stages only read the graph.  The pair
    ((a, b), (c, e)) lifts only with (a, b) horizontal, which makes this the
    input on which the axis of the lift's meeting test shows."""
    algebra = FiniteAlgebra.of(*[(2, FactorKind.COMPLEX)] * 5)
    a, b, c, e, f = (RepLabel(i) for i in range(5))
    cells = {"ac": (a, c), "bc": (b, c), "ae": (a, e), "be": (b, e), "cf": (c, f), "ef": (e, f)}
    vertices = tuple(DiagramVertex(vid, col, row) for vid, (col, row) in cells.items())
    steps = (("h1", "ac", "bc"), ("h2", "ae", "be"), ("v1", "ac", "ae"), ("v2", "bc", "be"),
             ("h3", "cf", "ef"))
    edges = tuple(EdgePair(eid, s, t, SymbolicOperator(eid)) for eid, s, t in steps)
    return KrajewskiDiagram(algebra, 0, vertices, edges)


def test_cells_off_the_mirror():
    d = one_sided_square()
    _assert_same_pair_stages(d)
    lifted = [p.pair for p in check_r_connected(d, 4).cond2 if p.status == "lifted"]
    assert lifted == [((RepLabel(0), RepLabel(1)), (RepLabel(2), RepLabel(3)))]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_the_item_13_cases_miss_one_collapsed_pair_term(name):
    """On each text of ROADMAP item 13 every pair of 2-cycles shares the
    trivial label, so condition 2 exempts it and the diagram is R-connected,
    yet the collapsed single trace of one pair is required and no four-step
    walk generates it."""
    d = must_validate(load_case(name))
    assert oracle_pairs.check_r_connected(replace(d), 4).verdict
    missing = oracle_pairs.counterterm_coverage(replace(d)).missing
    assert len(missing) == 1
    assert missing[0].origin.endswith(", collapsed at the shared trivial vertex")


@pytest.mark.parametrize("name", CASE_NAMES)
def test_a_renormalizable_verdict_has_complete_coverage(name):
    d = must_validate(load_case(name))
    assert renorm_verdict(d, 4).verdict != "Renormalizable" or counterterm_coverage(d).complete
