"""The index-backed, trace-pruned lift search against the exhaustive one.

``oracle_lift`` holds the search ``kra.graphs`` used before; every witness
must match it exactly, vertices and edges, so the least witness and the
parallel edge that wins a tie are both unchanged.  The scaling tests pin
the two cases the exhaustive search could not finish.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from itertools import product

import pytest

import oracle_lift
from kra import (
    DiagramVertex,
    EdgePair,
    FactorKind,
    FiniteAlgebra,
    KrajewskiDiagram,
    LiftWitness,
    RepLabel,
    SymbolicOperator,
    builtin,
    check_r_connected,
    diagram_cycles,
    enumerate_cycles,
    lift_cycle,
    lift_pair,
    project,
)
from kra.invariants import _cycle_block, _diagram_step_codes

from oracle_pairs import cycle_pairs

from conftest import (
    grid_diagram,
    must_validate,
    path_diagram,
    ring_diagram,
    square_diagram,
    verify_cycle_witness,
    verify_rconnect_report,
)
from random_diagrams import random_valid_diagrams


def _relabelled(d, seed: int):
    """The same diagram with vertex and edge ids shuffled, so that id order
    (which breaks ties between witnesses) no longer follows the layout."""
    rng = random.Random(seed)
    vids = [v.id for v in d.vertices]
    eids = [e.id for e in d.edges]
    vmap = dict(zip(vids, rng.sample(vids, len(vids))))
    emap = dict(zip(eids, rng.sample(eids, len(eids))))
    return replace(
        d,
        vertices=tuple(replace(v, id=vmap[v.id]) for v in d.vertices),
        edges=tuple(
            replace(e, id=emap[e.id], source=vmap[e.source], target=vmap[e.target])
            for e in d.edges
        ),
        jmap=tuple((vmap[a], vmap[b]) for a, b in d.jmap),
    )


def _doubled(d):
    """d plus a copy of itself with "w"-prefixed ids: every (column, row) cell
    then holds two vertices, so lifts start from more than one vertex."""

    def w(vid: str) -> str:
        return "w" + vid

    return replace(
        d,
        vertices=d.vertices + tuple(replace(v, id=w(v.id)) for v in d.vertices),
        edges=d.edges
        + tuple(replace(e, id=w(e.id), source=w(e.source), target=w(e.target)) for e in d.edges),
        jmap=d.jmap + tuple((w(a), w(b)) for a, b in d.jmap),
    )


def _with_parallel_edges(d):
    """d plus a parallel copy, with "z"-prefixed ids, of each of its edges:
    every lift then chooses between two edges over each step."""
    return replace(
        d, edges=d.edges + tuple(replace(e, id="z" + e.id) for e in d.edges)
    )


def _crossed(d):
    """``_doubled(d)`` plus, for each edge of d, an "x"-prefixed edge from its
    source to the copy of its target: a vertex then has two neighbours in
    the column of each step."""
    doubled = _doubled(d)
    return replace(
        doubled,
        edges=doubled.edges
        + tuple(replace(e, id="x" + e.id, target="w" + e.target) for e in d.edges),
    )


def padded_triangle() -> KrajewskiDiagram:
    """Columns a, b, c joined only through the 4-cycle a1 -> b1 -> c1 -> a2
    -> a1, whose last step stays in column a.  The least lift of (a, b, c)
    starts at a1, so its column trace a b c a runs one letter past the word
    before it closes.  Not a valid spectral triple (no j, no signs); the
    lift search only reads the graph."""
    algebra = FiniteAlgebra.of(*[(n, FactorKind.COMPLEX) for n in (2, 3, 4)])
    a, b, c = RepLabel(0), RepLabel(1), RepLabel(2)
    vertices = tuple(
        DiagramVertex(vid, col, a) for vid, col in (("a1", a), ("a2", a), ("b1", b), ("c1", c))
    )
    steps = (("e1", "a1", "b1"), ("e2", "b1", "c1"), ("e3", "c1", "a2"), ("e4", "a2", "a1"))
    edges = tuple(EdgePair(eid, s, t, SymbolicOperator(eid)) for eid, s, t in steps)
    return KrajewskiDiagram(algebra, 1, vertices, edges)


def _family_diagrams():
    rows = [(f"grid{k}", grid_diagram(k)) for k in (2, 3)]
    rows += [(f"path{n}", path_diagram(n)) for n in (5, 10, 15)]
    rows += [
        ("grid3-relabelled", _relabelled(grid_diagram(3), 7)),
        ("path10-relabelled", _relabelled(path_diagram(10), 8)),
        # the one-step lift of a 2-cycle breaks ties by the least start (two
        # per cell), the least neighbour (two in the other column) and the
        # least edge id both ways (two parallel edges, with shuffled ids)
        ("path5-doubled", _doubled(path_diagram(5))),
        ("path8-parallel-relabelled", _relabelled(_with_parallel_edges(path_diagram(8)), 9)),
        ("path5-crossed-relabelled", _relabelled(_crossed(path_diagram(5)), 11)),
        ("square-doubled", _doubled(square_diagram())),
        ("chain-doubled", _doubled(must_validate(builtin("chain")))),
        ("sm-doubled", _doubled(must_validate(builtin("sm")))),
    ]
    return [(name, must_validate(d)) for name, d in rows]


def _assert_same_lifts(d) -> int:
    """Compare every cycle (both orientations) and both orders of every
    pair; returns the number of witnesses found."""
    cycles = enumerate_cycles(project(d), 4)
    found = 0
    for cycle in cycles:
        for target in (cycle, tuple(reversed(cycle))):
            w = lift_cycle(target, d)
            assert w == oracle_lift.lift_cycle(target, d), target
            found += w is not None
    for c1, c2 in cycle_pairs(cycles, 4):
        for g1, g2 in ((c1, c2), (c2, c1)):
            w = lift_pair(g1, g2, d)
            assert w == oracle_lift.lift_pair(g1, g2, d), (g1, g2)
            found += w is not None
    return found


class TestOracleWitnesses:
    def test_corpus_and_builtins(self, corpus):
        rows, _elapsed = corpus
        found = sum(_assert_same_lifts(d) for _name, d, _meta in rows)
        assert found > 100

    @pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in _family_diagrams()])
    def test_grid_and_path_families(self, d):
        assert _assert_same_lifts(d) > 0

    @pytest.mark.parametrize("name", ["sm", "chain", "square", "padded-triangle"])
    def test_every_short_word_over_the_columns(self, name):
        # targets that are no Γ̃-cycle, repeated labels included: the trace
        # cut must stay exact for any word, not only for simple cycles
        if name == "padded-triangle":
            d = padded_triangle()
        elif name == "square":
            d = must_validate(square_diagram())
        else:
            d = must_validate(builtin(name))
        labels = sorted({v.col for v in d.vertices})
        for k in (1, 2, 3, 4):
            for word in product(labels, repeat=k):
                assert lift_cycle(word, d) == oracle_lift.lift_cycle(word, d), word

    def test_every_two_label_word(self):
        """Each ordered pair of distinct column labels, a Γ̃ edge or not:
        the lookup of a 2-cycle lift must give the search's witness, and
        None exactly where the search finds no lift."""
        words = lifts = 0
        for d in random_valid_diagrams(4, 300) + [must_validate(ring_diagram(11))]:
            labels = sorted({v.col for v in d.vertices})
            for word in product(labels, repeat=2):
                if word[0] != word[1]:
                    w = lift_cycle(word, d)
                    assert w == oracle_lift.lift_cycle(word, d), word
                    words += 1
                    lifts += w is not None
        assert 0 < lifts < words, (lifts, words)

    def test_least_lift_may_end_in_its_start_column(self):
        d = padded_triangle()
        w = lift_cycle((RepLabel(0), RepLabel(1), RepLabel(2)), d)
        assert w == LiftWitness(("a1", "b1", "c1", "a2"), ("e1", "e2", "e3", "e4"))


def test_two_cycle_blocks_sort_as_their_cycles(corpus):
    """Double traces of 2-cycles are keyed by the cycles' positions in
    ``diagram_cycles``: this holds because c_i < c_j gives b_i < b_j."""
    rows, _elapsed = corpus
    diagrams = [d for _name, d, _meta in rows] + [d for _name, d in _family_diagrams()]
    for d in diagrams:
        codes = _diagram_step_codes(d)
        blocks = [_cycle_block(c, codes) for c in diagram_cycles(d, 4) if len(c) == 2]
        assert all(b1 < b2 for b1, b2 in zip(blocks, blocks[1:]))


class TestScaling:
    def test_grid_k4_is_r_connected_within_a_second(self):
        d = must_validate(grid_diagram(4))
        started = time.perf_counter()
        report = check_r_connected(d, 4)
        elapsed = time.perf_counter() - started
        assert report.verdict
        assert len(report.cond1) == 4 and len(report.cond2) == 10
        verify_rconnect_report(d, report)
        assert elapsed < 1.0, f"check_r_connected(grid 4) took {elapsed:.2f} s"

    def test_path_600_two_cycle_lifts_within_a_second(self):
        d = must_validate(path_diagram(600))
        cycle = enumerate_cycles(project(d), 2)[0]
        assert cycle == (RepLabel(0), RepLabel(1))
        started = time.perf_counter()
        w = lift_cycle(cycle, d)
        elapsed = time.perf_counter() - started
        assert w == LiftWitness(("p0", "p1"), ("h0", "h0"))
        verify_cycle_witness(d, w, cycle)
        assert elapsed < 1.0, f"lift_cycle(path 600) took {elapsed:.2f} s"
