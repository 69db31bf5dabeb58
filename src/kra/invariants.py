"""Scalar fields, generated trace terms, required counterterms, coverage.

Scalar multiplets live on the non-loop edges of the projected graph: the
edge ẽ carries dim S_ẽ independent multiplets, where S_ẽ is the span of the
Dirac blocks sitting over ẽ.  The expanded action contributes

* one Yang–Mills F² term per simple gauge factor (with a single common
  prefactor),
* a mass and a kinetic term for every edge ẽ, generated by back-and-forth
  traversal of any horizontal edge over ẽ, and
* quartic terms from closed four-step walks: four horizontal steps give a
  single trace, while two horizontal plus two vertical steps give a product
  of two traces (the vertical steps read through the reflection j).

Gauge invariance alone demands counterterms indexed by the projected graph:
F² per simple factor with an independent coefficient, all degree-2
invariants per edge, single traces along strict 4-cycles, and double traces
along pairs of 2-cycles — except that a pair sharing a trivial
(one-dimensional complex) vertex collapses to a single trace, and a pair
meeting only at a quaternionic vertex with conjugate far endpoints
decomposes into already-generated invariants and is dropped.  The pairs,
their numbers and which case each is come from the pairing of
``rconnect``, as for R-connectedness.

Coverage matches required terms against generated ones by canonical trace
structure only; coefficients are ignored, since the generated coefficients
need not agree with the independent ones ("the coefficients in front of the
counterterms might be different" — the theory is not multiplicatively
renormalizable).  Each quartic is keyed by its blocks as step codes
(``StepCodes``), so the walk join, its dedupe and the match hash tuples of
small ints, and slots are built only for a term that is kept.

``TraceSlot`` and the records ``FieldComponent``, ``FieldInventory``,
``InvariantTerm``, ``CoverageEntry`` and ``CoverageReport`` are named
tuples: a required term and a coverage entry are built per pair of cycles,
so they cost no more than a tuple.  A record equals the plain tuple of its
fields, iterates over them, and is copied with ``_replace``.  The loops that
build one per pair or per term call ``tuple.__new__(Record, fields)``: it
skips the Python frame and the length check of ``_make``, for about 60 % of
its cost.
"""

from __future__ import annotations

import enum
from functools import partial
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import _SUBMODULES
from .algebra import FiniteAlgebra, RepLabel, gauge_lie_algebra
from .diagram import _DELTA, _J_DELTA_J, DiagramIndex, KrajewskiDiagram, SymbolicOperator
from .exactlin import GaussRational, span_rank
from .graphs import (
    ProjEdge, cycle_display, edge_display, least_rotation, proj_edge, project,
)
from .rconnect import SHARED_TRIVIAL_VERTEX, _pairing

__all__ = list(_SUBMODULES["invariants"])


class TermKind(enum.Enum):
    YANG_MILLS_F2 = "YangMillsF2"
    SCALAR_MASS = "ScalarMass"
    SCALAR_KINETIC = "ScalarKinetic"
    QUARTIC = "Quartic"


class TraceSlot(NamedTuple):
    """One field factor inside a trace: the multiplet on ``edge``, taken as
    written when ``forward`` (low endpoint to high) and as the adjoint when
    not.  A slot is the tuple ``(edge, forward)``: it hashes, compares and
    sorts at C speed, and equals that plain tuple."""

    edge: ProjEdge
    forward: bool

    @property
    def source(self) -> RepLabel:
        return self.edge[0] if self.forward else self.edge[1]

    @property
    def target(self) -> RepLabel:
        return self.edge[1] if self.forward else self.edge[0]


Block = tuple[TraceSlot, ...]


class FieldComponent(NamedTuple):
    edge: ProjEdge
    basis_index: int
    source_rep: RepLabel
    target_rep: RepLabel


class FieldInventory(NamedTuple):
    components: tuple[FieldComponent, ...]
    total_components: int


class InvariantTerm(NamedTuple):
    kind: TermKind
    blocks: tuple[Block, ...]
    coefficient: str
    origin: str
    gauge_factor: str | None = None
    coefficient_factors: tuple[tuple[str, str], ...] = ()


# ---------------------------------------------------------------------------
# Trace-structure canonicalization


def canonical_block(block: Block) -> Block:
    """Least representative over cyclic rotations and the dagger reversal."""
    dagger = tuple(TraceSlot(s.edge, not s.forward) for s in reversed(block))
    return least_rotation(tuple(block), dagger)


class StepCodes(NamedTuple):
    """Integer codes for directed label steps.  The step a -> b over the
    edge e = proj_edge(a, b) has code 2·r + [a == e[0]], where r is e's
    rank among the edges coded, so codes sort as the steps' trace slots do
    and ``c ^ 1`` is the step reversed, the dagger of its slot.  A code
    fixes both labels of its step, so a walk's codes name its label walk.
    ``code`` maps each step (a, b) to its code; ``slot[c]`` is c's slot."""

    code: Mapping[tuple[RepLabel, RepLabel], int]
    slot: tuple[TraceSlot, ...]


def _step_codes(steps: Iterable[tuple[RepLabel, RepLabel]]) -> StepCodes:
    """The codes of the label steps ``steps`` and of their reverses."""
    code: dict = {}
    slots: list[TraceSlot] = []
    for lo, hi in sorted({proj_edge(a, b) for a, b in steps}):
        code[hi, lo] = len(slots)
        slots.append(TraceSlot((lo, hi), False))
        code[lo, hi] = len(slots)
        slots.append(TraceSlot((lo, hi), True))
    return StepCodes(code, tuple(slots))


def _diagram_step_codes(d: KrajewskiDiagram) -> StepCodes:
    """The codes of every column step and every row step of d's edges that
    moves, derived once per diagram.  They cover each Γ̃ edge and each step
    a walk of the diagram takes, the row steps of vertical edges included,
    which need not be Γ̃ edges; a diagonal edge moves in both."""
    return d.index.stage("step_codes", lambda: _step_codes(
        step for _e, s, t, _part in d.index.known_edges
        for step in ((s.col, t.col), (s.row, t.row)) if step[0] != step[1]
    ))


def _cycle_block(labels: Sequence[RepLabel], codes: StepCodes) -> Block:
    """The canonical trace block of a closed Γ̃ label walk, one slot per step
    labels[i] -> labels[i + 1], cyclically, canonicalised as the steps'
    ``codes``, which must hold each step."""
    code, slot = codes
    if len(labels) == 2:  # an edge forth and back: its adjoint slot, then its forward one
        c = code[labels[0], labels[1]] & -2
        return slot[c:c + 2]
    walk = tuple([code[step] for step in zip(labels, labels[1:] + labels[:1])])
    return tuple([slot[c] for c in _least_walk(walk)])


def _least_walk(walk: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical form of a closed walk's step codes: the least rotation
    of the walk or of its dagger (reversed, each code ``^ 1``).  A two-step
    walk is an edge forth and back: the adjoint step, then the forward one."""
    if len(walk) == 2:
        c = walk[0] & -2
        return (c, c + 1)
    return least_rotation(walk, tuple([c ^ 1 for c in reversed(walk)]))


def structure_display(term: InvariantTerm, algebra: FiniteAlgebra) -> str:
    if term.kind is TermKind.YANG_MILLS_F2:
        return f"tr F[{term.gauge_factor}]_mu_nu F[{term.gauge_factor}]^mu^nu"
    parts = []
    for block in term.blocks:
        inner = []
        for slot in block:
            base = f"phi{edge_display(slot.edge, algebra)}"
            inner.append(base if slot.forward else base + "*")
        parts.append("tr[" + " ".join(inner) + "]")
    body = " ".join(parts)
    if term.kind is TermKind.SCALAR_KINETIC:
        return body.replace("phi", "D_mu phi", 1) if "phi" in body else body
    return body


# ---------------------------------------------------------------------------
# Field inventory


def _dagger(matrix: tuple[tuple[GaussRational, ...], ...]):
    if not matrix:
        return matrix
    rows, cols = len(matrix), len(matrix[0])
    return tuple(
        tuple(matrix[r][c].conjugate() for r in range(rows)) for c in range(cols)
    )


def basis_dimension(etilde: ProjEdge, d: KrajewskiDiagram) -> int:
    """dim S_ẽ: independent multiplets on the projected edge etilde.

    Symbolic operators count their distinct labels.  Exact matrices count
    the dimension of their span, each taken from the low label to the high
    one (the adjoint of an edge that runs the other way).  One matrix spans
    a line unless it is zero, and so does its adjoint, so a single matrix
    needs neither the adjoint nor ``span_rank``; two or more go to
    ``span_rank``."""
    if etilde[0] == etilde[1]:
        raise ValueError("loop edges carry no scalar multiplets")
    over = d.index.horizontal.get(etilde, ())
    numeric = [(e.operator.matrix, oriented) for e, oriented in over
               if not isinstance(e.operator, SymbolicOperator)]
    if not numeric:
        return len({e.operator.label for e, _oriented in over})
    if len(numeric) < len(over):
        raise ValueError(
            "mixed symbolic and numeric operators over one projected edge"
        )
    if len(numeric) == 1:
        return 1 if any(map(any, numeric[0][0])) else 0
    return span_rank([m if oriented else _dagger(m) for m, oriented in numeric])


def enumerate_fields(d: KrajewskiDiagram) -> FieldInventory:
    """One component per (edge, basis index); adjoints are identified, so
    each unordered edge appears once."""
    g = project(d)
    components = []
    total = 0
    for lo, hi in g.non_loop_edges:
        dim_s = basis_dimension((lo, hi), d)
        total += lo.dimension(d.algebra) * hi.dimension(d.algebra) * dim_s
        for p in range(1, dim_s + 1):
            components.append(FieldComponent((lo, hi), p, lo, hi))
    return FieldInventory(tuple(components), total)


# ---------------------------------------------------------------------------
# Generated action terms


def _gauge_and_edge_prefix(d: KrajewskiDiagram) -> tuple[tuple[InvariantTerm, ...], ...]:
    """``_gauge_and_edge_terms`` of d, derived once per diagram."""
    return d.index.stage("gauge_and_edge_terms", lambda: _gauge_and_edge_terms(d))


def _gauge_and_edge_terms(d: KrajewskiDiagram) -> tuple[tuple[InvariantTerm, ...], ...]:
    """The F² term of each simple gauge factor, then a mass and a kinetic
    term on each non-loop edge of Γ̃, as (generated, required): the terms
    the action produces and the counterterms gauge invariance demands, which
    differ only in their coefficient and origin texts."""
    algebra = d.algebra
    make, f2 = partial(tuple.__new__, InvariantTerm), TermKind.YANG_MILLS_F2
    generated: list[InvariantTerm] = []
    required: list[InvariantTerm] = []
    for i, (s, k) in enumerate(gauge_lie_algebra(algebra).simple_factors):
        factor = f"{s}({k})[{i}]"
        generated.append(make((f2, (), "-f(0)/(24*pi^2), common prefactor for every gauge factor",
                               "gauge sector", factor, ())))
        required.append(make((f2, (), "independent coefficient per gauge factor",
                              "gauge sector", factor, ())))
    codes = _diagram_step_codes(d)
    for edge in project(d).non_loop_edges:
        shown = edge_display(edge, algebra)
        over = ", ".join(sorted(e.id for e, _ in d.index.horizontal.get(edge, ())))
        blocks = (_cycle_block(edge, codes),)
        for out, coefficient, origin in (
            (generated, f"prop. to sum_p |M_e^p|^2, e in {{{over}}}",
             f"back-and-forth walks over {shown}"),
            (required, "independent coefficient c(p1, p2) per basis pair",
             f"degree-2 invariant on {shown}"),
        ):
            out.append(make((TermKind.SCALAR_MASS, blocks, coefficient, origin, None, ())))
            out.append(make((TermKind.SCALAR_KINETIC, blocks, coefficient, origin, None, ())))
    return tuple(generated), tuple(required)


def action_terms(d: KrajewskiDiagram) -> tuple[InvariantTerm, ...]:
    """Every term family the expanded action produces for this diagram,
    generated once per diagram."""
    return _generated(d)[0]


def _generated(d: KrajewskiDiagram) -> tuple:
    """(the action terms, each quartic's code key), derived once per diagram."""
    return d.index.stage("action_terms", lambda: _action_terms(d))


def _action_terms(d: KrajewskiDiagram) -> tuple:
    generated = _gauge_and_edge_prefix(d)[0]
    # Each closed four-step walk is joined from two halves at its least
    # vertex, in the order of ``index.steps`` from there.  The first walk
    # with a given term starts at the least vertex of any walk with that
    # term, so the walks left out are never the ones kept; nor is a walk
    # whose reversal, which has its term, came first.  Many walks share one
    # pair of code walks (columns, rows), and only the first of them can give
    # a new term.  The two kinds share no term, so one pass makes both lists.
    walks: list = []  # four horizontal steps, as (term, code key)
    mixed: list = []  # two horizontal and two vertical steps
    code, slot = _diagram_step_codes(d)
    walked: set = set()  # the code walk pairs met so far
    seen: set = set()  # the code keys of the quartic terms made so far
    make, quartic = partial(tuple.__new__, InvariantTerm), TermKind.QUARTIC
    kinds = ((walks, 4, "walk"), (mixed, 2, "mixed walk"))
    for start, halves, back in _quartic_halves(d.index, code):
        for first, e2, b, h, cols, rows in halves:
            e1, a = first
            for out, n_h, name in kinds:
                for e3, c, e4, last, back_cols, back_rows in back.get((b, n_h - h), ()):
                    if last < first:
                        continue  # the reversed walk came first, with this term
                    pair = (cols + back_cols, rows + back_rows)
                    if pair in walked:
                        continue  # its term is in seen already
                    walked.add(pair)
                    col = _least_walk(pair[0])
                    if not pair[1]:
                        key = (col,)
                    else:  # a mixed walk: its row trace is a second block
                        row = _least_walk(pair[1])
                        key = (col, row) if col <= row else (row, col)
                    if key in seen:
                        continue
                    seen.add(key)
                    blocks = tuple([tuple([slot[x] for x in k]) for k in key])
                    factors = ((e1, "p1"), (e2, "p2"), (e3, "p3"), (e4, "p4"))
                    coeff = f"prop. to M_{e1}^p1 M_{e2}^p2 M_{e3}^p3 M_{e4}^p4"
                    origin = f"{name} {start} -> {a} -> {b} -> {c} -> {start}"
                    out.append((make((quartic, blocks, coeff, origin, None, factors)), key))
    return generated + tuple([t for t, _ in walks + mixed]), tuple([k for _, k in walks + mixed])


def _quartic_halves(index: DiagramIndex, code: Mapping[tuple[RepLabel, RepLabel], int]):
    """For each start s in id order: s, its forward halves and its return
    halves, the two-step pieces every quartic walk from s is joined from.

    A closed four-step walk s -> a -> b -> c -> s whose vertices are all at
    least s is the forward half s -> a -> b followed by the return half
    b -> c -> s, the reversal of a forward half that ends in b; each step is
    horizontal or vertical.  A forward half is ((e1, a), e2, b, h, cols,
    rows), in the order of ``index.steps``: h counts its horizontal steps,
    cols holds the code of each one's column step and rows that of each
    vertical step's row step.  ``back[b, h]`` lists the return halves into b
    with h horizontal steps as (e3, c, e4, (e4, c), cols, rows), sorted,
    which is the order of ``index.steps`` at b and c.  So the walks from s
    come in the order of ``index.steps``, kept to vertices of id s or more."""
    vertices = index.vertices
    # each horizontal or vertical step v -> w: (edge, w, what it adds at v,
    # what its reversal, of code ^ 1, adds at w), as (cols, rows, 1 if
    # horizontal)
    flat: dict = {v: [] for v in index.steps}
    for v, out in index.steps.items():
        for eid, w, part in out:
            if part is _DELTA:
                c = code[vertices[v].col, vertices[w].col]
                flat[v].append((eid, w, ((c,), (), 1), ((c ^ 1,), (), 1)))
            elif part is _J_DELTA_J:
                c = code[vertices[v].row, vertices[w].row]
                flat[v].append((eid, w, ((), (c,), 0), ((), (c ^ 1,), 0)))
    for start in sorted(flat):
        halves, back = [], {}
        for e1, a, u1, ua in flat[start]:
            if a < start:
                continue
            first = (e1, a)
            for e2, b, u2, ub in flat[a]:
                if b < start:
                    continue
                h = u1[2] + u2[2]
                halves.append((first, e2, b, h, u1[0] + u2[0], u1[1] + u2[1]))
                back.setdefault((b, h), []).append((e2, a, e1, first, ub[0] + ua[0], ub[1] + ua[1]))
        for returns in back.values():
            returns.sort()
        yield start, halves, back


# ---------------------------------------------------------------------------
# Required counterterms and coverage


def required_counterterms(d: KrajewskiDiagram) -> tuple[InvariantTerm, ...]:
    """Every gauge-invariant up to degree 4 demanded by the field content,
    derived once per diagram."""
    return _required(d)[0]


def _required(d: KrajewskiDiagram) -> tuple:
    """(the required counterterms, code key -> position of each single-trace
    quartic, by number in ``_pairing(d, 4)`` the position of the term of
    each pair of 2-cycles: their double trace, their collapsed single trace
    if exempt at a shared trivial vertex, else None, and even code -> number
    of each 2-cycle in ``diagram_cycles`` order), derived once per diagram."""
    return d.index.stage("required_counterterms", lambda: _required_counterterms(d))


def _required_counterterms(d: KrajewskiDiagram):
    algebra = d.algebra
    terms: list[InvariantTerm] = list(_gauge_and_edge_prefix(d)[1])
    make, quartic = partial(tuple.__new__, InvariantTerm), TermKind.QUARTIC
    coefficient = "independent coefficient per index tuple"
    code, slot = _diagram_step_codes(d)
    position: dict = {}

    def keep(walk: tuple[int, ...], origin: str) -> int:
        """The position of the single trace along this closed code walk."""
        least = _least_walk(walk)
        at = position.setdefault((least,), len(terms))
        if at == len(terms):
            terms.append(make((quartic, (tuple([slot[c] for c in least]),), coefficient, origin,
                               None, ())))
        return at

    # the strict 4-cycles, then the pairs of total length up to 4, which are
    # all pairs of 2-cycles, by pair number
    pairing = _pairing(d, 4)
    cycles = pairing.cycles
    for c in cycles:
        if len(c) == 4:
            keep(tuple([code[step] for step in zip(c, c[1:] + c[:1])]),
                 f"4-cycle {cycle_display(c, algebra)}")
    twos = [c for c in cycles if len(c) == 2]  # the first cycles: they sort by length
    # a 2-cycle (lo, hi) by the even code of its edge: the step hi -> lo,
    # and lo -> hi is the next code; one block per 2-cycle, shared by its pairs
    evens = [code[c] & -2 for c in twos]
    blocks = [slot[c:c + 2] for c in evens]
    shown = [cycle_display(c, algebra) for c in twos]
    opened = [f"cycle pair {s} + " for s in shown]
    pairs: list = []  # by pair number
    for (i, j), ex in zip(pairing.pairs(range(len(twos))), pairing.exemptions):
        if not ex.exempt:
            # 2-cycle blocks sort as their cycles do, so (b_i, b_j) is
            # sorted; every other quartic has one block
            pairs.append(len(terms))
            terms.append(make((quartic, (blocks[i], blocks[j]), coefficient, opened[i] + shown[j],
                               None, ())))
        elif ex.clause == SHARED_TRIVIAL_VERTEX:
            # each cycle walked out of the shared vertex and back
            x = evens[i] + (twos[i][0] == ex.vertex)
            y = evens[j] + (twos[j][0] == ex.vertex)
            pairs.append(keep((x, x ^ 1, y, y ^ 1),
                              f"{opened[i]}{shown[j]}, collapsed at the shared trivial vertex"))
        else:  # a quaternion-conjugate pair gives no term
            pairs.append(None)
    number = {c: i for i, c in enumerate(evens)}
    return tuple(terms), MappingProxyType(position), tuple(pairs), MappingProxyType(number)


class CoverageEntry(NamedTuple):
    required: InvariantTerm
    matched: InvariantTerm | None


class CoverageReport(NamedTuple):
    entries: tuple[CoverageEntry, ...]

    @property
    def complete(self) -> bool:
        return all(e.matched is not None for e in self.entries)

    @property
    def missing(self) -> tuple[InvariantTerm, ...]:
        return tuple(e.required for e in self.entries if e.matched is None)


def counterterm_coverage(d: KrajewskiDiagram) -> CoverageReport:
    """Match each required counterterm to the first generated action term
    of the same canonical trace structure; a generated double trace that
    collapses at a shared trivial vertex matches the single trace.  The
    report is computed once per diagram."""
    return d.index.stage("counterterm_coverage", lambda: _counterterm_coverage(d))


def _counterterm_coverage(d: KrajewskiDiagram) -> CoverageReport:
    """The coverage report, as ``counterterm_coverage`` states it.

    One loop builds the F² and edge terms of both lists, so generated term k
    of them matches required term k.  A quartic of two 2-cycle blocks looks
    up the pair of the cycles its even codes number, and any other quartic
    its code key."""
    required = required_counterterms(d)  # the public stages, as a tracer counts them
    generated = action_terms(d)
    _, position, pairs, number = _required(d)
    pair_number = _pairing(d, 4).number
    keys = _generated(d)[1]
    n = len(generated) - len(keys)
    matched: list[InvariantTerm | None] = [*generated[:n], *repeat(None, len(required) - n)]
    for t, key in zip(generated[n:], keys):
        if len(key) == 2:
            # a mixed walk's two sorted 2-slot blocks, so i <= j; a row edge
            # that is no Γ̃ edge has no number and matches nothing
            i, j = number.get(key[0][0]), number.get(key[1][0])
            at = None if i is None or j is None else pairs[pair_number(i, j)]
        else:
            at = position.get(key)
        if at is not None and matched[at] is None:
            matched[at] = t
    return CoverageReport(tuple(map(tuple.__new__, repeat(CoverageEntry), zip(required, matched))))
