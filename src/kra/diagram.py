"""Krajewski diagrams: data model, sign table, axiom validation.

A diagram is a decorated multigraph over a finite algebra.  Vertices carry an
irreducible bimodule C^n ⊗ C^m° written as a (column, row) pair of
representation labels plus, in even KO-dimension, a sign.  Edges represent
pairs of mutually adjoint Dirac-operator components and are stored once with
a chosen orientation; the reverse orientation is implied.  An involution j
mirrors the diagram across the diagonal (swapping column and row labels) and
must leave the edge set invariant.

Validation reports axiom violations as entries rather than exceptions, so a
broken diagram can be inspected rather than merely rejected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, TypeVar

from . import _SUBMODULES
from .algebra import FactorKind, FiniteAlgebra, RepLabel
from .exactlin import GaussRational, Matrix

__all__ = list(_SUBMODULES["diagram"])

T = TypeVar("T")
K = TypeVar("K", RepLabel, str)


# ---------------------------------------------------------------------------
# KO-dimension sign table


class KOSigns(NamedTuple):
    n: int
    eps: int
    eps_prime: int
    eps_double_prime: int | None

    @property
    def even(self) -> bool:
        return self.eps_double_prime is not None


_KO_TABLE: dict[int, tuple[int, int, int | None]] = {
    0: (1, 1, 1),
    1: (1, -1, None),
    2: (-1, 1, -1),
    3: (-1, 1, None),
    4: (-1, 1, 1),
    5: (-1, -1, None),
    6: (1, 1, -1),
    7: (1, 1, None),
}


def ko_signs(n: int) -> KOSigns:
    """The (ε, ε′, ε″) signs for KO-dimension ``n`` mod 8."""
    eps, eps_prime, eps_dd = _KO_TABLE[n % 8]
    return KOSigns(n % 8, eps, eps_prime, eps_dd)


# ---------------------------------------------------------------------------
# Data model


@dataclass(frozen=True, slots=True)
class DiagramVertex:
    """A node decorated with C^col ⊗ C^row° and an optional grading sign."""

    id: str
    col: RepLabel
    row: RepLabel
    sign: int | None = None


@dataclass(frozen=True, slots=True)
class SymbolicOperator:
    label: str


@dataclass(frozen=True, slots=True)
class NumericOperator:
    """An exact matrix (target-dimension × source-dimension)."""

    matrix: Matrix

    @property
    def shape(self) -> tuple[int, int]:
        rows = len(self.matrix)
        cols = len(self.matrix[0]) if rows else 0
        return rows, cols

    def is_zero(self) -> bool:
        return not any(map(any, self.matrix))

    def is_rectangular(self) -> bool:
        return len({len(row) for row in self.matrix}) <= 1


OperatorSpec = SymbolicOperator | NumericOperator


@dataclass(frozen=True, slots=True)
class EdgePair:
    """One line of the diagram: the edge source→target and its adjoint back."""

    id: str
    source: str
    target: str
    operator: OperatorSpec


@dataclass(frozen=True, slots=True)
class KrajewskiDiagram:
    algebra: FiniteAlgebra
    kodim: int
    vertices: tuple[DiagramVertex, ...]
    edges: tuple[EdgePair, ...]
    jmap: tuple[tuple[str, str], ...] | None = None
    families: int = 1
    _index: DiagramIndex | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def index(self) -> DiagramIndex:
        """The lookup tables of this diagram, made on first use."""
        if self._index is None:
            object.__setattr__(self, "_index", DiagramIndex(self))
        return self._index

    def vertex(self, vid: str) -> DiagramVertex:
        return self.index.vertices[vid]


class DiracPart(enum.Enum):
    """Which summand of the Dirac operator an edge belongs to.

    D0: both column and row labels agree across the edge (no field content).
    Delta: "horizontal" — row labels agree, column labels differ.
    JDeltaJ: "vertical" — column labels agree, row labels differ.
    """

    D0 = "D0"
    DELTA = "Delta"
    J_DELTA_J = "JDeltaJ"


# the members as module constants: reading an enum member through its class
# costs a descriptor call, and the index tables, the pair-lift walk and the
# quartic join test the part of every step
_D0, _DELTA, _J_DELTA_J = DiracPart.D0, DiracPart.DELTA, DiracPart.J_DELTA_J


def _dirac_part(s: DiagramVertex, t: DiagramVertex) -> DiracPart | None:
    """The part of an edge s–t; None for a diagonal edge."""
    if s.row == t.row:
        return _D0 if s.col == t.col else _DELTA
    return _J_DELTA_J if s.col == t.col else None


def proj_edge(a: K, b: K) -> tuple[K, K]:
    """The unordered pair {a, b} as (lo, hi): a Γ̃-edge of two column
    labels, a row edge of two row labels or a jmap pair of two vertex ids."""
    return (a, b) if a <= b else (b, a)


def edge_part(d: KrajewskiDiagram, edge: EdgePair) -> DiracPart:
    part = _dirac_part(d.vertex(edge.source), d.vertex(edge.target))
    if part is None:
        raise ValueError(f"edge {edge.id} is diagonal (violates the first-order condition)")
    return part


class DiagramIndex:
    """Read-only lookup tables shared by every analysis of one diagram, each
    built on first use.  Edges with an unknown endpoint appear in no table,
    so building never fails; validation reports them.

    The index also keeps the result of each analysis stage (Γ̃, the cycle
    lists, the term lists, the R-connectedness reports), so that a stage
    runs once per diagram however many analyses ask for it.  No table and
    no stage reads the jmap, so the resolved copy that ``validate`` returns
    shares its input's index."""

    def __init__(self, d: KrajewskiDiagram) -> None:
        self.vertices: dict[str, DiagramVertex] = {v.id: v for v in d.vertices}
        self._edges = d.edges
        self._stages: dict = {}

    def stage(self, key, compute: Callable[[], T]) -> T:
        """The result of ``compute()`` stored under ``key``, computed on the
        first request.  Every caller gets the same object, so results must
        be immutable.  An exception is raised again on every request: only
        a returned value is kept."""
        if key not in self._stages:
            self._stages[key] = compute()
        return self._stages[key]

    @cached_property
    def known_edges(self) -> tuple[tuple[EdgePair, DiagramVertex, DiagramVertex,
                                         DiracPart | None], ...]:
        """(edge, source, target, part; None if diagonal) for known endpoints,
        classified once for Γ̃, the step codes and the tables built here."""
        vertices = self.vertices
        out = []
        for e in self._edges:
            s, t = vertices.get(e.source), vertices.get(e.target)
            if s is not None and t is not None:
                out.append((e, s, t, _dirac_part(s, t)))
        return tuple(out)

    @cached_property
    def steps(self) -> dict[str, tuple[tuple[str, str, DiracPart | None], ...]]:
        """vertex id -> sorted (edge id, other endpoint, part)."""
        out: dict[str, list] = {vid: [] for vid in self.vertices}
        for e, _s, _t, part in self.known_edges:
            out[e.source].append((e.id, e.target, part))
            if e.target != e.source:
                out[e.target].append((e.id, e.source, part))
        return {vid: tuple(sorted(s, key=lambda st: st[:2])) for vid, s in out.items()}

    @cached_property
    def neighbors(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """vertex id -> sorted (other vertex, least edge id to it), without
        self-loops.  Walking the steps backwards leaves the least id."""
        return {
            vid: tuple(sorted({o: e for e, o, _p in reversed(vs) if o != vid}.items()))
            for vid, vs in self.steps.items()
        }

    @cached_property
    def cells(self) -> dict[tuple[RepLabel, RepLabel], list[str]]:
        """(column, row) -> sorted vertex ids."""
        out: dict[tuple[RepLabel, RepLabel], list[str]] = {}
        for vid in sorted(self.vertices):
            out.setdefault((self.vertices[vid].col, self.vertices[vid].row), []).append(vid)
        return out

    @cached_property
    def columns(self) -> dict[RepLabel, tuple[str, ...]]:
        """column -> its vertex ids, sorted."""
        out: dict[RepLabel, list[str]] = {}
        for vid in sorted(self.vertices):
            out.setdefault(self.vertices[vid].col, []).append(vid)
        return {col: tuple(vids) for col, vids in out.items()}

    @cached_property
    def edge_tables(self) -> tuple[
        dict[tuple[RepLabel, RepLabel], frozenset[RepLabel]],
        dict[tuple[RepLabel, RepLabel], frozenset[RepLabel]],
    ]:
        """(column edge (lo, hi) -> the rows holding a horizontal edge over
        it, row edge (lo, hi) -> the columns holding a vertical edge over
        it)."""
        rows: dict[tuple[RepLabel, RepLabel], set[RepLabel]] = {}
        cols: dict[tuple[RepLabel, RepLabel], set[RepLabel]] = {}
        for _e, s, t, part in self.known_edges:
            if part is _DELTA:
                rows.setdefault(proj_edge(s.col, t.col), set()).add(s.row)
            elif part is _J_DELTA_J:
                cols.setdefault(proj_edge(s.row, t.row), set()).add(s.col)
        return (
            {key: frozenset(held) for key, held in rows.items()},
            {key: frozenset(held) for key, held in cols.items()},
        )

    @cached_property
    def horizontal(self) -> dict[tuple[RepLabel, RepLabel], list[tuple[EdgePair, bool]]]:
        """projected edge (lo, hi) -> its horizontal edge pairs in diagram
        order, each with whether it runs from lo to hi."""
        out: dict[tuple[RepLabel, RepLabel], list[tuple[EdgePair, bool]]] = {}
        for e, s, t, part in self.known_edges:
            if part is _DELTA:
                key = proj_edge(s.col, t.col)
                out.setdefault(key, []).append((e, s.col == key[0]))
        return out


def dirac_decomposition(d: KrajewskiDiagram) -> dict[DiracPart, tuple[EdgePair, ...]]:
    """Partition the edge pairs into the three Dirac summands."""
    out: dict[DiracPart, list[EdgePair]] = {part: [] for part in DiracPart}
    for edge in d.edges:
        out[edge_part(d, edge)].append(edge)
    return {part: tuple(edges) for part, edges in out.items()}


# ---------------------------------------------------------------------------
# Validation


class CheckResult(NamedTuple):
    check: str
    ok: bool
    severity: str  # "error" | "warning" | "info"
    details: tuple[str, ...] = ()


class ValidationReport(NamedTuple):
    entries: tuple[CheckResult, ...]
    diagram: KrajewskiDiagram | None

    @property
    def ok(self) -> bool:
        return all(e.ok or e.severity != "error" for e in self.entries)

    @property
    def warnings(self) -> tuple[str, ...]:
        out: list[str] = []
        for e in self.entries:
            if e.severity == "warning" and not e.ok:
                out.extend(e.details)
        return tuple(out)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(e for e in self.entries if not e.ok and e.severity == "error")


def resolve_jmap(d: KrajewskiDiagram) -> dict[str, str]:
    """Complete the involution, inferring unlisted vertices by rep swap.

    Explicit pairs are taken as-is.  Every remaining vertex v must have a
    unique unmatched partner w with col(w) = row(v) and row(w) = col(v)
    (possibly w = v); anything else raises ValueError.
    """
    verts = d.index.vertices
    mapping: dict[str, str] = {}
    for a, b in d.jmap or ():
        if a not in verts or b not in verts:
            raise ValueError(f"jmap references unknown vertex: {a} <-> {b}")
        for x, y in ((a, b), (b, a)):
            if mapping.get(x, y) != y:
                raise ValueError(f"conflicting jmap entries for vertex {x}")
            mapping[x] = y
    for vid in sorted(verts):
        if vid in mapping:
            continue
        v = verts[vid]
        candidates = [w for w in d.index.cells.get((v.row, v.col), ()) if w not in mapping]
        if len(candidates) != 1:
            kind = "no" if not candidates else "several"
            raise ValueError(
                f"cannot infer the mirror of vertex {vid}: {kind} rep-swap "
                "candidates; declare an explicit jmap"
            )
        partner = candidates[0]
        mapping[vid] = partner
        mapping[partner] = vid
    return mapping


def _normalized_jmap(pairs: Iterable[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted({proj_edge(a, b) for a, b in pairs}))


def jmap_pairs(d: KrajewskiDiagram) -> tuple[tuple[str, str], ...]:
    """The involution as sorted (low, high) pairs: resolved when
    ``resolve_jmap`` succeeds, otherwise the declared pairs."""
    try:
        return _normalized_jmap(resolve_jmap(d).items())
    except ValueError:
        return _normalized_jmap(d.jmap or ())


def validate(d: KrajewskiDiagram) -> ValidationReport:
    """Check the diagram axioms; failures become report entries.

    On success the report carries a resolved copy of the diagram (jmap made
    explicit and normalized).  It differs from its input only in the jmap,
    which no table and no stage reads, so it shares the input's index: the
    tables the checks built and every stage result, before and after.
    """
    entries: list[CheckResult] = []

    structural = _check_structure(d)
    entries.append(structural)
    if not structural.ok:
        return ValidationReport(tuple(entries), None)

    verts = d.index.vertices

    entries.append(
        CheckResult(
            "edge-pairing",
            True,
            "info",
            ("edges are stored as adjoint pairs; the reverse orientation is implied",),
        )
    )

    # First-order condition: every edge runs horizontally or vertically.
    # The structure check passed, so every edge is known, in d.edges order.
    diagonal = [
        f"edge {edge.id} connects ({edge.source}) and ({edge.target})"
        for edge, _s, _t, part in d.index.known_edges
        if part is None
    ]
    entries.append(
        CheckResult("first-order", not diagonal, "error", tuple(diagonal))
    )

    # Involution: resolve, then check the rep swap.
    mapping: dict[str, str] | None = None
    try:
        mapping = resolve_jmap(d)
    except ValueError as exc:
        entries.append(CheckResult("j-involution", False, "error", (str(exc),)))
    if mapping is not None:
        swap_bad = []
        for vid, wid in mapping.items():
            v, w = verts[vid], verts[wid]
            if w.col != v.row or w.row != v.col:
                swap_bad.append(f"j({vid}) = {wid} does not swap column and row labels")
        entries.append(CheckResult("j-involution", not swap_bad, "error", tuple(swap_bad)))

        sym_bad = []
        pair_count: dict[tuple[str, str], int] = {}
        for edge in d.edges:
            key = proj_edge(edge.source, edge.target)
            pair_count[key] = pair_count.get(key, 0) + 1
        for (a, b), count in pair_count.items():
            if pair_count.get(proj_edge(mapping[a], mapping[b]), 0) != count:
                sym_bad.append(f"edge multiset not j-symmetric at pair ({a}, {b})")
        entries.append(CheckResult("j-symmetry", not sym_bad, "error", tuple(sym_bad)))

    signs = ko_signs(d.kodim)
    entries.append(_check_grading(d, verts, mapping, signs))

    entries.append(_check_operator_shapes(d))

    if d.kodim % 8 in (2, 3, 4, 5):
        entries.append(
            CheckResult(
                "ko-subtlety",
                False,
                "warning",
                (
                    f"KO-dimension {d.kodim} uses the plain involution semantics; "
                    "the doubled-vertex refinement is not modeled",
                ),
            )
        )

    report = ValidationReport(tuple(entries), None)
    if not report.ok:  # a jmap that does not resolve is an error entry
        return report
    resolved = KrajewskiDiagram(
        d.algebra, d.kodim, d.vertices, d.edges, _normalized_jmap(mapping.items()), d.families
    )
    object.__setattr__(resolved, "_index", d.index)
    return report._replace(diagram=resolved)


def _check_structure(d: KrajewskiDiagram) -> CheckResult:
    problems: list[str] = []
    if not 0 <= d.kodim <= 7:
        problems.append(f"KO-dimension {d.kodim} outside 0..7")
    if d.families < 1:
        problems.append(f"families must be positive, got {d.families}")
    # every (factor index, conjugate) a label may be; check_against words
    # the error of any other
    factors = d.algebra.factors
    valid = {(i, False) for i in range(len(factors))}
    valid.update((i, True) for i, f in enumerate(factors) if f.kind is FactorKind.COMPLEX)
    seen_v: set[str] = set()
    for v in d.vertices:
        if v.id in seen_v:
            problems.append(f"duplicate vertex id {v.id}")
        seen_v.add(v.id)
        for label in (v.col, v.row):
            if label not in valid:
                try:
                    label.check_against(d.algebra)
                except ValueError as exc:
                    problems.append(f"vertex {v.id}: {exc}")
        if v.sign not in (None, 1, -1):
            problems.append(f"vertex {v.id}: sign must be +1 or -1")
    seen_e: set[str] = set()
    for edge in d.edges:
        if edge.id in seen_e:
            problems.append(f"duplicate edge id {edge.id}")
        seen_e.add(edge.id)
        for endpoint in (edge.source, edge.target):
            if endpoint not in seen_v:
                problems.append(f"edge {edge.id} references unknown vertex {endpoint}")
        if isinstance(edge.operator, NumericOperator):
            if not edge.operator.matrix or not edge.operator.matrix[0]:
                problems.append(f"edge {edge.id}: empty matrix")
            elif not edge.operator.is_rectangular():
                problems.append(f"edge {edge.id}: ragged matrix rows")
            elif edge.operator.is_zero():
                problems.append(f"edge {edge.id}: operator matrix is zero")
    return CheckResult("structure", not problems, "error", tuple(problems))


def _check_grading(
    d: KrajewskiDiagram,
    verts: dict[str, DiagramVertex],
    mapping: dict[str, str] | None,
    signs: KOSigns,
) -> CheckResult:
    if not signs.even:
        stray = [v.id for v in d.vertices if v.sign is not None]
        if stray:
            return CheckResult(
                "grading",
                False,
                "warning",
                (f"odd KO-dimension ignores signs on: {', '.join(sorted(stray))}",),
            )
        return CheckResult("grading", True, "info", ("odd KO-dimension: no grading",))
    problems = []
    for v in d.vertices:
        if v.sign is None:
            problems.append(f"vertex {v.id} lacks a sign (even KO-dimension)")
    if not problems:
        for edge in d.edges:
            if verts[edge.source].sign == verts[edge.target].sign:
                problems.append(
                    f"edge {edge.id} connects vertices of equal sign "
                    f"({edge.source}, {edge.target})"
                )
        if mapping is not None:
            assert signs.eps_double_prime is not None
            for vid, wid in mapping.items():
                expected = signs.eps_double_prime * verts[vid].sign  # type: ignore[operator]
                if verts[wid].sign != expected:
                    problems.append(
                        f"sign of j({vid}) = {wid} should be {expected:+d}"
                    )
    return CheckResult("grading", not problems, "error", tuple(problems))


def _check_operator_shapes(d: KrajewskiDiagram) -> CheckResult:
    problems = []
    for edge, s, t, part in d.index.known_edges:
        if part is None or not isinstance(edge.operator, NumericOperator):
            continue  # a diagonal edge is reported by the first-order check
        if part is _J_DELTA_J:
            expected = (t.row.dimension(d.algebra), s.row.dimension(d.algebra))
        else:
            expected = (t.col.dimension(d.algebra), s.col.dimension(d.algebra))
        if edge.operator.shape != expected:
            problems.append(
                f"edge {edge.id}: matrix shape {edge.operator.shape} "
                f"does not match {expected} (target-dim × source-dim)"
            )
    # the multiplets of a projected edge span either labels or matrices; only
    # a diagram with both kinds of operator needs the horizontal edge table
    if len({isinstance(e.operator, SymbolicOperator) for e in d.edges}) > 1:
        for over in d.index.horizontal.values():
            if len({isinstance(e.operator, SymbolicOperator) for e, _ in over}) > 1:
                problems.append(
                    f"edges {', '.join(e.id for e, _ in over)}: "
                    "mixed symbolic and numeric operators over one projected edge"
                )
    return CheckResult("operator-shape", not problems, "error", tuple(problems))


# ---------------------------------------------------------------------------
# Derived quantities


def hilbert_dimension(d: KrajewskiDiagram) -> int:
    """families × Σ_v dim(col v) · dim(row v)."""
    total = sum(
        v.col.dimension(d.algebra) * v.row.dimension(d.algebra) for v in d.vertices
    )
    return d.families * total


def fundamental_multiplicities(d: KrajewskiDiagram) -> tuple[int, ...]:
    """Per factor: how often its fundamental acts on the Hilbert space.

    A vertex whose column label lies over factor i (conjugate or not)
    contributes dim(row) copies of that factor's fundamental, all scaled by
    the global family multiplicity.
    """
    counts = [0] * len(d.algebra.factors)
    for v in d.vertices:
        counts[v.col.factor_index] += v.row.dimension(d.algebra)
    return tuple(d.families * c for c in counts)


def _operator_key(op: OperatorSpec):
    if isinstance(op, SymbolicOperator):
        return ("label", op.label)
    return (
        "matrix",
        tuple(
            tuple(
                (e.re.numerator, e.re.denominator, e.im.numerator, e.im.denominator)
                for e in row
            )
            for row in op.matrix
        ),
    )


def structural_key(d: KrajewskiDiagram):
    """A hashable key for structural equality, independent of list order.

    The jmap is resolved first when possible so that diagrams differing only
    in explicit-versus-inferred involutions compare equal.
    """
    return (
        tuple((f.size, f.kind.value) for f in d.algebra.factors),
        d.kodim % 8,
        d.families,
        tuple(
            sorted(
                (v.id, v.col.factor_index, v.col.conjugate, v.row.factor_index,
                 v.row.conjugate, v.sign)
                for v in d.vertices
            )
        ),
        tuple(
            sorted(
                (e.id, e.source, e.target, _operator_key(e.operator))
                for e in d.edges
            )
        ),
        jmap_pairs(d),
    )
