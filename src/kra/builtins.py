"""Built-in example diagrams.

Three families ship with the package:

* ``ym`` (parametrized by N): M_N(C) acting on itself — a single vertex
  (N, N°), no edges, vanishing Dirac operator.
* ``sm``: the Standard Model diagram over C ⊕ H ⊕ M₃(C) in KO-dimension 6
  with three families: twelve vertices (the doubled column/row 1 accounting
  for the right-handed neutrino sector), four Yukawa edge pairs per chirality
  sector, and the dashed Majorana edge joining the two (1, 1°) vertices.
* ``chain``: the standard non-R-connected counterexample — a path of
  horizontal edges along row 1° through columns 1, 2, 1̄, 3, together with
  its mirrored vertical path down column 1.
"""

from __future__ import annotations

from . import _SUBMODULES, _decimal_int
from .algebra import AlgebraFactor, FactorKind, FiniteAlgebra, RepLabel
from .diagram import DiagramVertex, EdgePair, KrajewskiDiagram, SymbolicOperator

__all__ = list(_SUBMODULES["builtins"])

BUILTIN_SUMMARIES: dict[str, str] = {
    "ym": "pure Yang-Mills: M_N(C) on C^N x C^N*, no edges (use ym:N, e.g. ym:3)",
    "sm": "Standard Model: C + H + M3(C), KO-dimension 6, 3 families, 12 vertices",
    "chain": "non-R-connected counterexample: path 1 - 2 - 1~ - 3 and its mirror",
}


def builtin(name: str, param: int | None = None) -> KrajewskiDiagram:
    """Return a builtin diagram by name ("ym" needs its size parameter)."""
    if name.startswith("ym:") and param is None:
        try:
            param = _decimal_int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad ym size in {name!r}") from None
        name = "ym"
    if name == "ym":
        if param is None or param < 1:
            raise ValueError("builtin 'ym' needs a positive size, e.g. ym:3")
        return _yang_mills(param)
    if param is not None:
        raise ValueError(f"builtin {name!r} takes no parameter")
    if name == "sm":
        return _standard_model()
    if name == "chain":
        return _chain()
    raise ValueError(f"unknown builtin {name!r} (available: ym:N, sm, chain)")


def _yang_mills(n: int) -> KrajewskiDiagram:
    algebra = FiniteAlgebra((AlgebraFactor(n, FactorKind.COMPLEX),))
    rep = RepLabel(0)
    return KrajewskiDiagram(
        algebra=algebra,
        kodim=0,
        vertices=(DiagramVertex("v", rep, rep, sign=1),),
        edges=(),
        jmap=(("v", "v"),),
        families=1,
    )


# C ⊕ H ⊕ M₃(C), the algebra of sm and chain, and its labels 1, 1̄, 2 and 3
_SM_ALGEBRA = FiniteAlgebra.of(
    (1, FactorKind.COMPLEX), (1, FactorKind.QUATERNION), (3, FactorKind.COMPLEX)
)
_SM_LABELS = (RepLabel(0), RepLabel(0, conjugate=True), RepLabel(1), RepLabel(2))


def _standard_model() -> KrajewskiDiagram:
    c1, c1b, h2, c3 = _SM_LABELS

    vertices = (
        # Left-handed doublets and right-handed singlets (columns act).
        DiagramVertex("lL", h2, c1, sign=-1),
        DiagramVertex("nR", c1, c1, sign=1),
        DiagramVertex("eR", c1b, c1, sign=1),
        DiagramVertex("qL", h2, c3, sign=-1),
        DiagramVertex("uR", c1, c3, sign=1),
        DiagramVertex("dR", c1b, c3, sign=1),
        # Mirror (contragredient) copies below the diagonal.
        DiagramVertex("lLc", c1, h2, sign=1),
        DiagramVertex("nRc", c1, c1, sign=-1),
        DiagramVertex("eRc", c1, c1b, sign=-1),
        DiagramVertex("qLc", c3, h2, sign=1),
        DiagramVertex("uRc", c3, c1, sign=-1),
        DiagramVertex("dRc", c3, c1b, sign=-1),
    )
    edges = (
        EdgePair("yn", "lL", "nR", SymbolicOperator("Yn")),
        EdgePair("ye", "lL", "eR", SymbolicOperator("Ye")),
        EdgePair("yu", "qL", "uR", SymbolicOperator("Yu")),
        EdgePair("yd", "qL", "dR", SymbolicOperator("Yd")),
        EdgePair("ynm", "lLc", "nRc", SymbolicOperator("Yn")),
        EdgePair("yem", "lLc", "eRc", SymbolicOperator("Ye")),
        EdgePair("yum", "qLc", "uRc", SymbolicOperator("Yu")),
        EdgePair("ydm", "qLc", "dRc", SymbolicOperator("Yd")),
        # The dashed Majorana line joining the two (1, 1°) vertices.
        EdgePair("yr", "nR", "nRc", SymbolicOperator("Yr")),
    )
    jmap = (
        ("lL", "lLc"),
        ("nR", "nRc"),
        ("eR", "eRc"),
        ("qL", "qLc"),
        ("uR", "uRc"),
        ("dR", "dRc"),
    )
    return KrajewskiDiagram(
        algebra=_SM_ALGEBRA,
        kodim=6,
        vertices=vertices,
        edges=edges,
        jmap=jmap,
        families=3,
    )


def _chain() -> KrajewskiDiagram:
    c1, c1b, h2, c3 = _SM_LABELS

    vertices = (
        # Along row 1°: columns 1, 2, 1̄, 3.
        DiagramVertex("a1", c1, c1, sign=1),
        DiagramVertex("a2", h2, c1, sign=-1),
        DiagramVertex("a3", c1b, c1, sign=1),
        DiagramVertex("a4", c3, c1, sign=-1),
        # Down column 1: rows 2°, 1̄°, 3° (mirrors of a2, a3, a4).
        DiagramVertex("b2", c1, h2, sign=-1),
        DiagramVertex("b3", c1, c1b, sign=1),
        DiagramVertex("b4", c1, c3, sign=-1),
    )
    edges = (
        EdgePair("h1", "a1", "a2", SymbolicOperator("a")),
        EdgePair("h2", "a2", "a3", SymbolicOperator("b")),
        EdgePair("h3", "a3", "a4", SymbolicOperator("c")),
        EdgePair("v1", "a1", "b2", SymbolicOperator("a")),
        EdgePair("v2", "b2", "b3", SymbolicOperator("b")),
        EdgePair("v3", "b3", "b4", SymbolicOperator("c")),
    )
    jmap = (("a1", "a1"), ("a2", "b2"), ("a3", "b3"), ("a4", "b4"))
    return KrajewskiDiagram(
        algebra=_SM_ALGEBRA,
        kodim=0,
        vertices=vertices,
        edges=edges,
        jmap=jmap,
        families=1,
    )
