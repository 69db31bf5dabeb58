"""Finite noncommutative geometries as decorated graphs.

The package models finite real spectral triples as Krajewski diagrams,
validates their axioms, derives the gauge Lie algebra and scalar field
content, generates the expanded action's trace terms, checks them against
the counterterms gauge invariance demands, decides R-connectedness, and
issues the renormalizability verdict for the asymptotically expanded
action.  A ``.kra`` text format and the ``kra`` command-line tool wrap the
library.

The package exports every name in its submodules' ``__all__``, and each
submodule reads its ``__all__`` from the package's table ``_SUBMODULES``
of which submodule exports each name.  Importing the package executes no
submodule: each is put into ``sys.modules`` and onto the package through
``importlib.util.LazyLoader``, so its body runs at the first read of one
of its attributes, and the exported names are resolved on first use
(PEP 562) through the same table.
"""

from __future__ import annotations

import importlib.util
import sys

__version__ = "0.1.0"

#: each submodule and the names it exports: the one list of exports.  Each
#: submodule's ``__all__`` is read from here, so the package answers for any
#: name without executing a submodule
_SUBMODULES = {
    "algebra": (
        "FactorKind", "AlgebraFactor", "FiniteAlgebra", "RepLabel", "GaugeAlgebraDecomposition",
        "UnimodularityRelation", "gauge_lie_algebra", "simple_factor_dimension",
        "algebra_dimension", "unimodularity_relation", "irrep_correspondence_check",
    ),
    "builtins": ("builtin", "BUILTIN_SUMMARIES"),
    "diagram": (
        "KOSigns", "ko_signs", "DiagramVertex", "SymbolicOperator", "NumericOperator", "EdgePair",
        "KrajewskiDiagram", "DiagramIndex", "DiracPart", "edge_part", "dirac_decomposition",
        "CheckResult", "ValidationReport", "validate", "resolve_jmap", "hilbert_dimension",
        "fundamental_multiplicities", "structural_key",
    ),
    "dsl": ("SourceSpan", "ParseError", "parse", "serialize", "format_entry"),
    "exactlin": ("GaussRational", "Matrix", "matrix_rank", "span_rank"),
    "graphs": (
        "Cycle", "ProjEdge", "ProjectedGraph", "LiftWitness", "proj_edge", "project",
        "canonical_cycle", "cycle_display", "enumerate_cycles", "diagram_cycles", "lift_cycle",
        "lift_pair",
    ),
    "invariants": (
        "TermKind", "TraceSlot", "FieldComponent", "FieldInventory", "InvariantTerm",
        "CoverageReport", "enumerate_fields", "basis_dimension", "action_terms",
        "required_counterterms", "counterterm_coverage", "canonical_block", "structure_display",
    ),
    "powercount": (
        "GraphProfile", "ExpansionOrder", "HeatKernelCoefficients", "Verdict", "expansion_order",
        "validate_profile", "omega_bound", "omega_external", "heat_kernel_coefficients",
        "propagator_uv_degrees", "renorm_verdict", "NON_MULTIPLICATIVE_NOTE", "ORDER_FOUR_NOTE",
        "ORDER_EIGHT_VACUUM_NOTE", "IRREP_HYPOTHESIS", "RCONNECT_HYPOTHESIS",
        "COVERAGE_HYPOTHESIS",
    ),
    "rconnect": (
        "Exemption", "RConnectReport", "exemption_check", "check_r_connected",
        "SHARED_TRIVIAL_VERTEX", "QUATERNION_CONJUGATE_PAIR",
    ),
}

__all__ = ["__version__", *(name for names in _SUBMODULES.values() for name in names)]

for _name in _SUBMODULES:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    globals()[_name] = sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    # a name no submodule exports, such as ``cli`` before ``from kra import
    # cli`` imports it, is refused without executing any submodule
    for module, names in _SUBMODULES.items():
        if name in names:
            globals()[name] = value = getattr(globals()[module], name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _decimal_int(text: str) -> int:
    """The integer that ``text`` writes as an optional minus sign and ASCII
    digits.  ``int`` also reads other Unicode digits, surrounding spaces,
    ``_`` separators and a plus sign; here any text but ``-?[0-9]+`` raises
    ValueError, as does one too long for ``int``.  It reads the integers of
    the command line and of builtin names, so it lives here, where reading
    one executes no submodule."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def __dir__() -> list[str]:
    return list({*globals(), *__all__})
