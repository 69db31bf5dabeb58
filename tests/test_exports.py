"""``kra.__all__`` is the union of the submodules' ``__all__``, read from
the package's table of which submodule exports each name; and the oracles
take only the data model, the index, the records and the constants from
``kra``."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import kra

SUBMODULES = (
    "algebra", "builtins", "diagram", "dsl", "exactlin",
    "graphs", "invariants", "powercount", "rconnect",
)


def test_all_is_the_union_of_the_submodules():
    modules = [importlib.import_module(f"kra.{name}") for name in SUBMODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union), "a name is exported by two submodules"
    assert len(set(kra.__all__)) == len(kra.__all__), "a name is listed twice"
    assert sorted(kra.__all__) == sorted(["__version__", *union])
    for module in modules:
        for name in module.__all__:
            assert getattr(kra, name) is getattr(module, name), name


def test_the_table_of_exports_matches_each_submodule():
    # the package answers from its table without executing a submodule, so
    # the table must list each submodule's __all__, in order
    table = kra._SUBMODULES
    assert tuple(table) == SUBMODULES
    for name in SUBMODULES:
        assert list(table[name]) == importlib.import_module(f"kra.{name}").__all__, name
    assert kra.__all__ == ["__version__", *(n for name in SUBMODULES for n in table[name])]


def test_long_standing_names_are_still_exported():
    for name in (
        "FieldComponent", "ORDER_EIGHT_VACUUM_NOTE", "NON_MULTIPLICATIVE_NOTE",
        "ORDER_FOUR_NOTE", "IRREP_HYPOTHESIS", "RCONNECT_HYPOTHESIS",
        "QUATERNION_CONJUGATE_PAIR", "SHARED_TRIVIAL_VERTEX", "diagram_cycles",
    ):
        assert name in kra.__all__, name
    assert "builtin_names" not in kra.__all__


def test_dir_lists_every_export_before_any_other_access():
    # in a fresh interpreter: here other tests have already read the exports
    probe = "import kra\nnames = dir(kra)\nprint(set(kra.__all__) <= set(names))"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


#: what an oracle may take from ``kra``: the data model, the diagram index,
#: the records and the constants; every analysis an oracle needs it writes
#: itself or takes from another oracle
ORACLE_IMPORTS = {
    # the data model and the index; edge_part names the Dirac part of an
    # edge from its endpoints' labels, which is how DiracPart is defined
    "kra.algebra": {"AlgebraFactor", "FactorKind", "FiniteAlgebra", "RepLabel"},
    "kra.diagram": {"DiagramVertex", "DiracPart", "EdgePair", "KrajewskiDiagram",
                    "NumericOperator", "SymbolicOperator", "edge_part", "DiagramIndex"},
    "kra.exactlin": {"GaussRational", "Matrix"},
    # the records and the constants
    "kra.dsl": {"ParseError", "SourceSpan"},
    "kra.graphs": {"Cycle", "LiftWitness", "ProjEdge", "ProjectedGraph"},
    "kra.invariants": {"CoverageEntry", "CoverageReport", "InvariantTerm", "TermKind",
                       "TraceSlot"},
    "kra.rconnect": {"CycleLift", "Exemption", "PairLift", "RConnectReport",
                     "QUATERNION_CONJUGATE_PAIR", "SHARED_TRIVIAL_VERTEX"},
}

#: the one analysis of ``kra`` an oracle runs: the exhaustive lift search of
#: oracle_lift takes seconds on grid k = 4 and does not finish on k = 5, so
#: oracle_pairs decides condition 1 with the product's lift_cycle, which
#: test_lift_oracle checks against oracle_lift where it can
ORACLE_EXCEPTIONS = {("oracle_pairs", "kra.graphs", "lift_cycle")}


def oracle_imports_outside_the_allow_list(path: Path) -> list[str]:
    """Each ``import kra…`` statement and each name taken ``from kra…`` that
    neither the allow-list nor the exceptions hold, as text."""
    refused = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            refused += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "kra"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kra":
            refused += [
                f"from {node.module} import {a.name}" for a in node.names
                if a.name not in ORACLE_IMPORTS.get(node.module, ())
                and (path.stem, node.module, a.name) not in ORACLE_EXCEPTIONS
            ]
    return refused


def test_oracles_take_only_the_data_model_records_and_constants_from_kra():
    oracles = sorted(Path(__file__).parent.glob("oracle_*.py"))
    assert len(oracles) == 7
    for path in oracles:
        assert oracle_imports_outside_the_allow_list(path) == [], path.name


def test_the_import_check_refuses_an_analysis(tmp_path):
    bad = tmp_path / "oracle_walks.py"
    bad.write_text("import kra\nfrom kra.invariants import TermKind, action_terms\n"
                   "from kra.graphs import lift_cycle\n", encoding="utf-8")
    assert oracle_imports_outside_the_allow_list(bad) == [
        "import kra", "from kra.invariants import action_terms",
        "from kra.graphs import lift_cycle",
    ]
