"""``kra.__all__`` is the union of the submodules' ``__all__``, read from
the package's table of which submodule exports each name."""

from __future__ import annotations

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
