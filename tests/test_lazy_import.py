"""What each subcommand executes, by module, in a fresh interpreter.

``import kra`` registers every submodule through ``importlib.util.LazyLoader``,
so a submodule's body runs at the first read of one of its attributes.  Each
case runs in its own interpreter, because in this process other tests have
executed every module already.  A submodule counts as executed when its type
is plain ``types.ModuleType``: any attribute read on a lazy module would
execute it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = (
    "algebra", "builtins", "diagram", "dsl", "exactlin",
    "graphs", "invariants", "powercount", "rconnect",
)
ANALYSIS = frozenset({"graphs", "rconnect", "invariants", "powercount"})

_PROBE = f"""
import contextlib, io, sys, types
import kra.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = kra.cli.main(sys.argv[1:])
    assert code == 0, code
print(*[n for n in {SUBMODULES!r} if type(sys.modules["kra." + n]) is types.ModuleType])
print("json" in sys.modules)
"""


def _env(**extra: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **extra)


def _fresh(*argv: str, probe: str = _PROBE) -> tuple[set[str], bool]:
    """(submodules executed, json imported) after ``probe`` imports the cli
    (``import kra.cli`` by default) and, with argv, calls ``main(argv)``, in
    a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    executed, json_loaded = proc.stdout.splitlines()
    return set(executed.split()), json_loaded == "True"


def test_importing_the_cli_executes_no_submodule():
    assert _fresh() == (set(), False)


def test_importing_the_cli_from_the_package_executes_no_submodule():
    # ``from kra import cli`` asks the package for ``cli`` before it imports it
    probe = _PROBE.replace("import kra.cli", "from kra import cli", 1)
    assert _fresh(probe=probe) == (set(), False)


def test_asking_the_package_for_an_unknown_name_executes_no_submodule():
    probe = _PROBE.replace("import kra.cli", "import kra\nassert not hasattr(kra, 'foo')", 1)
    assert _fresh(probe=probe) == (set(), False)


ONLY_POWERCOUNT = ("powercount", set(SUBMODULES) - {"powercount"})

#: argv -> (a submodule it must execute, submodules it must not execute)
TEXT_RUNS = {
    ("validate", "--builtin", "sm"): ("diagram", ANALYSIS | {"dsl"}),
    ("gauge-algebra", "--builtin", "sm"): ("algebra", ANALYSIS | {"dsl"}),
    ("builtins",): ("builtins", ANALYSIS | {"dsl"}),
    ("fmt", "bench/fixtures/chain.kra"): ("dsl", ANALYSIS),
    ("counterterms", "--builtin", "sm"): ("invariants", {"dsl"}),
    ("check-rconnect", "--builtin", "chain"): ("rconnect", {"dsl", "invariants"}),
    ("verdict", "--builtin", "sm"): ("powercount", {"dsl"}),
    # chain is not R-connected, so its verdict reads no coverage
    ("verdict", "--builtin", "chain"): ("powercount", {"dsl", "invariants"}),
    # these read integers, and a profile's JSON, but need no other module
    ("powercount",): ONLY_POWERCOUNT,
    ("powercount", "-n", "8"): ONLY_POWERCOUNT,
    ("powercount", "-n", "8", "--profile", '{"L":1,"V":{"3,0":2},"E_A":2}'): ONLY_POWERCOUNT,
}


@pytest.mark.parametrize("argv", list(TEXT_RUNS), ids=" ".join)
def test_a_text_run_executes_only_the_modules_it_calls(argv):
    needed, skipped = TEXT_RUNS[argv]
    executed, json_loaded = _fresh(*argv)
    assert needed in executed
    assert not executed & skipped
    assert json_loaded == ("--profile" in argv)  # a profile is JSON


def test_a_json_run_imports_json():
    executed, json_loaded = _fresh("validate", "--json", "--builtin", "sm")
    assert json_loaded and not executed & ANALYSIS


def test_the_traced_child_finds_every_target_after_a_lazy_import():
    argv = ["verdict", "--builtin", "sm"]
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "trace.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "cli_child.py"), *argv],
            cwd=ROOT, env=_env(KRA_BENCH_TRACE_OUT=str(report_path)),
            capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        report = json.loads(report_path.read_text(encoding="utf-8"))
    expected = ROOT / "bench" / "expected" / "cli" / "verdict.sm.text.out"
    assert proc.stdout == expected.read_bytes()
    assert {"rconnect.check_r_connected", "powercount.renorm_verdict"} <= set(report["stats"])
