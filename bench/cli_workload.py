"""The ``cli`` workload: ``kra <subcommand>`` as a user runs it.

Each op is one invocation in a fresh interpreter through the console entry
point ``kra.cli:main``, interpreter start included.  Its stdout and exit code
are compared byte for byte with the output captured at the seed commit
(``expected/cli``; ``capture_cli.py`` rewrites it).

A traced op runs ``cli_child.py`` instead, which times ``import kra.cli``,
rebinds the traced kra functions and reports its per-layer sums and spans
in a file, leaving stdout untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected" / "cli"

ENTRY = "import sys\nfrom kra.cli import main\nsys.exit(main())\n"

INPUT_COMMANDS = (
    "validate",
    "gauge-algebra",
    "fields",
    "action-terms",
    "counterterms",
    "coverage",
    "check-rconnect",
    "verdict",
    "fmt",
)
INPUTS = (
    ("sm", ["--builtin", "sm"]),
    ("chain", ["--builtin", "chain"]),
    ("ym3", ["--builtin", "ym:3"]),
    ("sm_kra", ["bench/fixtures/sm.kra"]),
    ("chain_kra", ["bench/fixtures/chain.kra"]),
    ("chain_repaired_kra", ["bench/fixtures/chain_repaired.kra"]),
)
#: a few calls that the traced runs of the other workloads use as a probe
PROBE = ("verdict.sm.text", "fmt.chain_kra.json", "builtins.text")
OP_TIMEOUT_S = 60


def commands() -> dict[str, list[str]]:
    """op name -> argv after ``kra``."""
    out: dict[str, list[str]] = {}
    for fmt, flag in (("text", []), ("json", ["--json"])):
        for command in INPUT_COMMANDS:
            for input_name, args in INPUTS:
                out[f"{command}.{input_name}.{fmt}"] = [command, *flag, *args]
        for command in ("powercount", "builtins"):
            out[f"{command}.{fmt}"] = [command, *flag]
    return out


def environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def load_expected() -> dict[str, tuple[int, bytes]]:
    manifest = json.loads((EXPECTED / "manifest.json").read_text(encoding="utf-8"))
    return {
        name: (entry["exit"], (EXPECTED / f"{name}.out").read_bytes())
        for name, entry in manifest.items()
    }


def run_plain(argv: list[str], env) -> tuple[float, int, bytes]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=OP_TIMEOUT_S,
    )
    return perf_counter() - start, proc.returncode, proc.stdout


def run_traced(argv: list[str], env, report_path: Path) -> tuple[float, int, bytes, dict | None]:
    """Like run_plain, through cli_child.py; also returns the child's report
    (None when the child died before writing it)."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cli_child.py"), *argv],
        cwd=ROOT,
        env=dict(env, KRA_BENCH_TRACE_OUT=str(report_path)),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=OP_TIMEOUT_S,
    )
    elapsed = perf_counter() - start
    report = None
    if report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
    return elapsed, proc.returncode, proc.stdout, report


def interpreter_floor(env, runs: int = 5) -> list[float]:
    """Wall seconds of a bare ``python -c pass``, the floor under every op."""
    out = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        out.append(perf_counter() - start)
    return out


def mismatch(expected: tuple[int, bytes], code: int, stdout: bytes) -> str | None:
    want_code, want_out = expected
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if stdout != want_out:
        return "stdout differs from the captured output"
    return None
