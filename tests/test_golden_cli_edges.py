"""Golden CLI outputs for the paths the benchmark's 112 commands skip.

``golden_cli_edges.json`` holds, per case, the argv, exit code, stdout and
stderr of ``kra`` as captured before the CLI rendered its text from the JSON
result: profiles under ``powercount -n 6``, other R-connectedness bounds,
the order-8 vacuum note, ``validate`` on an invalid diagram and on one with a
KO warning, ``--strict`` exits, refusals of invalid diagrams, and the
load errors.  Each case is run in-process from the repository root, so the
relative fixture paths in the argv and in the output resolve.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kra.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((ROOT / "tests" / "golden_cli_edges.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, monkeypatch):
    case = CASES[name]
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(case["argv"])
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    assert err.getvalue() == case["stderr"]
