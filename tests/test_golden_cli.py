"""Golden CLI outputs: every ``kra`` command of the benchmark's cli workload,
run in-process, must reproduce the exit code and stdout bytes recorded in
``bench/expected/cli``.

The argv of each entry comes from ``bench/cli_workload.commands()``, the
same table the benchmark runs; this test only reads ``bench/``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from kra.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "bench" / "expected" / "cli"


def _load_cli_workload():
    path = ROOT / "bench" / "cli_workload.py"
    spec = importlib.util.spec_from_file_location("cli_workload", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMMANDS = _load_cli_workload().commands()
MANIFEST = json.loads((EXPECTED / "manifest.json").read_text(encoding="utf-8"))


def test_manifest_covers_the_workload():
    assert sorted(MANIFEST) == sorted(COMMANDS)
    for name, entry in MANIFEST.items():
        assert entry["argv"] == COMMANDS[name], name


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_output_is_byte_identical(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(COMMANDS[name])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == MANIFEST[name]["exit"]
    assert out == (EXPECTED / f"{name}.out").read_bytes()
