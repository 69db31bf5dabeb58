"""The benchmark's tracer still sees every stage a CLI subcommand runs.

``bench/tracer.py`` rebinds kra's public functions at every module that holds
them, ``kra.cli`` included.  The CLI must therefore look its stages up at
call time; a table holding the function objects themselves would hide them
from the traced benchmark.  Each input subcommand runs once on ``sm`` and
``chain`` under the tracer, and the per-stage call counts are pinned:
``diagram.validate`` runs once per command, and every command that reads the
table of cycle-pair exemptions (``counterterms``, ``coverage``,
``check-rconnect``, ``verdict``) decides each pair of 2-cycles once, so
``rconnect.exemption_check`` counts the pairs that share a label (a pair
with none is not exempt, with no call).  ``diagram.vertex`` is left
out: it is a leaf lookup, not a stage, and the text rendering does not call
it.
"""

from __future__ import annotations

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import kra.cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_COMMON = {"cli.main": 1, "diagram.validate": 1}
_RCONNECT = {"graphs.enumerate_cycles": 1, "graphs.project": 1,
             "rconnect.check_r_connected": 1}
_RCONNECT_SM = {**_RCONNECT, "graphs.lift_cycle": 2, "rconnect.exemption_check": 3}
_RCONNECT_CHAIN = {**_RCONNECT, "graphs.lift_cycle": 3, "graphs.lift_pair": 2,
                   "rconnect.exemption_check": 5}
_COUNTERTERMS = {"algebra.gauge_lie_algebra": 1, "graphs.enumerate_cycles": 1,
                 "graphs.project": 2, "invariants.required_counterterms": 1}
_COVERAGE = {"algebra.gauge_lie_algebra": 1, "graphs.enumerate_cycles": 1,
             "graphs.project": 2, "invariants.action_terms": 1,
             "invariants.counterterm_coverage": 1, "invariants.required_counterterms": 1}

#: (command, builtin) -> traced calls per layer, diagram.vertex left out
EXPECTED = {
    ("validate", "sm"): {},
    ("validate", "chain"): {},
    ("gauge-algebra", "sm"): {"algebra.gauge_lie_algebra": 1},
    ("gauge-algebra", "chain"): {"algebra.gauge_lie_algebra": 1},
    ("fields", "sm"): {"graphs.project": 1, "invariants.enumerate_fields": 1},
    ("fields", "chain"): {"graphs.project": 1, "invariants.enumerate_fields": 1},
    ("action-terms", "sm"): {"algebra.gauge_lie_algebra": 1, "graphs.project": 1,
                             "invariants.action_terms": 1},
    ("action-terms", "chain"): {"algebra.gauge_lie_algebra": 1, "graphs.project": 1,
                                "invariants.action_terms": 1},
    ("counterterms", "sm"): {**_COUNTERTERMS, "rconnect.exemption_check": 3},
    ("counterterms", "chain"): {**_COUNTERTERMS, "rconnect.exemption_check": 5},
    ("coverage", "sm"): {**_COVERAGE, "rconnect.exemption_check": 3},
    ("coverage", "chain"): {**_COVERAGE, "rconnect.exemption_check": 5},
    ("check-rconnect", "sm"): _RCONNECT_SM,
    ("check-rconnect", "chain"): _RCONNECT_CHAIN,
    ("verdict", "sm"): {**_RCONNECT_SM, "powercount.renorm_verdict": 1},
    ("verdict", "chain"): {**_RCONNECT_CHAIN, "powercount.renorm_verdict": 1},
    ("fmt", "sm"): {"dsl.serialize": 1},
    ("fmt", "chain"): {"dsl.serialize": 1},
}


@pytest.mark.parametrize("command, name", sorted(EXPECTED))
def test_traced_stage_counts(command, name):
    tracer = _tracer()
    t = tracer.Tracer()
    t.install(tracer.TARGETS + (tracer.CLI_TARGET,))
    t.begin_op(0, "cli")
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = kra.cli.main([command, "--builtin", name])
    finally:
        t.end_op()
        t.uninstall()
    assert code == 0
    counts = {k: v[0] for k, v in t.groups["cli"].items() if k != "diagram.vertex"}
    assert counts == {**_COMMON, **EXPECTED[(command, name)]}
