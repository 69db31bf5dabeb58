"""One analysis of a diagram runs each stage once.

The op of the benchmark's library workloads (``bench/analysis.py``) is the
full analysis a user asks for: fields, action terms, required terms,
coverage, ``check_r_connected(d, 4)`` and ``renorm_verdict(d, 4)``.  Several
of these read the same stages (Γ̃, the cycle list, both term lists, the
dimension-4 R-connectedness report); the diagram's index keeps each result,
so each stage body runs once however many public calls ask for it, and each
pair of Γ̃-cycles is decided once for the required terms and
R-connectedness.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
import types
import weakref
from collections import Counter
from pathlib import Path

import pytest

from kra import (
    builtin,
    check_r_connected,
    diagram_cycles,
    graphs,
    invariants,
    project,
    rconnect,
)

from conftest import must_validate, path_diagram

ANALYSIS = Path(__file__).resolve().parent.parent / "bench" / "analysis.py"

#: (module, attribute) of each stage body, of the pair lift search and of
#: the decision of one pair's exemption
COUNTED = (
    (graphs, "_project"),
    (graphs, "enumerate_cycles"),
    (invariants, "_gauge_and_edge_terms"),
    (invariants, "_action_terms"),
    (invariants, "_required_counterterms"),
    (rconnect, "_check_r_connected"),
    (rconnect, "lift_pair"),
    (rconnect, "exemption_check"),
)


def _analyse(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_analysis", ANALYSIS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.analyse


def _count_calls(monkeypatch) -> Counter:
    """Count the calls of each COUNTED function, rebound at every kra module
    that holds it, as the benchmark's tracer does."""
    calls: Counter = Counter()
    kra_modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "kra"]
    for module, attr in COUNTED:
        original = getattr(module, attr)

        def counted(*args, _name=attr, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for holder in kra_modules:
            if getattr(holder, attr, None) is original:
                monkeypatch.setattr(holder, attr, counted)
    return calls


@pytest.mark.parametrize(
    "build", [lambda: builtin("sm"), lambda: path_diagram(10)], ids=["sm", "path10"]
)
def test_each_stage_runs_once_per_analysis(build, monkeypatch):
    analyse = _analyse(monkeypatch)
    calls = _count_calls(monkeypatch)
    analyse(must_validate(build()))
    analysis_calls = {attr: calls[attr] for _module, attr in COUNTED}
    calls.clear()
    report = check_r_connected(must_validate(build()), 4)
    one_check = calls["lift_pair"]  # 0 on sm: every pair there is exempt
    pairs = [entry.pair for entry in report.cond2]

    assert analysis_calls == {
        "_project": 1,
        "enumerate_cycles": 1,
        # the F² and edge terms of both lists come from one pass
        "_gauge_and_edge_terms": 1,
        "_action_terms": 1,
        "_required_counterterms": 1,
        "_check_r_connected": 1,
        "lift_pair": one_check,
        # required terms and conditions 2 and 3 read one decision per pair,
        # and only a pair that shares a label is decided by a call: 2n - 1
        # of them on path n
        "exemption_check": sum(not set(c1).isdisjoint(c2) for c1, c2 in pairs),
    }


def test_projection_dies_with_its_diagram():
    """Enumerating cycles leaves no reference cycle that holds Γ̃ alive."""
    d = path_diagram(20)
    gc.collect()
    gc.disable()
    try:
        diagram_cycles(d, 4)
        alive = weakref.ref(project(d))
        del d
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "build", [lambda: builtin("sm"), lambda: path_diagram(10)], ids=["sm", "path10"]
)
def test_full_analysis_leaves_no_kra_function_in_garbage(build, monkeypatch):
    """No kra function is part of a reference cycle once an analysis ends:
    a recursive closure would be one, and would keep what it captured."""
    analyse = _analyse(monkeypatch)
    d = must_validate(build())
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        analyse(d)
        del d
        gc.collect()
        leaked = [
            obj.__qualname__
            for obj in gc.garbage
            if isinstance(obj, types.FunctionType)
            and (obj.__module__ or "").startswith("kra")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


def test_an_analysis_keeps_few_objects_per_pair_of_cycles(monkeypatch):
    """The tracked objects an analysis of path n keeps, per pair of Γ̃-cycles.

    The report lists each of the n(n + 1)/2 pairs of 2-cycles, so what the
    analysis keeps is about a + b·n + c·pairs objects: a per diagram, b per
    edge and c per pair.  The second difference over n = 20, 40, 60 is
    about c·20², free of a and b, which may differ between Python versions;
    c should not, since every object kept per pair is a tuple."""
    analyse = _analyse(monkeypatch)

    def kept(n: int) -> int:
        d = must_validate(path_diagram(n))
        gc.collect()
        before = len(gc.get_objects())
        result = analyse(d)
        gc.collect()
        after = len(gc.get_objects())
        assert len(result.rconnect.cond2) == n * (n + 1) // 2
        return after - before

    kept(2)  # the first analysis in a process also fills one-time caches
    small, middle, large = (kept(n) for n in (20, 40, 60))
    assert (large - 2 * middle + small) / 20**2 <= 5.4
