"""One op of the library workloads, its status, and its known-answer checks.

An op is the full analysis of one diagram, everything the CLI subcommands
compute: parse(serialize(d)) → validate → gauge_lie_algebra →
enumerate_fields → action_terms → required_counterterms →
counterterm_coverage → check_r_connected(d, 4) → renorm_verdict(d, 4).

Functions are looked up on their modules at call time, so a traced run sees
the rebound versions.  The checks here run outside the timed region and do
not call into kra: the lift witnesses are re-projected by an independent
verifier that mirrors ``verify_rconnect_report`` in the test suite.
"""

from __future__ import annotations

import signal
import sys
from dataclasses import dataclass
from time import perf_counter

from kra import algebra, diagram, dsl, invariants, powercount, rconnect
from kra.algebra import FactorKind


class OpTimeout(BaseException):
    """Raised inside an op when its cap runs out (a BaseException, so no
    ``except Exception`` in the code under test can swallow it)."""


@dataclass
class Result:
    diagram: object
    coverage: object
    rconnect: object
    verdict: object


def analyse(d) -> Result:
    d = dsl.parse(dsl.serialize(d))
    report = diagram.validate(d)
    if not report.ok or report.diagram is None:
        raise ValueError("diagram failed validation")
    d = report.diagram
    algebra.gauge_lie_algebra(d.algebra)
    invariants.enumerate_fields(d)
    invariants.action_terms(d)
    invariants.required_counterterms(d)
    coverage = invariants.counterterm_coverage(d)
    rc = rconnect.check_r_connected(d, 4)
    verdict = powercount.renorm_verdict(d, 4)
    return Result(d, coverage, rc, verdict)


def _on_alarm(signum, frame):
    raise OpTimeout()


def raising_function(tb) -> str:
    """The public kra functions on the traceback, outermost first, as
    "module.name > module.name"."""
    chain: list[str] = []
    while tb is not None:
        frame = tb.tb_frame
        module_name = frame.f_globals.get("__name__", "")
        if module_name.startswith("kra."):
            code = frame.f_code
            top = getattr(code, "co_qualname", code.co_name).split(".")[0]
            module = sys.modules.get(module_name)
            obj = getattr(module, top, None)
            name = f"{module_name[4:]}.{top}"
            public = top in getattr(module, "__all__", ()) and not isinstance(obj, type)
            if public and callable(obj) and (not chain or chain[-1] != name):
                chain.append(name)
        tb = tb.tb_next
    return " > ".join(chain) or "?"


def capped(cap_s: float, fn, *args):
    """(status, value, seconds): status is "ok", "timeout" or
    "<ExceptionClass> in <module.function>"; the timeout also names where
    it struck in ``value``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    start = perf_counter()
    try:
        value = fn(*args)
        status = "ok"
    except OpTimeout as exc:
        value, status = raising_function(exc.__traceback__), "timeout"
    except Exception as exc:  # every failure of the code under test is recorded
        value, status = None, f"{type(exc).__name__} in {raising_function(exc.__traceback__)}"
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, value, elapsed


# ---------------------------------------------------------------------------
# Independent witness verification


def _reduce(seq) -> tuple:
    out: list = []
    for item in seq:
        if out and out[-1] == item:
            continue
        out.append(item)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def _rotations(seq: tuple) -> set:
    return {seq[r:] + seq[:r] for r in range(len(seq))} or {()}


def _matches(trace: tuple, cycle: tuple) -> bool:
    return trace in _rotations(cycle) or trace in _rotations(tuple(reversed(cycle)))


def _steps(verts: dict, edges: dict, witness):
    """(source, target, kind) per step; kind is "h", "v" or "d0"."""
    n = len(witness.vertices)
    if len(witness.edges) != n:
        raise AssertionError("a closed walk has as many steps as vertices")
    for i, eid in enumerate(witness.edges):
        u, w = witness.vertices[i], witness.vertices[(i + 1) % n]
        e = edges[eid]
        if {e.source, e.target} != {u, w}:
            raise AssertionError(f"edge {eid} does not join {u} and {w}")
        s, t = verts[u], verts[w]
        if s.row == t.row and s.col != t.col:
            kind = "h"
        elif s.col == t.col and s.row != t.row:
            kind = "v"
        elif s.col == t.col and s.row == t.row:
            kind = "d0"
        else:
            raise AssertionError(f"edge {eid} is diagonal")
        yield s, t, kind


def verify_witnesses(d, rc) -> None:
    """Re-project every lift witness of an R-connectedness report."""
    verts = {v.id: v for v in d.vertices}
    edges = {e.id: e for e in d.edges}
    for entry in rc.cond1:
        w = entry.witness
        if w is None:
            continue
        if len(set(w.vertices)) != len(w.vertices):
            raise AssertionError("a cycle lift repeats a vertex")
        cols = _reduce(s.col for s, _t, _k in _steps(verts, edges, w))
        if not _matches(cols, tuple(entry.cycle)):
            raise AssertionError(f"cycle witness projects to {cols}")
    for entry in rc.cond2:
        w = entry.witness
        if w is None:
            continue
        h_trace, v_trace = [], []
        for s, _t, kind in _steps(verts, edges, w):
            if kind == "h":
                h_trace.append(s.col)
            elif kind == "v":
                v_trace.append(s.row)
            else:
                raise AssertionError("pair lifts may not use D0 steps")
        g1, g2 = (tuple(c) for c in entry.pair)
        h, v = tuple(h_trace), tuple(v_trace)
        if not ((_matches(h, g1) and _matches(v, g2)) or (_matches(h, g2) and _matches(v, g1))):
            raise AssertionError("pair witness traces do not reproduce the pair")


# ---------------------------------------------------------------------------
# Known answers


@dataclass(frozen=True)
class Answer:
    """What an op must return; None leaves a field unchecked."""

    rconnected: bool
    verdict: str | None = None
    cycles: int | None = None
    pairs: int | None = None
    missing: int | None = None


def irrep_ok(alg) -> bool:
    """The irreducible-representation hypothesis, restated: no real factor,
    and some complex factor of size > 1 whenever there is a complex one."""
    kinds = [f.kind for f in alg.factors]
    if FactorKind.REAL in kinds:
        return False
    complex_sizes = [f.size for f in alg.factors if f.kind is FactorKind.COMPLEX]
    return not complex_sizes or max(complex_sizes) > 1


def check(result: Result, answer: Answer) -> str | None:
    """None when the op's outputs agree with the known answer, else why not."""
    rc, cov, verdict = result.rconnect, result.coverage, result.verdict
    try:
        verify_witnesses(result.diagram, rc)
    except (AssertionError, KeyError) as exc:
        return f"witness: {exc}"
    if rc.verdict is not answer.rconnected:
        return f"rconnected {rc.verdict}"
    lifts_ok = all(e.ok for e in rc.cond1) and all(e.ok for e in rc.cond2)
    if cov.complete is not lifts_ok:
        return "coverage completeness disagrees with conditions (1) and (2)"
    expected = answer.verdict
    if expected is None:
        ok = answer.rconnected and irrep_ok(result.diagram.algebra)
        expected = "Renormalizable" if ok else "Inconclusive"
    if verdict.verdict != expected or verdict.rconnect.verdict is not rc.verdict:
        return f"verdict {verdict.verdict}"
    if answer.cycles is not None and len(rc.cond1) != answer.cycles:
        return f"{len(rc.cond1)} cycles"
    if answer.pairs is not None and len(rc.cond2) != answer.pairs:
        return f"{len(rc.cond2)} pairs"
    if answer.missing is not None:
        missing_pairs = sum(1 for e in rc.cond2 if not e.ok)
        if missing_pairs != answer.missing or len(cov.missing) != answer.missing:
            return f"{missing_pairs} missing pairs, {len(cov.missing)} missing terms"
    return None


def grid_answer(k: int) -> Answer:
    return Answer(True, "Renormalizable", cycles=k, pairs=k * (k + 1) // 2, missing=0)


def path_answer(n: int) -> Answer:
    pairs = n * (n + 1) // 2
    return Answer(False, "Inconclusive", cycles=n, pairs=pairs, missing=pairs - 1)


#: builtins, fixtures and the square, as the test suite states them
FIXED_ANSWERS = {
    "sm": Answer(True, "Renormalizable"),
    "sm.kra": Answer(True, "Renormalizable"),
    "chain": Answer(False, "Inconclusive"),
    "chain.kra": Answer(False, "Inconclusive"),
    "chain_repaired.kra": Answer(True, "Renormalizable"),
    "ym:2": Answer(True, "Renormalizable", cycles=0, pairs=0, missing=0),
    "ym:3": Answer(True, "Renormalizable", cycles=0, pairs=0, missing=0),
    "ym:5": Answer(True, "Renormalizable", cycles=0, pairs=0, missing=0),
    "square": Answer(True, "Renormalizable", cycles=1, pairs=1, missing=0),
}
