"""Spans around calls into kra's public functions, recorded from outside.

``install`` rebinds each target function at every import site inside the
``kra`` package (``from .graphs import lift_cycle`` copies the name into
``kra.rconnect``, so patching ``kra.graphs`` alone would miss that call),
and ``uninstall`` puts the originals back.  ``src/kra`` itself is not
changed.

Each call records a span (name, start, end, parent span, op id) in memory;
``dump`` writes them out at the end.  Per op group the tracer also sums
calls, inclusive time, self time (inclusive time minus the time covered by
traced children) and hits, so per-layer metrics come from the same
boundaries as the spans.  Hot leaf calls (``KrajewskiDiagram.vertex``) are
only summed: they run millions of times on the larger inputs.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

#: (module, attribute, layer name, hit predicate or None, keep spans)
TARGETS = (
    ("kra.dsl", "parse", "dsl.parse", None, True),
    ("kra.dsl", "serialize", "dsl.serialize", None, True),
    ("kra.exactlin", "span_rank", "exactlin.span_rank", None, True),
    ("kra.diagram", "validate", "diagram.validate", None, True),
    ("kra.diagram", "KrajewskiDiagram.vertex", "diagram.vertex", None, False),
    ("kra.algebra", "gauge_lie_algebra", "algebra.gauge_lie_algebra", None, True),
    ("kra.graphs", "project", "graphs.project", None, True),
    ("kra.graphs", "enumerate_cycles", "graphs.enumerate_cycles", None, True),
    ("kra.graphs", "lift_cycle", "graphs.lift_cycle", lambda r: r is not None, True),
    ("kra.graphs", "lift_pair", "graphs.lift_pair", lambda r: r is not None, True),
    ("kra.rconnect", "exemption_check", "rconnect.exemption_check", lambda r: r.exempt, True),
    ("kra.rconnect", "check_r_connected", "rconnect.check_r_connected", None, True),
    ("kra.invariants", "enumerate_fields", "invariants.enumerate_fields", None, True),
    ("kra.invariants", "action_terms", "invariants.action_terms", None, True),
    ("kra.invariants", "required_counterterms", "invariants.required_counterterms", None, True),
    ("kra.invariants", "counterterm_coverage", "invariants.counterterm_coverage", None, True),
    ("kra.powercount", "renorm_verdict", "powercount.renorm_verdict", None, True),
)

CLI_TARGET = ("kra.cli", "main", "cli.main", None, True)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.groups: dict[str, dict[str, list]] = {}
        self.ops: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._op_id: int | None = None
        self._stats: dict[str, list] = {}
        self._patched: list[tuple] = []

    # -- op boundaries ---------------------------------------------------

    def begin_op(self, op_id: int, group: str) -> None:
        self._op_id = op_id
        self._stats = self.groups.setdefault(group, {})
        self.ops[group] = self.ops.get(group, 0) + 1

    def end_op(self) -> None:
        self._op_id = None

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn, hit=None, keep: bool = True):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stat = self._stats.get(name)
                if stat is None:
                    stat = self._stats[name] = [0, 0.0, 0.0, 0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if keep:
                    spans.append(
                        (name, start, end, parent[0] if parent else None, self._op_id)
                    )
            if hit is not None and hit(result):
                stat[3] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Rebind every target at each kra module that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "kra" or n.startswith("kra.")]
        for module_name, attr, name, hit, keep in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(name, original, hit, keep))
                self._patched.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hit, keep)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps([name, start, end, parent, op_id]) + "\n")


def merge(into: dict[str, list], stats: dict[str, list]) -> None:
    for name, (calls, total, self_time, hits) in stats.items():
        acc = into.setdefault(name, [0, 0.0, 0.0, 0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_time
        acc[3] += hits


def layer_metrics(stats: dict[str, list], ops: int) -> dict[str, float]:
    """Per-op figures for every traced layer: ms, self_ms, calls, hit_share."""
    out: dict[str, float] = {}
    for name, (calls, total, self_time, hits) in sorted(stats.items()):
        out[f"{name}.ms"] = 1000.0 * total / ops
        out[f"{name}.self_ms"] = 1000.0 * self_time / ops
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.hit_share"] = hits / calls if calls else 0.0
    return out
