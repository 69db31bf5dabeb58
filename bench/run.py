"""The kra benchmark: end-to-end and per-layer figures for four workloads.

Usage, from the root of a checkout:

    python3 bench/run.py [--workload cli|corpus|grid|path|all] [--seed N]
                         [--seconds S] [--trace 0|1]

``--workload all`` (the default) runs every workload in a process of its own
and prints each one's figures.  A single workload prints its metrics with
their units, then one JSON line with the full record (environment, set-up
times, the status of every op, frontier statuses, per-rung figures), then
the result line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; ``--trace 1`` replays a fixed, seeded op list untraced and then traced
and reports the per-layer metrics (see tracer.py) and the tracing overhead.

Load comes from one closed-loop client: each op starts when the previous
one ends.  An op of ``cli`` is one ``kra <subcommand>`` process; an op of
the other workloads is the full analysis of one diagram (analysis.py).
Every op's output is checked against a known answer outside the timed
region; a wrong answer or an exception makes the op failed and the run
incorrect.  Ops run in whole rounds, as many as come nearest to
``--seconds`` of timed ops, so every run sees the same mix; an op's latency
is the median over the run's repeats of its input (see end_to_end).  A
traced run replays a fixed number of rounds and ignores ``--seconds``.

The grid and path frontier instances (grid k=4, path n=600) run once per
run after the timed ladder, in a child process under a cap.  They are not
part of the timed ops, ``attempted`` or ``failed``; their status is
recorded and ``ok_share`` counts them, so deciding one raises it.

The machine is shared, unpinned and untuned (no governor, pinning or cache
control): only differences well beyond the run-to-run spread count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("cli", "corpus", "grid", "path")

#: family -> (round of (rung, size), frontier (rung, size)).  The repeats
#: put p50 on k=2 and n=15 and p90 on k=3 and n=20.  The path ladder stops
#: at n=20: an n=30 op takes about 4 s, so a run held four of them and its
#: p90 moved by a sixth from run to run.
LADDERS = {
    "grid": ((("k2", 2), ("k2", 2), ("k3", 3)), (("k4", 4),)),
    "path": ((("n10", 10), ("n15", 15), ("n15", 15), ("n20", 20)), (("n600", 600),)),
}
#: a corpus's latency quantiles depend on its mix of design sizes; with 300
#: designs that mix alone moved p90 by an eighth from seed to seed, with
#: 1200 by a twentieth
CORPUS_DESIGNS = 1200
SETUP_REPEATS = 5
IMPORT_PROBES = 7
OP_CAP_S = 30.0
FRONTIER_CAP_S = 5.0
#: no new round starts after this much wall time, so a run ends within 180 s
WALL_LIMIT_S = 100.0
#: rounds replayed by a traced run; fixed, so every count repeats exactly
TRACE_ROUNDS = {"cli": 1, "corpus": 1, "grid": 3, "path": 1}

MACHINE_NOTE = (
    "shared machine, unpinned and untuned (no governor, pinning or cache "
    "control): only differences well beyond the run-to-run spread count"
)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.interp_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("dsl.parse.ms", "ms"),
    ("dsl.serialize.ms", "ms"),
    ("exactlin.span_rank.calls", "count"),
    ("diagram.validate.ms", "ms"),
    ("diagram.vertex.calls", "count"),
    ("diagram.vertex.ms", "ms"),
    ("graphs.project.calls", "count"),
    ("graphs.enumerate_cycles.calls", "count"),
    ("graphs.enumerate_cycles.ms", "ms"),
    ("graphs.lift_cycle.ms", "ms"),
    ("graphs.lift_cycle.calls", "count"),
    ("graphs.lift_cycle.hit_share", "share"),
    ("graphs.lift_pair.ms", "ms"),
    ("graphs.lift_pair.calls", "count"),
    ("graphs.lift_pair.hit_share", "share"),
    ("rconnect.check_r_connected.calls", "count"),
    ("rconnect.check_r_connected.self_ms", "ms"),
    ("rconnect.exemption_check.calls", "count"),
    ("rconnect.exempt_share", "share"),
    ("invariants.enumerate_fields.ms", "ms"),
    ("invariants.action_terms.ms", "ms"),
    ("invariants.required_counterterms.ms", "ms"),
    ("invariants.counterterm_coverage.self_ms", "ms"),
    ("algebra.gauge_lie_algebra.ms", "ms"),
    ("powercount.renorm_verdict.self_ms", "ms"),
    ("trace.overhead_share", "share"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": MACHINE_NOTE,
    }


# ---------------------------------------------------------------------------
# Statistics


def latency_figures(seconds: list[float]) -> tuple[float, float]:
    """(p50, p90) in ms, or zeros when no op succeeded."""
    if not seconds:
        return 0.0, 0.0
    if len(seconds) == 1:
        return seconds[0] * 1000, seconds[0] * 1000
    p90 = statistics.quantiles(seconds, n=10, method="inclusive")[-1]
    return statistics.median(seconds) * 1000, p90 * 1000


def end_to_end(records, frontier, setup_s, rss_kb) -> dict:
    """An op's latency is the median of its label's repeats in the run:
    every repeat of a label (a rung, a corpus member, a CLI call) does the
    same work on a relabelled copy, so the median drops the bursts in which
    the shared machine runs slower."""
    repeats: dict[str, list[float]] = {}
    for _g, label, dt, status, _raw in records:
        if status == "ok":
            repeats.setdefault(label, []).append(dt)
    medians = {label: statistics.median(times) for label, times in repeats.items()}
    ok = [medians[label] for _g, label, _dt, status, _raw in records if status == "ok"]
    failed_labels = {label for _g, label, _dt, status, _raw in records if status != "ok"}
    labels = {label for _g, label, _dt, _status, _raw in records}
    ok_frontier = sum(1 for f in frontier if f["status"] == "ok" and not f["wrong"])
    p50, p90 = latency_figures(ok)
    values = {
        "ops_per_s": len(ok) / sum(ok) if ok else 0.0,
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "ok_share": (len(labels - failed_labels) + ok_frontier) / (len(labels) + len(frontier)),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measured(records, frontier, setup_s, rss_kb) -> dict:
    """The end-to-end metrics from the measured times, for the record."""
    raw = [(g, label, dt, status, dt) for g, label, _scaled, status, dt in records]
    return end_to_end(raw, frontier, setup_s, rss_kb)


def per_layer(layer: dict, cli: dict, overhead: float) -> dict:
    values = dict(layer)
    values.update(cli)
    values["rconnect.exempt_share"] = layer.get("rconnect.exemption_check.hit_share", 0.0)
    values["trace.overhead_share"] = overhead
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# Library workloads: corpus, grid, path


def library_items(workload: str, seed: int) -> list[tuple]:
    """(group, label, validated base diagram, answer) for one round."""
    import analysis
    import inputs

    if workload == "corpus":
        rows = inputs.corpus(random.Random(seed), CORPUS_DESIGNS)
        return [
            ("corpus", name, d, analysis.FIXED_ANSWERS.get(name) or analysis.Answer(expected))
            for name, d, expected in rows
        ]
    ladder, frontier = LADDERS[workload]
    build = inputs.grid_diagram if workload == "grid" else inputs.path_diagram
    answer = analysis.grid_answer if workload == "grid" else analysis.path_answer
    bases = {size: inputs.validated(build(size)) for _rung, size in ladder + frontier}
    return [(rung, rung, bases[size], answer(size)) for rung, size in ladder]


def run_op(d, answer) -> tuple[str, float]:
    import analysis

    status, value, seconds = analysis.capped(OP_CAP_S, analysis.analyse, d)
    if status == "timeout":
        status = f"timeout in {value}"
    elif status == "ok":
        wrong = analysis.check(value, answer)
        if wrong:
            status = f"wrong: {wrong}"
    return status, seconds


def run_frontier(workload: str, seed: int) -> list[dict]:
    out = []
    for rung, size in LADDERS.get(workload, ((), ()))[1]:
        argv = [sys.executable, str(BENCH / "frontier.py"), workload, str(size), str(seed), str(FRONTIER_CAP_S)]
        try:
            proc = subprocess.run(
                argv,
                cwd=ROOT,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=FRONTIER_CAP_S + 60,
            )
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode == 0 and lines:
                record = json.loads(lines[-1])
            else:
                tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
                record = {"status": f"exit {proc.returncode}", "where": " ".join(tail), "seconds": None, "wrong": None}
        except subprocess.TimeoutExpired:
            record = {"status": "timeout", "where": "killed", "seconds": None, "wrong": None}
        out.append({"rung": rung, "size": size, "cap_s": FRONTIER_CAP_S, **record})
    return out


def timed_rounds(items, rng, seconds, run_one, yard) -> list:
    """Whole rounds of ``items``, as many as come nearest to ``seconds`` of
    timed ops (at least one), in a seeded order per round.  Records are
    (group, label, seconds at reference speed, status, measured seconds)."""
    timed: list[tuple] = []
    busy = 0.0
    rounds = 0
    wall_start = perf_counter()
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            yard.tick()
            start = perf_counter()
            status, dt = run_one(item)
            busy += dt
            timed.append((item, start, dt, status))
        rounds += 1
        if busy + busy / rounds / 2 >= seconds or perf_counter() - wall_start >= WALL_LIMIT_S:
            break
    yard.sample()
    return [(item[0], item[1], dt * yard.scale(start + dt / 2), status, dt)
            for item, start, dt, status in timed]


def timed_setup(build, yard):
    """(build()'s result, median seconds at reference speed, measured
    seconds) over SETUP_REPEATS calls."""
    last = []

    def measure():
        last.clear()
        start = perf_counter()
        last.append(build())
        return perf_counter() - start

    scaled, times = yard.median_scaled(measure, SETUP_REPEATS)
    return last[0], scaled, times


def library_workload(args, import_s: tuple[float, float], yard) -> dict:
    """import_s: the set-up's import time, at reference speed and measured;
    see import_seconds."""
    import inputs
    import tracer

    items, setup_s, setup_times = timed_setup(lambda: library_items(args.workload, args.seed), yard)
    setup_raw = import_s[1] + statistics.median(setup_times)
    setup_s += import_s[0]
    rng = random.Random(args.seed)

    if not args.trace:
        def one(item):
            return run_op(inputs.relabel(item[2], rng), item[3])

        records = timed_rounds(items, rng, args.seconds, one, yard)
        frontier = run_frontier(args.workload, args.seed)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_times_s": setup_times,
            "records": records,
            "frontier": frontier,
            "metrics": end_to_end(records, frontier, setup_s, rss_kb),
            "measured_metrics": measured(records, frontier, setup_raw, rss_kb),
        }

    ops = []
    for _ in range(TRACE_ROUNDS[args.workload]):
        order = list(items)
        rng.shuffle(order)
        ops.extend(order)
    # Each op runs untraced, then traced on a second relabelling, so drift
    # of the shared machine cancels out of the overhead.
    t = tracer.Tracer()
    records, plain_s, traced_s = [], 0.0, 0.0
    for op_id, (group, label, base, answer) in enumerate(ops):
        plain_status, plain_dt = run_op(inputs.relabel(base, rng), answer)
        d = inputs.relabel(base, rng)
        t.install()
        try:
            t.begin_op(op_id, group)
            status, dt = run_op(d, answer)
            t.end_op()
        finally:
            t.uninstall()
        plain_s += plain_dt
        traced_s += dt
        records.append((group, label, dt, status if plain_status == "ok" else plain_status, dt))
    RUN_DIR.mkdir(exist_ok=True)
    t.dump(RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    total: dict = {}
    for stats in t.groups.values():
        tracer.merge(total, stats)
    cli_probe = probe_cli()
    records += cli_probe.pop("records")
    layer = tracer.layer_metrics(total, len(ops))
    return {
        "setup_times_s": setup_times,
        "records": records,
        "layers": layer,
        "ladder_metrics": ladder_metrics(t) if args.workload in LADDERS else {},
        "metrics": per_layer(layer, cli_probe, traced_s / plain_s - 1),
    }


def ladder_metrics(t) -> dict:
    """The graphs.* and rconnect.* per-layer metrics of each ladder rung."""
    import tracer

    out = {}
    for group, stats in sorted(t.groups.items()):
        layer = per_layer(tracer.layer_metrics(stats, t.ops[group]), {}, 0.0)
        for name, metric in layer.items():
            if name.startswith(("graphs.", "rconnect.")):
                out[f"{name}.{group}"] = metric["value"]
    return out


# ---------------------------------------------------------------------------
# The cli workload


def cli_figures(env, import_s: list[float], stats: dict, ops: int) -> dict:
    import cli_workload as cw
    import tracer

    floor = cw.interpreter_floor(env)
    layer = tracer.layer_metrics(stats, ops)
    return {
        "cli.import_ms": 1000 * statistics.fmean(import_s),
        "cli.interp_ms": 1000 * statistics.median(floor),
        "cli.main.self_ms": layer.get("cli.main.self_ms", 0.0),
    }


def cli_op(name, commands, expected, env, report_path=None):
    """(status, seconds, child report): a traced op when report_path is set."""
    import cli_workload as cw

    report = None
    try:
        if report_path is None:
            dt, code, out = cw.run_plain(commands[name], env)
        else:
            dt, code, out, report = cw.run_traced(commands[name], env, report_path)
    except subprocess.TimeoutExpired:
        return "timeout", float(cw.OP_TIMEOUT_S), None
    wrong = cw.mismatch(expected[name], code, out)
    return (f"wrong: {wrong}" if wrong else "ok"), dt, report


def traced_cli_ops(names, commands, expected, env, with_plain: bool) -> dict:
    """Run the named ops through the traced child, each after an untraced
    run when ``with_plain``, so drift of the shared machine cancels out of
    the overhead."""
    import tracer

    RUN_DIR.mkdir(exist_ok=True)
    report_path = RUN_DIR / f"cli-child-{os.getpid()}.json"
    out = {"records": [], "stats": {}, "spans": [], "import_s": [], "plain_s": 0.0, "traced_s": 0.0}
    for op_id, name in enumerate(names):
        if with_plain:
            status, dt, _ = cli_op(name, commands, expected, env)
            out["plain_s"] += dt
        traced_status, dt, report = cli_op(name, commands, expected, env, report_path)
        out["traced_s"] += dt
        status = traced_status if not with_plain or status == "ok" else status
        out["records"].append(("cli", name, dt, status, dt))
        if report:
            tracer.merge(out["stats"], report["stats"])
            out["import_s"].append(report["import_s"])
            out["spans"].extend([*span[:4], op_id] for span in report["spans"])
    return out


def probe_cli() -> dict:
    """cli.* figures for the traced runs of the other workloads."""
    import cli_workload as cw

    env = cw.environment()
    run = traced_cli_ops(cw.PROBE, cw.commands(), cw.load_expected(), env, False)
    return {"records": run["records"], **cli_figures(env, run["import_s"], run["stats"], len(cw.PROBE))}


def cli_setup():
    """Commands and captured outputs, and every cli input validated."""
    import cli_workload as cw
    import inputs
    from kra.builtins import builtin
    from kra.dsl import parse

    commands = cw.commands()
    expected = cw.load_expected()
    if set(expected) != set(commands):
        raise SystemExit("bench: expected/cli does not match the cli op list")
    for _name, args in cw.INPUTS:
        if args[0] == "--builtin":
            inputs.validated(builtin(args[1]))
        else:
            inputs.validated(parse((ROOT / args[0]).read_text(encoding="utf-8")))
    return commands, expected


def cli_workload(args, import_s: tuple[float, float], yard) -> dict:
    """import_s: the set-up's import time, at reference speed and measured;
    see import_seconds."""
    import cli_workload as cw
    import tracer

    (commands, expected), setup_s, setup_times = timed_setup(cli_setup, yard)
    setup_raw = import_s[1] + statistics.median(setup_times)
    setup_s += import_s[0]
    env = cw.environment()
    rng = random.Random(args.seed)
    names = [("cli", name) for name in commands]

    if not args.trace:
        def one(item):
            status, dt, _ = cli_op(item[1], commands, expected, env)
            return status, dt

        records = timed_rounds(names, rng, args.seconds, one, yard)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_times_s": setup_times,
            "records": records,
            "frontier": [],
            "metrics": end_to_end(records, [], setup_s, rss_kb),
            "measured_metrics": measured(records, [], setup_raw, rss_kb),
        }

    order = []
    for _ in range(TRACE_ROUNDS["cli"]):
        round_names = list(commands)
        rng.shuffle(round_names)
        order.extend(round_names)
    run = traced_cli_ops(order, commands, expected, env, True)
    with open(RUN_DIR / f"spans-cli-{args.seed}.jsonl", "w", encoding="utf-8") as out:
        for span in run["spans"]:
            out.write(json.dumps(span) + "\n")
    figures = cli_figures(env, run["import_s"], run["stats"], len(order))
    layer = tracer.layer_metrics(run["stats"], len(order))
    return {
        "setup_times_s": setup_times,
        "records": run["records"],
        "layers": layer,
        "metrics": per_layer(layer, figures, run["traced_s"] / run["plain_s"] - 1),
    }


# ---------------------------------------------------------------------------
# Driver


def run_all(args) -> int:
    """Each workload in its own process; print their figures together."""
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        code = code or (0 if result["correct"] else 1)
    return code


def import_seconds(yard) -> tuple[float, float]:
    """Median time of ``import kra.cli`` in fresh interpreters, at reference
    speed and measured: one import in the workload process is too few
    samples on a shared machine."""
    code = "import time\ns = time.perf_counter()\nimport kra.cli\nprint(time.perf_counter() - s)\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def measure():
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, check=True, timeout=60)
        return float(proc.stdout)

    scaled, times = yard.median_scaled(measure, IMPORT_PROBES)
    return scaled, statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "kra" / "__init__.py").is_file():
        print(f"bench: no kra package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    info = environment(args)
    info["loadavg_before"] = os.getloadavg()
    start = perf_counter()
    import kra.cli  # noqa: F401  (the import is part of set-up)

    in_process_import_s = perf_counter() - start
    yard = yardstick.Yardstick()
    import_s = import_seconds(yard)
    run = cli_workload if args.workload == "cli" else library_workload
    outcome = run(args, import_s, yard)
    info["loadavg_after"] = os.getloadavg()

    records = outcome.pop("records")
    frontier = outcome.get("frontier", [])
    failed = sum(1 for r in records if r[3] != "ok")
    correct = failed == 0 and not any(f["wrong"] for f in frontier)
    metrics = outcome.pop("metrics")
    ok_labels = {label for _g, label, _dt, status, _raw in records if status == "ok"}

    print(f"kra bench: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} ops, {failed} failed, {len(ok_labels)} inputs (rungs, corpus members or cli calls)")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in outcome.get("ladder_metrics", {}).items():
        print(f"  {name:42s} {value:14.6g}")
    for f in frontier:
        where = f" ({f['where']})" if f.get("where") else ""
        print(f"  frontier {f['rung']}: {f['status']}{where}")
    for group, label, _dt, status, _raw in records:
        if status != "ok":
            print(f"  FAILED {group} {label}: {status}")
    record = {
        "environment": info,
        "in_process_import_s": in_process_import_s,
        "samples": {"ok_ops": len(records) - failed, "inputs": len(ok_labels)},
        **outcome,
        "reference_s": {"median": statistics.median(yard.seconds), "min": min(yard.seconds),
                        "max": max(yard.seconds), "samples": len(yard.seconds)},
        "ops": [[g, label, round(dt * 1000, 3), status, round(raw * 1000, 3)]
                for g, label, dt, status, raw in records],
        "metrics": metrics,
    }
    print(json.dumps({"report": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
