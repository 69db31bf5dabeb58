"""Command-line driver: load a diagram, run one analysis, print a report.

Every subcommand emits either a human-readable text report or, with
``--json``, a single JSON document with the envelope

    {"command", "input", "result", "warnings", "version"}

and deterministic key order.  Each subcommand computes its ``result`` once;
the text report is rendered from that dict alone, so verdicts and witnesses
are identical across the two formats.  Exit codes: 0 success (negative
verdicts included), 2 unreadable or unparsable input, 3 validation failure,
4 negative verdict under ``--strict``, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import (
    __version__, _decimal_int, algebra, builtins, diagram, dsl, graphs, invariants, powercount,
    rconnect,
)

if TYPE_CHECKING:
    from .diagram import KrajewskiDiagram, ValidationReport
    from .graphs import LiftWitness
    from .invariants import InvariantTerm
    from .powercount import GraphProfile

__all__ = ["main"]


class _CliError(Exception):
    """Raised as ``_CliError(code, message)``; ``main`` prints the message, returns the code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 — argparse hook
        raise _CliError(64, f"{self.prog}: error: {message}")


def _int_arg(text: str) -> int:
    try:
        return _decimal_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _order_arg(text: str) -> int:
    try:
        return powercount.expansion_order(_int_arg(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dim_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError("dimension must be non-negative")
    return value


def _flag(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# JSON pieces shared by several results


def _witness_json(w: LiftWitness | None, d: KrajewskiDiagram) -> dict | None:
    if w is None:
        return None
    labels = [f"{vid}({d.vertex(vid).col.display(d.algebra)})" for vid in w.vertices]
    return {
        "vertices": list(w.vertices),
        "edges": list(w.edges),
        "display": graphs.walk_display(labels),
    }


def _term_json(t: InvariantTerm, d: KrajewskiDiagram) -> dict:
    out = {
        "kind": t.kind.value,
        "structure": invariants.structure_display(t, d.algebra),
        "coefficient": t.coefficient,
        "origin": t.origin,
    }
    if t.gauge_factor is not None:
        out["gauge_factor"] = t.gauge_factor
    return out


# ---------------------------------------------------------------------------
# Subcommands: a result builder and a text renderer that reads only the result.
# Builders call each analysis function through its module at call time, so a
# subcommand executes only the modules it calls (``kra`` registers them lazily)
# and a tracer that rebinds a module's name still sees the call.


def _validate_result(args, d: KrajewskiDiagram, report: ValidationReport) -> dict:
    result = {
        "ok": report.ok,
        "checks": [
            {"check": e.check, "ok": e.ok, "severity": e.severity, "details": list(e.details)}
            for e in report.entries
        ],
    }
    if report.ok:
        result["hilbert_dimension"] = diagram.hilbert_dimension(d)
    return result


def _validate_text(r: dict) -> list[str]:
    marks = {"error": "FAIL", "warning": "warn", "info": "info"}
    lines = []
    for c in r["checks"]:
        detail = f": {'; '.join(c['details'])}" if c["details"] else ""
        lines.append(f"[{'ok' if c['ok'] else marks[c['severity']]}] {c['check']}{detail}")
    lines.append(f"overall: {'PASS' if r['ok'] else 'FAIL'}")
    if "hilbert_dimension" in r:
        lines.append(f"hilbert dimension: {r['hilbert_dimension']}")
    return lines


def _gauge_algebra_result(args, d: KrajewskiDiagram, report) -> dict:
    decomp = algebra.gauge_lie_algebra(d.algebra)
    multiplicities = diagram.fundamental_multiplicities(d)
    relation = algebra.unimodularity_relation(d.algebra, multiplicities)
    return {
        "decomposition": decomp.display(),
        "simple_factors": [
            {"name": f"{series}({k})", "dimension": algebra.simple_factor_dimension(series, k)}
            for series, k in decomp.simple_factors
        ],
        "abelian_rank": decomp.abelian_rank,
        "total_dimension": algebra.algebra_dimension(decomp),
        "fundamental_multiplicities": list(multiplicities),
        "unimodularity": {
            "constraint": [
                {"factor_index": idx, "coefficient": coef}
                for idx, coef in relation.constraint
            ],
            "display": (
                " + ".join(f"{coef}*u[{idx}]" for idx, coef in relation.constraint) + " = 0"
                if relation.constraint
                else "none"
            ),
            "effective_abelian_rank": relation.effective_abelian_rank,
            "degenerate": relation.degenerate,
        },
    }


def _gauge_algebra_text(r: dict) -> list[str]:
    return [
        f"gauge algebra: {r['decomposition']}",
        f"dimension: {r['total_dimension']}",
        f"fundamental multiplicities: {tuple(r['fundamental_multiplicities'])}",
        f"unimodularity constraint: {r['unimodularity']['display']}",
        f"effective abelian rank: {r['unimodularity']['effective_abelian_rank']}",
    ]


def _fields_result(args, d: KrajewskiDiagram, report) -> dict:
    inventory = invariants.enumerate_fields(d)
    return {
        "total_components": inventory.total_components,
        "multiplets": [
            {
                "edge": graphs.edge_display(c.edge, d.algebra),
                "basis_index": c.basis_index,
                "source": c.source_rep.display(d.algebra),
                "target": c.target_rep.display(d.algebra),
            }
            for c in inventory.components
        ],
    }


def _fields_text(r: dict) -> list[str]:
    return [f"independent scalar components: {r['total_components']}"] + [
        f"  phi{c['edge']} p={c['basis_index']} ({c['source']} -> {c['target']})"
        for c in r["multiplets"]
    ]


def _terms_result(terms: tuple[InvariantTerm, ...], d: KrajewskiDiagram) -> dict:
    return {"count": len(terms), "terms": [_term_json(t, d) for t in terms]}


def _terms_text(title: str, r: dict) -> list[str]:
    return [f"{title}: {r['count']}"] + [
        f"  [{t['kind']}] {t['structure']} | {t['coefficient']} | {t['origin']}"
        for t in r["terms"]
    ]


def _coverage_result(args, d: KrajewskiDiagram, report) -> dict:
    coverage = invariants.counterterm_coverage(d)
    entries = [
        {
            "required": _term_json(entry.required, d),
            "matched": None if entry.matched is None else _term_json(entry.matched, d),
        }
        for entry in coverage.entries
    ]
    # each missing term is the required piece of its entry, rendered once
    missing = [entry["required"] for entry in entries if entry["matched"] is None]
    return {
        "complete": coverage.complete,
        "entries": entries,
        "missing": missing,
        "missing_count": len(missing),
    }


def _coverage_text(r: dict) -> list[str]:
    lines = [f"coverage: {'complete' if r['complete'] else 'incomplete'}"]
    for entry in r["entries"]:
        required, matched = entry["required"], entry["matched"]
        if matched is None:
            lines.append(f"  [MISSING] {required['structure']} ({required['origin']})")
        else:
            lines.append(f"  [ok] {required['structure']} <- {matched['origin']}")
    lines.append(f"missing: {r['missing_count']}")
    return lines


def _rconnect_result(args, d: KrajewskiDiagram, report) -> dict:
    rc = rconnect.check_r_connected(d, args.dim, strict_bounds=args.strict_bounds)
    algebra = d.algebra
    # the pairs and tuples are made of the cycles of cond1: one piece per
    # cycle, shared by every entry that names it
    piece = {
        entry.cycle: {
            "vertices": [v.display(algebra) for v in entry.cycle],
            "display": graphs.cycle_display(entry.cycle, algebra),
        }
        for entry in rc.cond1
    }
    return {
        "verdict": rc.verdict,
        "dimension": rc.dimension,
        "strict_bounds": rc.strict_bounds,
        "cond1": [
            {
                "cycle": piece[entry.cycle],
                "lifted": entry.ok,
                "witness": _witness_json(entry.witness, d),
            }
            for entry in rc.cond1
        ],
        "cond2": [
            {
                "pair": [piece[c] for c in entry.pair],
                "status": entry.status,
                "exemption": {
                    "clause": entry.exemption.clause,
                    "vertex": entry.exemption.vertex.display(algebra),
                }
                if entry.exemption.exempt
                else None,
                "witness": _witness_json(entry.witness, d),
            }
            for entry in rc.cond2
        ],
        "cond3": [[piece[c] for c in combo] for combo in rc.cond3],
    }


def _rconnect_text(r: dict) -> list[str]:
    lines = [
        f"R-connected in dimension {r['dimension']}: {_flag(r['verdict'])}",
        f"condition 1 (single cycles): {len(r['cond1'])} checked",
    ]
    for entry in r["cond1"]:
        disp = entry["cycle"]["display"]
        if entry["lifted"]:
            lines.append(f"  [ok] {disp} lifted by {entry['witness']['display']}")
        else:
            lines.append(f"  [MISSING] {disp} has no lift")
    lines.append(f"condition 2 (cycle pairs): {len(r['cond2'])} checked")
    for entry in r["cond2"]:
        disp = " + ".join(c["display"] for c in entry["pair"])
        exemption, witness = entry["exemption"], entry["witness"]
        if exemption is not None:
            lines.append(f"  [exempt] {disp}: {exemption['clause']} at {exemption['vertex']}")
        elif witness is not None:
            lines.append(f"  [ok] {disp} lifted by {witness['display']}")
        else:
            lines.append(f"  [MISSING] {disp} has no common lift")
    offending = f"{len(r['cond3'])} offending" if r["cond3"] else "none offending"
    lines.append(f"condition 3 (tuples of 3+): {offending}")
    return lines


def _profile_int(value, what: str) -> int:
    # bool is an int subclass, and int() would truncate a float or parse a string
    if type(value) is not int:
        import json

        raise _CliError(64, f"kra: error: profile {what} is not an integer: {json.dumps(value)}")
    return value


def _parse_profile(text: str) -> GraphProfile:
    import dataclasses
    import json

    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise _CliError(64, f"kra: error: bad profile JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise _CliError(64, "kra: error: profile must be a JSON object")
    valences = raw.get("V") or {}
    if not isinstance(valences, dict):
        raise _CliError(64, "kra: error: profile field V must be an object of 'i,j': count")
    vertices: dict[tuple[int, int], int] = {}
    for key, count in valences.items():
        try:
            i, j = (_decimal_int(part) for part in key.split(","))
        except ValueError:
            raise _CliError(
                64, f"kra: error: bad vertex valence key {key!r} (want 'i,j')"
            ) from None
        vertices[(i, j)] = _profile_int(count, f"vertex count V[{key!r}]")
    counts = {f.name for f in dataclasses.fields(powercount.GraphProfile)} - {"V"}
    fields = {k: _profile_int(v, f"field {k}") for k, v in raw.items() if k in counts}
    unknown = set(raw) - counts - {"V"}
    if unknown:
        raise _CliError(64, f"kra: error: unknown profile fields: {sorted(unknown)}")
    if "L" not in fields:
        raise _CliError(64, "kra: error: profile needs the loop order L")
    try:
        return powercount.GraphProfile(V=vertices, **fields)
    except ValueError as exc:
        raise _CliError(64, f"kra: error: {exc}") from None


def _powercount_result(args, d, report) -> dict:
    n = args.n
    result = {
        "order": n,
        "propagator_degrees": powercount.propagator_uv_degrees(n),
        "heat_kernel": [
            {"k": c.k, "c": str(c.c), "c_prime": str(c.c_prime), "prefactor": c.prefactor}
            for c in (powercount.heat_kernel_coefficients(k) for k in range(0, 3))
        ],
        "profile": None,
    }
    if args.profile:
        profile = _parse_profile(args.profile)
        check = powercount.validate_profile(profile)
        try:
            bound = powercount.omega_bound(profile, n) if check.ok else None
        except ValueError as exc:  # a vertex valence above the order n
            raise _CliError(64, f"kra: error: {exc}") from None
        result["profile"] = {
            "checks": [
                {"name": c.name, "ok": c.ok, "lhs": c.lhs, "rhs": c.rhs} for c in check.checks
            ],
            "consistent": check.ok,
            "omega_bound": bound,
            "omega_external": powercount.omega_external(
                profile.L, profile.E_A, profile.E_chi, profile.E_ghost, n
            ),
        }
    return result


def _powercount_text(r: dict) -> list[str]:
    degrees = r["propagator_degrees"]
    lines = [
        f"expansion order: n = {r['order']}",
        f"propagator UV degrees: gauge {degrees['gauge']}, "
        f"higgs {degrees['higgs']}, ghost {degrees['ghost']}",
        "heat-kernel coefficients (rational part x 1/(8*pi^2)):",
    ]
    lines += [f"  k={c['k']}: c={c['c']}, c'={c['c_prime']}" for c in r["heat_kernel"]]
    profile = r["profile"]
    if profile is not None:
        lines.append(f"profile consistent: {_flag(profile['consistent'])}")
        for c in profile["checks"]:
            mark = "ok" if c["ok"] else "FAIL"
            lines.append(f"  [{mark}] {c['name']}: {c['lhs']} == {c['rhs']}")
        if profile["omega_bound"] is not None:
            lines.append(f"omega bound (profile form): {profile['omega_bound']}")
        lines.append(f"omega bound (external form): {profile['omega_external']}")
    return lines


def _verdict_result(args, d: KrajewskiDiagram, report) -> dict:
    verdict = powercount.renorm_verdict(d, args.n)
    return {
        "verdict": verdict.verdict,
        "headline": verdict.headline,
        "order": verdict.order,
        "failing_hypotheses": list(verdict.failing_hypotheses),
        "notes": list(verdict.notes),
        "irrep_ok": verdict.irrep_ok,
        "irrep_detail": verdict.irrep_detail,
        "r_connected": verdict.rconnect.verdict,
    }


def _verdict_text(r: dict) -> list[str]:
    return [
        f"verdict: {r['headline']}",
        f"order: n = {r['order']}",
        f"R-connected (dimension 4): {_flag(r['r_connected'])}",
        f"irrep correspondence: {'ok' if r['irrep_ok'] else 'FAIL'} ({r['irrep_detail']})",
    ] + [f"note: {note}" for note in r["notes"]]


# ---------------------------------------------------------------------------
# The subcommand table and the one run path


class _Command(NamedTuple):
    help: str
    #: "none": no diagram; "report": validate and report an invalid one (exit
    #: 3); "refuse": refuse an invalid diagram with exit 3 before building
    input: str
    #: (args, diagram, validation report) -> the JSON result
    build: Callable[..., dict]
    #: result -> text lines; None prints result["text"] as it is and the
    #: warnings on stderr, so that stdout stays a .kra file
    render: Callable[[dict], list[str]] | None
    #: result -> True when --strict turns the run into exit 4
    failed: Callable[[dict], bool] | None = None
    #: extra argparse options: (flags, keyword arguments)
    options: tuple = ()


_ORDER_OPTION = (
    ("-n",), {"type": _order_arg, "default": 4, "help": "expansion order (default 4)"}
)

_COMMANDS: dict[str, _Command] = {
    "validate": _Command("check the diagram axioms", "report", _validate_result, _validate_text),
    "gauge-algebra": _Command(
        "gauge Lie algebra, dimension, unimodularity",
        "refuse", _gauge_algebra_result, _gauge_algebra_text,
    ),
    "fields": _Command(
        "independent scalar field components", "refuse", _fields_result, _fields_text
    ),
    "action-terms": _Command(
        "trace terms generated by the expanded action", "refuse",
        lambda args, d, report: _terms_result(invariants.action_terms(d), d),
        partial(_terms_text, "action terms"),
    ),
    "counterterms": _Command(
        "gauge-invariant counterterms the field content demands", "refuse",
        lambda args, d, report: _terms_result(invariants.required_counterterms(d), d),
        partial(_terms_text, "counterterms"),
    ),
    "coverage": _Command(
        "match required counterterms against generated terms", "refuse",
        _coverage_result, _coverage_text, lambda r: not r["complete"],
    ),
    "check-rconnect": _Command(
        "decide R-connectedness in dimension m", "refuse",
        _rconnect_result, _rconnect_text, lambda r: not r["verdict"],
        options=(
            (("--dim",), {"type": _dim_arg, "default": 4, "help": "dimension m (default 4)"}),
            (("--strict-bounds",), {
                "action": "store_true",
                "help": 'use the strict "< m" length bound instead of the inclusive one',
            }),
        ),
    ),
    "powercount": _Command(
        "propagator degrees, heat-kernel coefficients, profiles", "none",
        _powercount_result, _powercount_text,
        lambda r: r["profile"] is not None and not r["profile"]["consistent"],
        options=(
            _ORDER_OPTION,
            (("--profile",), {
                "help": "JSON graph profile to check and bound "
                '(e.g. \'{"L":1,"I_A":2,"V":{"3,0":2},"E_A":2}\')',
            }),
        ),
    ),
    "verdict": _Command(
        "renormalizability verdict for the expanded action", "refuse",
        _verdict_result, _verdict_text, lambda r: r["verdict"] == "Inconclusive",
        options=(_ORDER_OPTION,),
    ),
    "builtins": _Command(
        "list builtin diagrams", "none",
        lambda args, d, report: {
            "builtins": [
                {"name": name, "summary": summary}
                for name, summary in sorted(builtins.BUILTIN_SUMMARIES.items())
            ]
        },
        lambda r: [f"{e['name']}: {e['summary']}" for e in r["builtins"]],
    ),
    "fmt": _Command(
        "canonical serialization of a diagram", "refuse",
        lambda args, d, report: {"text": dsl.serialize(d)}, None,
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="kra", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"kra {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument(
            "--strict", action="store_true", help="exit 4 when the command's verdict is negative"
        )
        if command.input != "none":
            p.add_argument("--builtin", help="builtin diagram name (e.g. sm, chain, ym:3)")
            p.add_argument("--file", help="path to a .kra file")
            p.add_argument("path", nargs="?", help="path to a .kra file")
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
    return parser


def _load_diagram(args) -> tuple[KrajewskiDiagram, dict]:
    sources = [s for s in (args.builtin, args.file, args.path) if s]
    if len(sources) != 1:
        raise _CliError(64, "kra: error: provide exactly one of --builtin, --file, or a file path")
    if args.builtin:
        try:
            return builtins.builtin(args.builtin), {"kind": "builtin", "name": args.builtin}
        except (KeyError, ValueError) as exc:
            raise _CliError(64, f"kra: error: {exc}") from None
    path = args.file or args.path
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _CliError(2, f"kra: cannot read {path}: {reason}") from None
    try:
        return dsl.parse(text), {"kind": "file", "path": path}
    except dsl.ParseError as exc:
        raise _CliError(2, f"{path}:{exc}") from None


def _run(name: str, args) -> int:
    command = _COMMANDS[name]
    d, report, descriptor, code = None, None, {"kind": "none"}, 0
    if command.input != "none":
        d, descriptor = _load_diagram(args)
        report = diagram.validate(d)
        if report.ok:
            d = report.diagram or d
        elif command.input == "refuse":
            raise _CliError(3, "validation failed\n" + "\n".join(
                f"  {entry.check}: {'; '.join(entry.details) or 'failed'}"
                for entry in report.failures()
            ))
        else:
            code = 3
    result = command.build(args, d, report)
    warnings = list(report.warnings) if report is not None else []
    if args.json:
        import json

        envelope = {"command": name, "input": descriptor, "result": result,
                    "warnings": warnings, "version": __version__}
        print(json.dumps(envelope, sort_keys=True, ensure_ascii=False, indent=2))
    elif command.render is None:
        sys.stdout.write(result["text"])
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
    else:
        for line in command.render(result) + [f"warning: {w}" for w in warnings]:
            print(line)
    strict_fail = args.strict and command.failed is not None and command.failed(result)
    return 4 if code == 0 and strict_fail else code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        if not args.command:
            parser.error("a subcommand is required")
        return _run(args.command, args)
    except _CliError as exc:
        code, message = exc.args
        print(message, file=sys.stderr)
        return code
    except SystemExit as exc:  # argparse --help/--version
        return 0 if exc.code in (None, 0) else int(exc.code)
    except Exception as exc:  # a fault of kra itself: one line, no traceback
        message = " ".join(str(exc).splitlines())
        print(f"kra: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    raise SystemExit(main())
