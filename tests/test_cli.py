"""The kra command line: exit codes, text output, JSON envelopes, schema."""

from __future__ import annotations

import dataclasses
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kra
from kra import parse, serialize, structural_key
from kra.cli import _COMMANDS, main

from conftest import (
    FIXTURE_DIR, FIXTURE_NAMES, grid_diagram, must_validate, path_diagram, ring_diagram,
)

SCHEMA = json.loads(
    (Path(kra.__file__).parent / "schema" / "report.schema.json").read_text()
)

SM = str(FIXTURE_DIR / "sm.kra")
CHAIN = str(FIXTURE_DIR / "chain.kra")


def run(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv: str) -> dict:
    code, out, err = run(*argv, "--json")
    assert err == ""
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return code, envelope


class TestExitCodes:
    def test_success_paths_return_zero(self):
        for argv in (
            ["validate", "--builtin", "sm"],
            ["validate", SM],
            ["check-rconnect", "--builtin", "chain"],  # negative but not strict
            ["coverage", "--builtin", "chain"],
            ["verdict", "--builtin", "chain"],
            ["powercount"],
            ["builtins"],
            ["fmt", "--builtin", "ym:2"],
        ):
            code, _out, err = run(*argv)
            assert code == 0, (argv, err)

    def test_missing_file_is_a_read_error(self):
        code, _out, err = run("validate", "/no/such/file.kra")
        assert code == 2
        assert err.startswith("kra: cannot read /no/such/file.kra")

    def test_non_utf8_file_is_a_read_error(self, tmp_path):
        latin = tmp_path / "latin1.kra"
        latin.write_bytes("# caf\u00e9\nfactor c2 C 2\n".encode("latin-1"))
        code, out, err = run("validate", str(latin))
        assert code == 2
        assert out == ""
        assert err.startswith(f"kra: cannot read {latin}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_byte_order_mark_is_skipped(self, tmp_path, name):
        plain = FIXTURE_DIR / name
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for command in ("validate", "fmt"):
            code, out, err = run(command, str(marked))
            assert (code, out, err) == run(command, str(plain))
            assert code == 0

    def test_parse_error_carries_position(self, tmp_path):
        bad = tmp_path / "bad.kra"
        bad.write_text("factor c2 C 2\nbogus line\n")
        code, _out, err = run("validate", str(bad))
        assert code == 2
        assert err.startswith(f"{bad}:2:1:")

    @pytest.mark.parametrize(
        "text, where",
        [("factor c1 C 1\nkodim " + "9" * 5000 + "\n", "2:7:"),
         ("factor c1 C \u0661\n", "1:13:")],
        ids=["overlong-kodim", "arabic-indic-size"],
    )
    def test_bad_integer_is_a_parse_error(self, tmp_path, text, where):
        bad = tmp_path / "bad.kra"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run("validate", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"{bad}:{where}") and "Traceback" not in err

    def test_validation_failure_returns_three(self, tmp_path):
        broken = tmp_path / "broken.kra"
        # two vertices of the same sign joined by an edge: grading fails
        broken.write_text(
            "factor c1 C 1\nfactor c2 C 2\n"
            "vertex a c1 c1 +\nvertex b c2 c1 +\n"
            "vertex ja c1 c1 +\nvertex jb c1 c2 +\n"
            "edge e a -> b\nedge je ja -> jb label e\n"
            "jmap a <-> ja\njmap b <-> jb\n"
        )
        code, out, err = run("validate", str(broken))
        assert code == 3
        assert "overall: FAIL" in out
        assert "[FAIL] grading" in out

    def test_downstream_commands_refuse_invalid_diagrams(self, tmp_path):
        broken = tmp_path / "broken.kra"
        broken.write_text(
            "factor c2 C 2\nvertex a c2 c2 +\nvertex b c2 c2 +\n"
            "edge e a -> b\n"
        )
        for cmd in ("gauge-algebra", "fields", "coverage", "verdict"):
            code, _out, err = run(cmd, str(broken))
            assert code == 3, cmd
            assert err.startswith("validation failed"), (cmd, err)

    def test_strict_mode_escalates_negative_verdicts(self):
        assert run("check-rconnect", "--builtin", "chain", "--strict")[0] == 4
        assert run("coverage", "--builtin", "chain", "--strict")[0] == 4
        assert run("verdict", "--builtin", "chain", "--strict")[0] == 4
        # positives stay at zero
        assert run("check-rconnect", "--builtin", "sm", "--strict")[0] == 0
        assert run("coverage", "--builtin", "sm", "--strict")[0] == 0
        assert run("verdict", "--builtin", "sm", "--strict")[0] == 0

    def test_usage_errors_return_sixty_four(self):
        cases = (
            [],
            ["validate"],
            ["validate", "--builtin", "sm", SM],
            ["validate", "--builtin", "sm", "--file", SM],
            ["validate", "--builtin", "nope"],
            ["validate", "--builtin", "ym:0"],
            ["validate", "--builtin", "sm:3"],
            # integers are ASCII digits with an optional minus sign only
            ["fmt", "--builtin", "ym:\u0662"],
            ["fmt", "--builtin", "ym:\u0662", "--json"],
            ["fmt", "--builtin", "ym:1_0"],
            ["fmt", "--builtin", "ym: 2"],
            ["powercount", "-n", "\u0668"],
            ["powercount", "-n", "\u0668", "--json"],
            ["powercount", "-n", " 8"],
            ["powercount", "-n", "+8"],
            ["powercount", "--profile", '{"L":0,"V":{"\u0665,0":1},"E_A":5}'],
            ["powercount", "--profile", '{"L":0,"V":{"5, 0":1},"E_A":5}'],
            ["powercount", "-n", "5"],
            ["powercount", "-n", "2"],
            ["verdict", "--builtin", "sm", "-n", "7"],
            ["powercount", "--profile", "{not json}"],
            ["powercount", "--profile", '{"L": 1, "bogus": 2}'],
            ["powercount", "--profile", '{"I_A": 2}'],
            ["powercount", "--profile", '{"L": 0, "V": {"x": 1}}'],
            ["powercount", "--profile", '{"L":"x"}'],
            ["powercount", "--profile", '{"L":null}'],
            ["powercount", "--profile", '{"L":1,"V":[1]}'],
            ["powercount", "--profile", '{"L":1,"V":{"3,0":null}}'],
            ["powercount", "--profile", '{"L":1.5}'],
            ["powercount", "--profile", '{"L":true}'],
            ["powercount", "--profile", "true"],
            ["powercount", "--profile", '{"L": ' + "9" * 5000 + "}"],
            # consistent, but a vertex valence above the order
            ["powercount", "-n", "4", "--profile", '{"L":0,"V":{"5,0":1},"E_A":5}'],
            ["powercount", "-n", "4", "--profile", '{"L":0,"V":{"5,0":1},"E_A":5}', "--json"],
            ["check-rconnect", "--builtin", "sm", "--dim", "-1"],
            ["no-such-command"],
        )
        for argv in cases:
            code, out, err = run(*argv)
            assert code == 64, argv
            assert out == "", argv
            # one line, from kra's own parser or from argparse ("kra <cmd>: error:")
            assert err.startswith("kra") and ": error: " in err, (argv, err)
            assert err.count("\n") == 1, (argv, err)

    def test_mixed_operators_are_refused_by_every_analysis(self):
        mixed = str(FIXTURE_DIR / "mixed_operators.kra")
        detail = "edges e1, e2: mixed symbolic and numeric operators over one projected edge"
        code, out, _err = run("validate", mixed)
        assert code == 3
        assert f"[FAIL] operator-shape: {detail}" in out
        for cmd in ("fields", "action-terms", "counterterms", "coverage", "verdict"):
            for fmt in ((), ("--json",)):
                code, out, err = run(cmd, mixed, *fmt)
                assert (code, out) == (3, ""), (cmd, fmt)
                assert err == f"validation failed\n  operator-shape: {detail}\n", (cmd, fmt)

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_an_internal_error_is_one_line_with_exit_seventy(self, monkeypatch, fmt):
        def broken(*_args, **_kwargs):
            raise RuntimeError("stage broke\non two lines")

        monkeypatch.setattr(kra.rconnect, "check_r_connected", broken)
        code, out, err = run("check-rconnect", "--builtin", "sm", *fmt)
        assert (code, out) == (70, "")
        assert err == "kra: internal error: RuntimeError: stage broke on two lines\n"
        assert "Traceback" not in err

    def test_a_base_exception_is_not_caught(self, monkeypatch):
        class Stop(BaseException):
            pass

        def stopped(*_args, **_kwargs):
            raise Stop()

        monkeypatch.setattr(kra.rconnect, "check_r_connected", stopped)
        with pytest.raises(Stop):
            run("check-rconnect", "--builtin", "sm")

    def test_version_and_help(self):
        code, out, _ = run("--version")
        assert code == 0 and out.strip() == f"kra {kra.__version__}"
        assert run("--help")[0] == 0
        assert run("validate", "--help")[0] == 0


class TestJsonEnvelopes:
    COMMANDS = (
        ["validate", "--builtin", "sm"],
        ["validate", "--builtin", "chain"],
        ["gauge-algebra", "--builtin", "sm"],
        ["fields", "--builtin", "sm"],
        ["action-terms", "--builtin", "sm"],
        ["counterterms", "--builtin", "chain"],
        ["coverage", "--builtin", "chain"],
        ["check-rconnect", "--builtin", "sm"],
        ["check-rconnect", "--builtin", "chain", "--dim", "6"],
        ["check-rconnect", "--builtin", "chain", "--strict-bounds"],
        ["powercount"],
        ["powercount", "-n", "8"],
        [
            "powercount",
            "--profile",
            '{"L": 1, "I_A": 2, "V": {"3,0": 2}, "E_A": 2}',
        ],
        ["verdict", "--builtin", "sm", "-n", "8"],
        ["builtins"],
        ["fmt", "--builtin", "chain"],
    )

    def test_every_command_validates_against_the_schema(self):
        for argv in self.COMMANDS:
            _code, envelope = run_json(*argv)
            assert envelope["command"] == argv[0]
            assert envelope["version"] == kra.__version__
            assert isinstance(envelope["warnings"], list)

    def test_envelope_is_deterministic(self):
        a = run("verdict", "--builtin", "sm", "--json")
        b = run("verdict", "--builtin", "sm", "--json")
        assert a == b

    def test_input_block_names_the_source(self):
        _code, env = run_json("validate", "--builtin", "ym:3")
        assert env["input"] == {"kind": "builtin", "name": "ym:3"}
        _code, env = run_json("validate", SM)
        assert env["input"] == {"kind": "file", "path": SM}

    def test_rconnect_json_matches_text_verdict(self):
        _code, env = run_json("check-rconnect", "--builtin", "chain")
        _code2, text, _err = run("check-rconnect", "--builtin", "chain")
        assert env["result"]["verdict"] is False
        assert "R-connected in dimension 4: false" in text
        missing = [
            e for e in env["result"]["cond2"] if e["status"] == "missing"
        ]
        assert len(missing) == 1
        assert missing[0]["pair"][0]["display"] == "(1 2)(2 1)"
        assert missing[0]["pair"][1]["display"] == "(1~ 3)(3 1~)"
        assert "[MISSING] (1 2)(2 1) + (1~ 3)(3 1~)" in text

    def test_witnesses_appear_in_both_forms(self):
        _code, env = run_json("check-rconnect", "--builtin", "sm")
        _code2, text, _err = run("check-rconnect", "--builtin", "sm")
        for entry in env["result"]["cond1"]:
            assert entry["witness"] is not None
            assert entry["witness"]["display"] in text

    def test_validate_json_result(self):
        _code, env = run_json("validate", "--builtin", "sm")
        result = env["result"]
        assert result["ok"] is True
        assert result["hilbert_dimension"] == 96
        assert {c["check"] for c in result["checks"]} >= {
            "structure",
            "first-order",
            "grading",
        }

    def test_gauge_algebra_json_result(self):
        _code, env = run_json("gauge-algebra", "--builtin", "sm")
        result = env["result"]
        assert result["decomposition"] == "sp(1) + su(3) + u(1)"
        assert result["abelian_rank"] == 1
        assert result["simple_factors"] == [
            {"name": "sp(1)", "dimension": 3},
            {"name": "su(3)", "dimension": 8},
        ]
        assert result["fundamental_multiplicities"] == [36, 12, 12]
        assert result["total_dimension"] == 12

    def test_fields_json_result(self):
        _code, env = run_json("fields", "--builtin", "sm")
        assert env["result"]["total_components"] == 8
        assert len(env["result"]["multiplets"]) == 4

    def test_coverage_json_result(self):
        _code, env = run_json("coverage", "--builtin", "chain")
        result = env["result"]
        assert result["complete"] is False
        missing = [e for e in result["entries"] if e["matched"] is None]
        assert len(missing) == 1
        assert (
            missing[0]["required"]["structure"]
            == "tr[phi{1,2}* phi{1,2}] tr[phi{1~,3}* phi{1~,3}]"
        )

    def test_powercount_profile_json(self):
        _code, env = run_json(
            "powercount",
            "--profile",
            '{"L": 1, "I_A": 2, "V": {"3,0": 2}, "E_A": 2}',
        )
        profile = env["result"]["profile"]
        assert profile["consistent"] is True
        assert profile["omega_bound"] == 2
        _code, env = run_json("powercount")
        assert env["result"]["profile"] is None
        assert env["result"]["order"] == 4

    def test_profile_accepts_every_count_field(self):
        counts = [f.name for f in dataclasses.fields(kra.GraphProfile) if f.name != "V"]
        assert len(counts) == 9
        for name in counts:
            profile = json.dumps({"L": 1, name: 1})
            code, env = run_json("powercount", "--profile", profile)
            assert code == 0, name
            assert env["result"]["profile"] is not None, name

    def test_inconsistent_profile_with_strict_fails(self):
        argv = [
            "powercount",
            "--profile",
            '{"L": 3, "I_A": 2, "V": {"3,0": 2}, "E_A": 2}',
        ]
        code, env = run_json(*argv)
        assert code == 0
        assert env["result"]["profile"]["consistent"] is False
        assert env["result"]["profile"]["omega_bound"] is None
        code, _out, _err = run(*argv, "--strict")
        assert code == 4

    def test_verdict_json_result(self):
        _code, env = run_json("verdict", "--builtin", "chain")
        result = env["result"]
        assert result["verdict"] == "Inconclusive"
        assert result["failing_hypotheses"] == ["R-connectedness fails"]


class TestRendering:
    """``check-rconnect`` builds the text of each cycle once per report, and
    every entry that names the cycle shares it."""

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize(
        "family, size, cycles", [(path_diagram, 20, 20), (ring_diagram, 11, 12)],
        ids=["path20", "ring11"],
    )
    def test_each_cycle_is_rendered_once(self, monkeypatch, tmp_path, fmt, family, size, cycles):
        rendered = []
        display = kra.graphs.cycle_display

        def counted(cycle, algebra):
            rendered.append(cycle)
            return display(cycle, algebra)

        monkeypatch.setattr(kra.graphs, "cycle_display", counted)
        path = tmp_path / "d.kra"
        path.write_text(serialize(family(size)), encoding="utf-8")
        code, _out, err = run("check-rconnect", "--dim", "8", str(path), *fmt)
        assert (code, err) == (0, "")
        assert len(rendered) == len(set(rendered)) == cycles

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    def test_coverage_renders_each_term_once(self, monkeypatch, tmp_path, fmt):
        """A missing term is the required piece of its entry, not a second
        rendering of the same term."""
        calls = []
        display = kra.invariants.structure_display

        def counted(term, algebra):
            calls.append(term)
            return display(term, algebra)

        monkeypatch.setattr(kra.invariants, "structure_display", counted)
        path = tmp_path / "d.kra"
        path.write_text(serialize(path_diagram(20)), encoding="utf-8")
        code, _out, err = run("coverage", str(path), *fmt)
        assert (code, err) == (0, "")
        assert len(calls) == 331


class TestWarnings:
    def test_ko_subtlety_warning_reaches_the_envelope(self, tmp_path):
        doc = tmp_path / "odd.kra"
        doc.write_text(
            "factor c2 C 2\nkodim 3\nvertex v c2 c2\n"
            "edge e v -> v\njmap v <-> v\n"
        )
        _code, env = run_json("validate", str(doc))
        assert env["warnings"]
        _code2, text, _err = run("validate", str(doc))
        assert "warning:" in text


class TestFmt:
    def test_fmt_output_is_canonical_and_parses_back(self):
        code, out, _err = run("fmt", "--builtin", "chain")
        assert code == 0
        d = parse(out)
        assert structural_key(d) == structural_key(kra.builtin("chain"))
        assert out == serialize(d)

    def test_fmt_file_is_idempotent(self, tmp_path):
        messy = tmp_path / "messy.kra"
        messy.write_text(
            "# comment\nfactor b C 2\nfactor a C 1\n\n"
            "vertex w b a +\nvertex v a b +\n"
            "edge e v -> w\njmap v <-> w\n"
        )
        _code, once, _ = run("fmt", str(messy))
        (tmp_path / "once.kra").write_text(once)
        _code, twice, _ = run("fmt", str(tmp_path / "once.kra"))
        assert once == twice

    def test_fmt_json_wraps_the_text(self):
        _code, env = run_json("fmt", "--builtin", "ym:2")
        assert env["result"]["text"] == serialize(kra.builtin("ym", 2))

    def test_fmt_prints_warnings_on_stderr_only(self):
        path = str(FIXTURE_DIR / "ko_warning.kra")
        code, out, err = run("fmt", path)
        assert code == 0
        _code, env = run_json("fmt", path)
        assert out == env["result"]["text"]
        assert out == serialize(parse(out))
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: KO-dimension 3 ")


class TestBuiltinsListing:
    def test_lists_every_builtin_with_summary(self):
        code, out, _err = run("builtins")
        assert code == 0
        for name in ("sm", "chain", "ym"):
            assert any(line.startswith(f"{name}:") for line in out.splitlines())

    def test_json_form(self):
        _code, env = run_json("builtins")
        names = [row["name"] for row in env["result"]["builtins"]]
        assert names == sorted(names)
        assert {"sm", "chain", "ym"} <= set(names)


FIXTURE_TEXTS = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURE_DIR.glob("*.kra"))}


@st.composite
def mutated_fixtures(draw):
    """A fixture's text, read as tokens line by line, after a few line
    deletions, line duplications and swaps of two tokens anywhere in it."""
    name = draw(st.sampled_from(sorted(FIXTURE_TEXTS)))
    lines = [line.split() for line in FIXTURE_TEXTS[name].splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "swap")))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, list(lines[i]))
        else:
            spots = [(k, x) for k, line in enumerate(lines) for x in range(len(line))]
            if spots:
                (a, x), (b, y) = draw(st.sampled_from(spots)), draw(st.sampled_from(spots))
                lines[a][x], lines[b][y] = lines[b][y], lines[a][x]
    return "".join(" ".join(line) + "\n" for line in lines)


# grid, path and ring diagrams that validate (a ring is graded for odd n)
VALID_TEXTS = st.one_of(
    st.integers(2, 3).map(grid_diagram),
    st.integers(1, 6).map(path_diagram),
    st.integers(0, 3).map(lambda i: ring_diagram(2 * i + 1)),
).map(lambda d: serialize(must_validate(d)))


class TestNoTraceback:
    """Every subcommand, text and JSON, ends in a documented exit code on
    damaged and on valid input.  Exit 70 reports an internal error, a fault
    of kra, so it is not among them."""

    DOCUMENTED = {0, 2, 3, 4, 64}

    def _run_every_command(self, text: str, dim: int, strict: bool, allowed=DOCUMENTED) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "input.kra")
            Path(path).write_text(text, encoding="utf-8")
            for name, command in _COMMANDS.items():
                argv = [name] + ([] if command.input == "none" else [path])
                if name == "check-rconnect":
                    argv += ["--dim", str(dim)]
                if strict:
                    argv.append("--strict")
                for fmt in ((), ("--json",)):
                    code, _out, err = run(*argv, *fmt)
                    assert code in allowed, (argv, fmt, err, text)

    @settings(deadline=None, max_examples=25)
    @given(text=mutated_fixtures(), dim=st.integers(0, 6), strict=st.booleans())
    def test_mutated_fixture_text(self, text, dim, strict):
        self._run_every_command(text, dim, strict)

    @settings(deadline=None, max_examples=10)
    @given(text=VALID_TEXTS, dim=st.integers(0, 6), strict=st.booleans())
    def test_generated_valid_diagrams(self, text, dim, strict):
        # a valid diagram reads and validates: only --strict may turn 0 into 4
        self._run_every_command(text, dim, strict, {0, 4} if strict else {0})
