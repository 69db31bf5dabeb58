"""The parser against the one it replaced.

``oracle_dsl`` keeps ``parse`` as it was before a well-formed line was read
with one pattern match: every line tokenized into ``_Token`` objects and
walked by ``_LineParser``.  On every document both must give an equal
diagram, or an equal ``ParseError`` (span, message and ``expected``).  The
documents use only ``\\n``, ``\\r\\n`` and ``\\r`` as line breaks, where the
two parsers split lines alike.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_dsl
from kra import ParseError, builtin, parse, serialize
from kra.dsl import _GRAMMAR, _LINE_FORMS, _line_re

from conftest import FIXTURE_NAMES, fixture_text, grid_diagram, path_diagram
from test_lift_oracle import _relabelled

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_inputs():
    path = ROOT / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(parse_fn, text: str):
    try:
        return parse_fn(text)
    except ParseError as e:
        return e


def assert_same_parse(text: str) -> None:
    got, want = _outcome(parse, text), _outcome(oracle_dsl.parse, text)
    assert type(got) is type(want), (text, got, want)
    if isinstance(want, ParseError):
        assert (got.span, got.message, got.expected) == (
            want.span, want.message, want.expected
        ), text
    else:
        assert got == want, text


class TestKnownDocuments:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        assert_same_parse(fixture_text(name))

    @pytest.mark.parametrize("name", ["sm", "chain", "ym:1", "ym:2", "ym:3", "ym:5"])
    def test_builtins(self, name):
        assert_same_parse(serialize(builtin(name)))

    def test_conftest_corpus(self, corpus):
        rows, _elapsed = corpus
        for _name, d, _meta in rows:
            assert_same_parse(serialize(d))

    @pytest.mark.parametrize(
        "make", [lambda k=k: grid_diagram(k) for k in (2, 3, 4, 5)]
        + [lambda n=n: path_diagram(n) for n in (5, 10, 20)],
        ids=[f"grid{k}" for k in (2, 3, 4, 5)] + [f"path{n}" for n in (5, 10, 20)],
    )
    def test_families(self, make):
        d = make()
        assert_same_parse(serialize(d))
        assert_same_parse(serialize(_relabelled(d, 3)))

    def test_bench_corpus_with_numeric_matrices(self):
        inputs = _load_bench_inputs()
        rows = inputs.corpus(random.Random(11), 120)
        texts = [serialize(d) for _name, d, _expected in rows]
        assert sum("matrix [" in text for text in texts) >= 20
        for text in texts:
            assert_same_parse(text)

    def test_every_field_of_a_spaced_line(self):
        """Each field of each directive, declared or not, in lines spaced as
        the one-match path takes them, spelled with tabs and a comment for
        the token path, and cut after each token, so that every missing
        field follows every semantic check before it; the second copy of
        each line meets its own declarations."""
        lines = [
            f"factor {name} {kind} {size}"
            for name in ("c9", "c1") for kind in ("C", "Q") for size in ("2", "0")
        ]
        lines += ["kodim 3", "kodim 9", "families 2", "families 0"]
        lines += [
            f"vertex {vid} {col} {row}{sign}"
            for vid in ("v9", "a") for col in ("c1~", "zz") for row in ("c2", "zz~")
            for sign in ("", " +", " -")
        ]
        lines += [
            f"edge {eid} {source} -> {target}{operator}"
            for eid in ("e9", "e1") for source in ("a", "zz") for target in ("b", "zz")
            for operator in ("", " label Y", " matrix [[1], [2/3*i]]",
                             " matrix [[1/0]]", " matrix [[1]] # c", " matrix [1]")
        ]
        lines += [f"jmap {left} <-> {right}" for left in ("a", "zz") for right in ("b", "zz")]
        for line in lines:
            words = line.split(" ")
            forms = [line, f"  {line.replace(' ', '   ')}  ", "\t".join(words) + "\t# comment"]
            forms += [" ".join(words[:cut]) for cut in range(1, len(words))]
            for form in forms:
                assert_same_parse("\n".join(PRELUDE + [form, form]))


def test_grammar_names_the_groups_of_the_line_pattern():
    """The token path's grammar and _LINE_PATTERN name the same directives
    and fields; the edge's label and matrix clause is read outside the
    grammar."""
    assert list(_GRAMMAR) == list(_LINE_FORMS)
    named = {group for steps in _GRAMMAR.values() for group, _kind, _what in steps}
    assert (named - {None}) | {"elabel", "ematrix"} == set(_line_re().groupindex) - set(_LINE_FORMS)


# ---------------------------------------------------------------------------
# Random documents over the token alphabet

DECLARED = ["a", "b", "x"]  # the vertex ids PRELUDE declares
NEW_IDS = ["y~", "v1", "e_2", "label", "matrix", "c1", "q"]
IDS = DECLARED + NEW_IDS
ENDPOINTS = DECLARED * 5 + NEW_IDS
FACTOR_NAMES = ["c1", "c2", "h1", "r2", "q", "c1~"]
LABELS = ["c1", "c1~", "c2", "c2~", "h1", "h1"] * 2 + ["h1~", "q", "nosuch"]
KINDS = ["C", "C", "R", "H", "Q", "c", "C~"]
INTS = ["0", "1", "2", "3", "7", "8", "00", "01", "12"]
MALFORMED_MATRICES = ["[[]]", "[[1], []]", "[1, 2]", "[[1], [2]", "[[1,, 2]]", "[", "[[1]] x"]
SIGNS = st.sampled_from(["", "+", "-"])
UNSIGNED = st.builds(
    "{}{}".format,
    st.sampled_from(["0", "1", "2", "12", "007"]),
    st.sampled_from(["", "", "/1", "/3", "/12", "/0"]),
)
RATIONALS = st.builds("{}{}".format, SIGNS, UNSIGNED)
ENTRIES = st.one_of(
    RATIONALS,
    st.builds("{}i".format, SIGNS),
    st.builds("{}*i".format, RATIONALS),
    st.builds("{}{}i".format, RATIONALS, st.sampled_from(["+", "-"])),
    st.builds("{}{}{}*i".format, RATIONALS, st.sampled_from(["+", "-"]), UNSIGNED),
    st.sampled_from(["3i", "1+*i", "1+-2*i", "", "i*2", "1/2/3", "+-i", "1 + i", "--1"]),
)


@st.composite
def matrices(draw) -> str:
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(MALFORMED_MATRICES))
    pad = st.sampled_from(["", "", " "])
    rows = draw(st.lists(st.lists(ENTRIES, min_size=1, max_size=3), min_size=1, max_size=3))
    return "[" + ", ".join(
        "[" + ",".join(draw(pad) + entry + draw(pad) for entry in row) + "]" for row in rows
    ) + "]"


TOKENS = (
    ["factor", "kodim", "families", "vertex", "edge", "jmap", "label", "matrix"]
    + IDS + LABELS + INTS
    + ["->", "<->", "+", "-", "~", "<", ">", "[", "]", "[[1]]", "#", "é", "0x", "1a"]
)
PRELUDE = [
    "factor c1 C 1",
    "factor c2 C 2",
    "factor h1 H 1",
    "vertex a c1 c1 +",
    "vertex b c2 c1 -",
    "vertex x c1 c2~",
    "edge e1 a -> b",
]

SPACES = st.sampled_from([" ", " ", " ", "  "])
SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", " \t", ""])
LEADS = st.sampled_from([""] * 6 + [" ", "  ", "\t"])
TAILS = st.sampled_from(
    [""] * 4 + [" ", "  ", "\t", "#", " # note", "  #x # y", "\t# tab", "#[[1]]"]
)
BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def kra_line(draw) -> str:
    one = st.sampled_from
    kind = draw(one(["factor", "kodim", "families"] + ["vertex", "edge"] * 3
                    + ["jmap", "jmap", "soup", "blank"]))
    if kind == "factor":
        fields = ["factor", draw(one(FACTOR_NAMES)), draw(one(KINDS)), draw(one(INTS))]
    elif kind in ("kodim", "families"):
        fields = [kind, draw(one(INTS))]
    elif kind == "vertex":
        fields = ["vertex", draw(one(IDS)), draw(one(LABELS)), draw(one(LABELS))]
        fields += draw(one([[], ["+"], ["-"]]))
    elif kind == "edge":
        fields = ["edge", draw(one(IDS)), draw(one(ENDPOINTS)), "->", draw(one(ENDPOINTS))]
        fields += draw(one([[], ["label", draw(one(IDS))], ["matrix", draw(matrices())]]))
    elif kind == "jmap":
        fields = ["jmap", draw(one(ENDPOINTS)), "<->", draw(one(ENDPOINTS))]
    elif kind == "soup":
        fields = draw(st.lists(one(TOKENS), min_size=1, max_size=7))
    else:
        fields = []
    if fields and draw(st.integers(0, 7)) == 0:
        # one token dropped, doubled or replaced
        i = draw(st.integers(0, len(fields) - 1))
        edit = draw(one(["drop", "double", "replace"]))
        if edit == "drop":
            del fields[i]
        elif edit == "double":
            fields.insert(i, fields[i])
        else:
            fields[i] = draw(one(TOKENS))
    # about half the lines are spaced as the one-match path takes them
    gaps = SPACES if draw(st.booleans()) else SEPARATORS
    body = "".join((draw(gaps) if i else "") + token for i, token in enumerate(fields))
    return draw(LEADS) + body + draw(TAILS)


@st.composite
def kra_document(draw) -> str:
    lines = draw(st.lists(kra_line(), max_size=8))
    if draw(st.integers(0, 4)):
        at = 0 if draw(st.integers(0, 3)) else draw(st.integers(0, len(lines)))
        lines[at:at] = PRELUDE
    text = "".join(line + draw(BREAKS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


SM_TEXT = serialize(builtin("sm"))
MATRIX_TEXT = (
    "factor c1 C 1\nfactor c2 C 2\nvertex a c1 c1 +\nvertex b c2 c1 -\n"
    "vertex ja c1 c1 +\nvertex jb c1 c2 -\n"
    "edge e a -> b matrix [[1], [2/3*i]]\nedge je ja -> jb matrix [[1], [-2/3*i]]\n"
    "jmap a <-> ja\njmap b <-> jb\n"
)
SPLICE_ALPHABET = sorted(set(SM_TEXT + MATRIX_TEXT) | set("\t#[]/*,01+-~<>é\r"))


class TestRandomDocuments:
    @given(kra_document())
    @settings(deadline=None, max_examples=200)
    def test_token_documents(self, text):
        assert_same_parse(text)

    @given(kra_line())
    @settings(deadline=None, max_examples=400)
    def test_one_line_after_a_valid_prelude(self, line):
        assert_same_parse("\n".join(PRELUDE + [line, "kodim 1", line]))

    @given(matrices(), TAILS)
    @settings(deadline=None, max_examples=300)
    def test_matrix_edges(self, matrix, tail):
        assert_same_parse("\n".join(PRELUDE + [f"edge m a -> b matrix {matrix}{tail}"]))

    @given(
        st.sampled_from([SM_TEXT, MATRIX_TEXT]),
        st.integers(0, len(SM_TEXT)),
        st.integers(0, len(SM_TEXT)),
        st.text(alphabet=st.sampled_from(SPLICE_ALPHABET), max_size=12),
    )
    @settings(deadline=None, max_examples=300)
    def test_splices_of_valid_files(self, base, i, j, inserted):
        lo, hi = sorted((i % (len(base) + 1), j % (len(base) + 1)))
        assert_same_parse(base[:lo] + inserted + base[hi:])
