"""The .kra text format: parsing, error spans, canonical serialization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kra import (
    GaussRational,
    NumericOperator,
    ParseError,
    builtin,
    format_entry,
    parse,
    serialize,
    structural_key,
)

import kra.dsl
import oracle_dsl

from conftest import (
    FIXTURE_NAMES,
    fixture_text,
    load_fixture,
    must_validate,
    random_design_diagram,
)

MINIMAL = """\
factor c2 C 2
vertex v c2 c2 +
edge m v -> v
jmap v <-> v
"""


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


class TestFixtures:
    def test_fixtures_match_builtins(self):
        assert structural_key(load_fixture("sm.kra")) == structural_key(
            builtin("sm")
        )
        assert structural_key(load_fixture("chain.kra")) == structural_key(
            builtin("chain")
        )

    def test_fixtures_are_canonically_formatted(self):
        # modulo the leading comment banner, each fixture is serialize() output
        for name in FIXTURE_NAMES:
            text = fixture_text(name)
            body = "".join(
                line
                for line in text.splitlines(keepends=True)
                if not line.startswith("#")
            ).lstrip("\n")
            assert serialize(parse(text)) == body

    def test_fixtures_validate(self):
        for name in FIXTURE_NAMES:
            must_validate(load_fixture(name))


class TestParsing:
    def test_minimal_document(self):
        d = parse(MINIMAL)
        assert d.kodim == 0
        assert d.families == 1
        assert len(d.vertices) == 1
        assert len(d.edges) == 1

    def test_defaults_can_be_overridden(self):
        d = parse("factor c2 C 2\nkodim 6\nfamilies 3\nvertex v c2 c2 +\n")
        assert d.kodim == 6
        assert d.families == 3

    def test_comments_and_blank_lines_ignored(self):
        d = parse("# banner\n\n" + MINIMAL + "\n# trailing\n")
        assert len(d.vertices) == 1

    def test_conjugate_rep_marker(self):
        d = parse(
            "factor c1 C 1\nfactor c3 C 3\n"
            "vertex v c1~ c3 +\nvertex w c3 c1~ +\n"
            "edge e v -> w\njmap v <-> w\n"
        )
        v = d.vertex("v")
        assert v.col.conjugate and v.col.factor_index == 0
        assert not v.row.conjugate and v.row.factor_index == 1

    def test_numeric_matrix_entries(self):
        d = parse(
            "factor c1 C 1\nfactor c2 C 2\n"
            "vertex a c1 c1 +\nvertex b c2 c1 -\n"
            "vertex ja c1 c1 +\nvertex jb c1 c2 -\n"
            "edge e a -> b matrix [[1], [2/3*i]]\n"
            "edge je ja -> jb matrix [[1], [2/3*i]]\n"
            "jmap a <-> ja\njmap b <-> jb\n"
        )
        op = d.edges[0].operator
        assert isinstance(op, NumericOperator)
        assert op.matrix == (
            (GaussRational.of(1),),
            (GaussRational.of(0, Fraction(2, 3)),),
        )

    def test_pure_imaginary_entry_forms(self):
        d = parse(
            "factor c1 C 1\nvertex v c1 c1 +\n"
            "edge e v -> v matrix [[i], [-i], [2*i], [-5/6*i]]\n"
            "jmap v <-> v\n"
        )
        col = tuple(row[0] for row in d.edges[0].operator.matrix)
        assert col == (
            GaussRational.of(0, 1),
            GaussRational.of(0, -1),
            GaussRational.of(0, 2),
            GaussRational.of(0, Fraction(-5, 6)),
        )

    def test_rich_entry_forms_in_one_row(self):
        d = parse(
            "factor c1 C 1\nvertex v c1 c1 +\n"
            "edge e v -> v matrix [[1, -1/2, 2/3*i, 1/2+1/3*i, 3-i]]\n"
            "jmap v <-> v\n"
        )
        assert d.edges[0].operator.matrix == (
            (
                GaussRational.of(1),
                GaussRational.of(Fraction(-1, 2)),
                GaussRational.of(0, Fraction(2, 3)),
                GaussRational.of(Fraction(1, 2), Fraction(1, 3)),
                GaussRational.of(3, -1),
            ),
        )


#: characters str.splitlines() breaks at that are not a line end in .kra text
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestLineEnds:
    @pytest.mark.parametrize("ch", NOT_LINE_ENDS)
    def test_comment_keeps_a_unicode_break(self, ch):
        d = parse(
            "factor a C 1\nkodim 1\n"
            f"# see section 2{ch} for details\nvertex x a a # page{ch}break\n"
        )
        assert [v.id for v in d.vertices] == ["x"]

    @pytest.mark.parametrize("ch", NOT_LINE_ENDS)
    def test_unicode_break_outside_a_comment_is_an_error(self, ch):
        e = err(f"factor a C 1\nkodim 1\nvertex x a a{ch}\nvertex y a a\n")
        assert e.message == f"unexpected character {ch!r}"
        assert (e.span.line, e.span.column) == (3, 13)

    def test_crlf_and_cr_end_lines(self):
        e = err("factor a C 1\r\nkodim 1\rvertex x a a\r\nbogus\n")
        assert (e.span.line, e.span.column) == (4, 1)
        d = parse("factor a C 1\r\nkodim 1\rvertex x a a +\r")
        assert d.kodim == 1 and d.vertices[0].sign == 1


class TestParseErrors:
    def test_empty_document(self):
        e = err("")
        assert e.span.line == 1 and e.span.column == 1
        assert "missing algebra declaration" in e.message
        assert "factor" in e.expected

    def test_str_carries_position(self):
        e = err("factor c2 C 2\nbogus directive here\n")
        assert str(e).startswith("2:1:")

    def test_unknown_directive(self):
        e = err("factor c2 C 2\nbogus x y\n")
        assert e.span.line == 2
        assert "unknown directive" in e.message
        assert "vertex" in e.expected and "edge" in e.expected

    def test_bad_factor_kind(self):
        e = err("factor q Q 2\n")
        assert e.expected == ("R", "C", "H")

    def test_zero_factor_size(self):
        err("factor c0 C 0\n")

    def test_duplicate_factor(self):
        err("factor c2 C 2\nfactor c2 C 3\n")

    def test_kodim_range_and_duplicate(self):
        err("factor c2 C 2\nkodim 9\n")
        err("factor c2 C 2\nkodim 1\nkodim 2\n")

    def test_families_positive_and_unique(self):
        err("factor c2 C 2\nfamilies 0\n")
        err("factor c2 C 2\nfamilies 2\nfamilies 2\n")

    def test_vertex_errors(self):
        err("factor c2 C 2\nvertex v nosuch c2 +\n")  # unknown factor
        err("factor c2 C 2\nvertex v c2 c2 +\nvertex v c2 c2 +\n")  # dup id

    def test_conjugate_of_noncomplex_factor_fails_validation(self):
        # the parser accepts the ~ marker; validation rejects the label
        from kra import validate

        d = parse(
            "factor h1 H 1\nvertex v h1~ h1 +\n"
            "edge e v -> v\njmap v <-> v\n"
        )
        report = validate(d)
        assert not report.ok
        assert any(e.check == "structure" for e in report.failures())

    def test_edge_requires_declared_vertices_and_arrow(self):
        err("factor c2 C 2\nvertex v c2 c2 +\nedge e v -> w\n")
        err("factor c2 C 2\nvertex v c2 c2 +\nedge e v v\n")

    def test_edge_trailing_garbage(self):
        e = err(
            "factor c2 C 2\nvertex v c2 c2 +\nedge e v -> v 17 extra\n"
        )
        assert "label" in e.expected and "matrix" in e.expected

    def test_duplicate_edge_id(self):
        err(
            "factor c2 C 2\nvertex v c2 c2 +\n"
            "edge e v -> v\nedge e v -> v\n"
        )

    def test_zero_denominator_entry(self):
        e = err(
            "factor c1 C 1\nvertex v c1 c1 +\nedge e v -> v matrix [[1/0]]\n"
        )
        assert e.span.line == 3

    def test_malformed_matrix_entry(self):
        e = err(
            "factor c1 C 1\nvertex v c1 c1 +\nedge e v -> v matrix [[1+*i]]\n"
        )
        assert e.expected == ("a/b+c/d*i",)

    def test_unbracketed_matrix_rows(self):
        err("factor c1 C 1\nvertex v c1 c1 +\nedge e v -> v matrix [1, 2]\n")

    def test_matrix_keyword_without_literal(self):
        err("factor c1 C 1\nvertex v c1 c1 +\nedge e v -> v matrix 1, 2\n")

    def test_bare_bracket_after_endpoints_rejected(self):
        e = err("factor c1 C 1\nvertex v c1 c1 +\nedge e v -> v [[1]]\n")
        assert "label" in e.expected and "matrix" in e.expected

    def test_jmap_needs_declared_vertices(self):
        err("factor c2 C 2\nvertex v c2 c2 +\njmap v <-> w\n")


MATRIX_PRELUDE = "factor c1 C 2\nvertex a c1 c1\nvertex b c1 c1\n"
#: one line per way of spelling it: a spaced line (one pattern match) and
#: the same line with a tab and a comment (the tokenizer)
BOTH_PATHS = [("{}", 0), ("\t{}  # both paths", 1)]


class TestMatrixLiteralReuse:
    """A matrix literal is read once per document: the edges that repeat it
    share the operator, errors stay where they were, and nothing is kept
    from one parse to the next."""

    TWO_EDGES = (
        "factor c1 C 1\nfactor c2 C 2\n"
        "vertex a c1 c1 +\nvertex b c2 c1 -\n"
        "vertex ja c1 c1 +\nvertex jb c1 c2 -\n"
        "edge e a -> b matrix [[1], [2/3*i]]\n"
        "edge\tje ja -> jb matrix [[1], [2/3*i]]  # read token by token\n"
        "jmap a <-> ja\njmap b <-> jb\n"
    )

    def test_repeated_literal_parses_to_equal_operators(self):
        e, je = parse(self.TWO_EDGES).edges
        assert e.operator == je.operator == NumericOperator((
            (GaussRational.of(1),),
            (GaussRational.of(0, Fraction(2, 3)),),
        ))
        assert e.operator is je.operator

    def test_malformed_repeated_literal_reported_at_first_use(self):
        e = err(
            "factor c1 C 1\nvertex v c1 c1 +\n"
            "edge e v -> v matrix [[1+*i]]\n"
            "edge f v -> v matrix [[1+*i]]\n"
        )
        assert (e.span.line, e.span.column) == (3, 24)
        assert str(e) == "3:24: malformed matrix entry '1+*i' (expected a/b+c/d*i)"

    def test_nothing_carries_over_between_parses(self):
        first = parse(self.TWO_EDGES).edges[0].operator
        second = parse(self.TWO_EDGES).edges[0].operator
        assert first == second and first is not second


#: a run of digits, and one that is not zero (a denominator)
_DIGITS = st.from_regex(r"[0-9]{1,3}", fullmatch=True)
_DENOMINATOR = st.from_regex(r"0?[1-9][0-9]?", fullmatch=True)


@st.composite
def entry_texts(draw) -> str:
    """One matrix entry drawn from the whole entry grammar: a real part, an
    imaginary part or both, signs and leading zeros included."""

    def ratio(sign: str) -> str:
        text = sign + draw(_DIGITS)
        return text + "/" + draw(_DENOMINATOR) if draw(st.booleans()) else text

    unit = "i" if draw(st.booleans()) else ratio("") + "*i"
    form = draw(st.sampled_from(["real", "imaginary", "both"]))
    if form == "real":
        return ratio(draw(st.sampled_from(["", "+", "-"])))
    if form == "imaginary":
        return draw(st.sampled_from(["", "+", "-"])) + unit
    return ratio(draw(st.sampled_from(["", "+", "-"]))) + draw(st.sampled_from(["+", "-"])) + unit


@st.composite
def matrix_documents(draw) -> tuple[str, str]:
    """A document of one to four matrix edges, as (literals spelled as
    serialize writes them, the same literals re-spaced).  Entries come from
    a small pool, so they repeat within and across literals, and a literal
    may repeat."""
    pool = draw(st.lists(entry_texts(), min_size=1, max_size=6))
    literals = []
    for _ in range(draw(st.integers(1, 4))):
        if literals and draw(st.booleans()):
            literals.append(draw(st.sampled_from(literals)))
            continue
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        literals.append([[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)])

    def document(spell) -> str:
        edges = [f"edge e{k} v -> v matrix {spell(rows)}" for k, rows in enumerate(literals)]
        return "\n".join(["factor c1 C 1", "vertex v c1 c1 +", *edges]) + "\n"

    canonical = document(lambda rows: "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]")
    spaced = document(lambda rows: "[ " + " ,".join("[" + " , ".join(r) + " ]" for r in rows) + "]")
    return canonical, spaced


class TestCanonicalMatrixLiterals:
    """A literal spelled as serialize writes it and the same literal spaced
    otherwise read the same values, each distinct entry once per parse, and
    every error keeps its message and position."""

    PRELUDE = "factor c1 C 1\nvertex v c1 c1 +\n"

    @given(matrix_documents())
    @settings(max_examples=150, deadline=None)
    def test_both_paths_and_the_oracle_read_equal_diagrams(self, documents):
        canonical, spaced = documents
        assert parse(canonical) == parse(spaced) == oracle_dsl.parse(canonical)

    @pytest.mark.parametrize("literal, column, message", [
        ("[[1, 1/0]]", 27, "zero denominator in matrix entry"),
        ("[[1, 2x]]", 27, "malformed matrix entry '2x' (expected a/b+c/d*i)"),
        ("[[1], [1/0+1/9*i]]", 29, "zero denominator in matrix entry"),
        ("[[1, " + "7" * 5000 + "]]", 27, "integer too long (5000 digits)"),
        ("[[2, 1/0+1/" + "7" * 5000 + "*i]]", 27, "zero denominator in matrix entry"),
        ("[[2, 1+" + "7" * 5000 + "/0*i]]", 29, "integer too long (5000 digits)"),
    ], ids=["zero-denominator", "malformed", "second-row", "long", "zero-before-long",
            "long-before-zero"])
    def test_a_bad_canonical_looking_literal_is_placed_at_its_first_use(
        self, literal, column, message
    ):
        text = (
            self.PRELUDE + "edge e v -> v label x\nedge g v -> v matrix [[5]]\n"
            f"edge f v -> v matrix {literal}\nedge h v -> v matrix {literal}\n"
        )
        got = err(text)
        assert str(got) == f"5:{column}: {message}"
        if "7" * 5000 not in literal:  # the oracle reads no overlong integer
            with pytest.raises(ParseError) as want:
                oracle_dsl.parse(text)
            assert (got.span, got.message, got.expected) == (
                want.value.span, want.value.message, want.value.expected
            )

    def test_entry_values_are_shared_within_a_parse(self):
        d = parse(self.PRELUDE + "edge e v -> v matrix [[1/2, 2*i], [1/2, 3]]\n"
                  "edge f v -> v matrix [[3, 1/2]]\n")
        (a, b), (c, three) = d.edges[0].operator.matrix
        assert a is c and d.edges[1].operator.matrix == ((three, a),)
        assert d.edges[1].operator.matrix[0][0] is three

    def test_an_entry_is_read_once_however_it_is_spaced(self, monkeypatch):
        read = []

        def counting(text, lineno, column):
            read.append(text.strip())
            return parse_entry(text, lineno, column)

        parse_entry = kra.dsl._parse_entry
        monkeypatch.setattr(kra.dsl, "_parse_entry", counting)
        d = parse(self.PRELUDE + "edge e v -> v matrix [[1/2]]\n"
                  "edge f v -> v matrix [ [1/2] ]\nedge g v -> v matrix [[ 1/2 ]]\n")
        assert read == ["1/2"]
        assert len({id(e.operator.matrix[0][0]) for e in d.edges}) == 1

    def test_an_edge_and_its_mirror_share_one_symbolic_operator(self):
        e, je = parse(TestMatrixLiteralReuse.TWO_EDGES.replace(
            "matrix [[1], [2/3*i]]", "label Y")).edges
        assert e.operator is je.operator


class TestIntegerFields:
    """Integer fields are ASCII digits, and one too long for ``int`` is a
    parse error at its span, not a ``ValueError``."""

    @pytest.mark.parametrize("spelling, shift", BOTH_PATHS)
    @pytest.mark.parametrize(
        "prelude, line, column",
        [
            ("", "factor c1 C {}", 13),
            ("factor c1 C 1\n", "kodim {}", 7),
            ("factor c1 C 1\n", "families {}", 10),
            (MATRIX_PRELUDE, "edge e a -> b matrix [[{}, 0], [0, 1]]", 24),
            (MATRIX_PRELUDE, "edge e a -> b matrix [[1/{}, 0], [0, 1]]", 26),
            (MATRIX_PRELUDE, "edge e a -> b matrix [[1, -{}/2*i], [0, 1]]", 28),
            (MATRIX_PRELUDE, "edge e a -> b matrix [[1, 0], [3/4+1/{}*i, 1]]", 38),
        ],
        ids=["factor-size", "kodim", "families", "entry", "entry-denominator",
             "imaginary-numerator", "imaginary-denominator"],
    )
    def test_overlong_integer_is_a_parse_error(self, prelude, line, column, spelling, shift):
        digits = "7" * 5000
        text = prelude + spelling.format(line.format(digits)) + "\n"
        e = err(text)
        assert e.span == (prelude.count("\n") + 1, column + shift, 5000)
        assert e.message == "integer too long (5000 digits)"
        # an integer at Python's limit still reads: a range check may reject it
        at_limit = prelude + spelling.format(line.format("1" * 4300)) + "\n"
        try:
            parse(at_limit)
        except ParseError as range_error:
            assert "too long" not in range_error.message

    @pytest.mark.parametrize("spelling, shift", BOTH_PATHS)
    @pytest.mark.parametrize(
        "prelude, line, column, message",
        [
            ("", "factor c1 C ١", 13, "unexpected character '١'"),
            ("factor c1 C 1\n", "kodim ٣", 7, "unexpected character '٣'"),
            ("factor c1 C 1\n", "families ٢", 10, "unexpected character '٢'"),
            ("factor c1 C 1\n", "kodim ３", 7, "unexpected character '３'"),
            (MATRIX_PRELUDE, "edge e a -> b matrix [[١, 0], [0, 1]]", 24,
             "malformed matrix entry '١'"),
            (MATRIX_PRELUDE, "edge e a -> b matrix [[1/٢, 0], [0, 1]]", 24,
             "malformed matrix entry '1/٢'"),
        ],
        ids=["arabic-indic-size", "arabic-indic-kodim", "arabic-indic-families",
             "fullwidth-kodim", "arabic-indic-entry", "arabic-indic-denominator"],
    )
    def test_non_ascii_digit_is_a_parse_error(self, prelude, line, column, message, spelling,
                                              shift):
        e = err(prelude + spelling.format(line) + "\n")
        assert e.span[:2] == (prelude.count("\n") + 1, column + shift)
        assert e.message == message


SM_TEXT = serialize(builtin("sm"))


def _parses_or_points_inside(text: str) -> None:
    """Any text parses, or fails with a ParseError whose span lies inside it."""
    try:
        parse(text)
    except ParseError as e:
        assert 1 <= e.span.line <= len(text.splitlines()) + 1, (e, text)
        assert e.span.column >= 1, (e, text)


class TestParserTotality:
    @given(st.text())
    @settings(deadline=None, max_examples=300)
    def test_arbitrary_text(self, text):
        _parses_or_points_inside(text)

    @given(
        st.integers(0, len(SM_TEXT)),
        st.integers(0, len(SM_TEXT)),
        st.text(alphabet=st.sampled_from(sorted(set(SM_TEXT)) + ["\x00", "é"]), max_size=12),
    )
    @settings(deadline=None, max_examples=300)
    def test_splices_of_a_valid_file(self, i, j, inserted):
        lo, hi = min(i, j), max(i, j)
        _parses_or_points_inside(SM_TEXT[:lo] + inserted + SM_TEXT[hi:])


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        for make in (
            lambda: builtin("sm"),
            lambda: builtin("chain"),
            lambda: builtin("ym", 4),
        ):
            d = make()
            again = parse(serialize(d))
            assert structural_key(again) == structural_key(d)

    def test_serialize_is_idempotent(self):
        for name in FIXTURE_NAMES:
            text = serialize(load_fixture(name))
            assert serialize(parse(text)) == text

    def test_canonical_output_shape(self):
        text = serialize(builtin("ym", 3))
        lines = text.splitlines()
        assert lines[0] == "factor c3 C 3"
        assert "kodim 0" in lines
        assert text.endswith("\n")

    def test_clashing_factor_display_names_get_suffix(self):
        text = serialize(
            parse(
                "factor a C 1\nfactor b C 1\n"
                "vertex v a b +\nvertex w b a +\n"
                "edge e v -> w\njmap v <-> w\n"
            )
        )
        assert "factor c1 C 1" in text
        assert "factor c1_2 C 1" in text
        again = parse(text)
        assert len(again.algebra.factors) == 2

    def test_numeric_matrices_round_trip(self):
        src = (
            "factor c1 C 1\nvertex v c1 c1 +\n"
            "edge e v -> v matrix [[1/2-1/3*i]]\njmap v <-> v\n"
        )
        d = parse(src)
        again = parse(serialize(d))
        assert again.edges[0].operator == d.edges[0].operator

    @given(st.integers(0, 2**32))
    @settings(deadline=None, max_examples=40)
    def test_random_diagram_round_trip(self, seed):
        d, _meta = random_design_diagram(random.Random(seed))
        again = parse(serialize(d))
        assert structural_key(again) == structural_key(d)
        assert serialize(again) == serialize(d)


class TestFormatEntry:
    CASES = [
        (GaussRational.of(1), "1"),
        (GaussRational.of(0), "0"),
        (GaussRational.of(Fraction(3, 4)), "3/4"),
        (GaussRational.of(0, 1), "1*i"),
        (GaussRational.of(0, -1), "-1*i"),
        (GaussRational.of(0, Fraction(2, 3)), "2/3*i"),
        (GaussRational.of(1, 1), "1+1*i"),
        (GaussRational.of(Fraction(1, 2), Fraction(-1, 3)), "1/2-1/3*i"),
        (GaussRational.of(-2, -5), "-2-5*i"),
    ]

    def test_exact_text(self):
        for value, text in self.CASES:
            assert format_entry(value) == text

    def test_entries_parse_back(self):
        for value, text in self.CASES:
            d = parse(
                "factor c1 C 1\nvertex v c1 c1 +\n"
                f"edge e v -> v matrix [[{text}]]\njmap v <-> v\n"
            )
            op = d.edges[0].operator
            if value:
                assert op.matrix == ((value,),)

    @given(
        st.fractions(max_denominator=12),
        st.fractions(max_denominator=12),
    )
    @settings(deadline=None)
    def test_format_parse_round_trip(self, re, im):
        value = GaussRational.of(re, im)
        text = format_entry(value)
        if not value:
            assert text == "0"
            return
        d = parse(
            "factor c1 C 1\nvertex v c1 c1 +\n"
            f"edge e v -> v matrix [[{text}]]\njmap v <-> v\n"
        )
        assert d.edges[0].operator.matrix == ((value,),)
