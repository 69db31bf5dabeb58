"""The .kra text format: parsing with span diagnostics, canonical serialization.

The format is line-oriented, one declaration per line, with ``#`` comments:

    factor c1 C 1
    factor h1 H 1
    kodim 6
    families 3
    vertex lL h1 c1 -
    vertex nR c1 c1 +
    edge yn lL -> nR label Yn
    edge d1 a -> b matrix [[1, 1/2+1/3*i], [0, -i]]
    jmap lL <-> lLc

Lines end at LF, CR LF or CR, and spaces and tabs separate tokens.
Representation labels are factor names with a trailing ``~`` for conjugates.
Matrix entries are exact complex rationals ``a/b+c/d*i``.  Unknown
directives, duplicate or undeclared identifiers, and malformed matrices are
parse errors carrying a precise source span.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

from .algebra import AlgebraFactor, FactorKind, FiniteAlgebra, RepLabel
from .diagram import (
    DiagramVertex,
    EdgePair,
    KrajewskiDiagram,
    NumericOperator,
    SymbolicOperator,
    jmap_pairs,
)
from .exactlin import GaussRational

__all__ = ["SourceSpan", "ParseError", "parse", "serialize", "format_entry"]


class SourceSpan(NamedTuple):
    line: int
    column: int
    length: int = 1


@dataclass(frozen=True)
class ParseError(Exception):
    span: SourceSpan
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"{self.span.line}:{self.span.column}: {self.message}"
        if self.expected:
            text += f" (expected {', '.join(self.expected)})"
        return text


_WORD = r"[A-Za-z_][A-Za-z0-9_]*~?"

_TOKEN_PATTERN = rf"""
    (?P<word>{_WORD})
  | (?P<int>[0-9]+)
  | (?P<darrow><->)
  | (?P<arrow>->)
  | (?P<sign>[+-])
  | (?P<lbracket>\[)
    """

# A well-formed declaration line in one match: the directive and its fields
# separated by spaces, with no tab, comment or adjacent tokens (a matrix
# literal still runs to the end of the line).  Each field group is the token
# the tokenizer would read at the same column, so a line this takes parses
# as the token path parses it; any other line goes through _parse_tokens.
_LINE_PATTERN = rf"""
    \ *(?:
      (?P<vertex>vertex\ +(?P<vid>{_WORD})\ +(?P<vcol>{_WORD})\ +(?P<vrow>{_WORD})
        (?:\ +(?P<vsign>[+-]))?)
    | (?P<edge>edge\ +(?P<eid>{_WORD})\ +(?P<esrc>{_WORD})\ +->\ +(?P<edst>{_WORD})
        (?:\ +label\ +(?P<elabel>{_WORD})|\ +matrix\ +(?P<ematrix>\[.*))?)
    | (?P<jmap>jmap\ +(?P<jleft>{_WORD})\ +<->\ +(?P<jright>{_WORD}))
    | (?P<factor>factor\ +(?P<fname>{_WORD})\ +(?P<fkind>{_WORD})\ +(?P<fsize>[0-9]+))
    | (?P<kodim>kodim\ +(?P<kvalue>[0-9]+))
    | (?P<families>families\ +(?P<nvalue>[0-9]+))
    )\ *
    """


@functools.cache
def _line_re() -> re.Pattern[str]:
    """_LINE_PATTERN, compiled at the first parse: about 2 ms that a process
    reading no .kra text does not pay at import."""
    return re.compile(_LINE_PATTERN, re.VERBOSE)


@functools.cache
def _token_re() -> re.Pattern[str]:
    """_TOKEN_PATTERN, compiled at the first line that _line_re refuses."""
    return re.compile(_TOKEN_PATTERN, re.VERBOSE)


@dataclass(slots=True)
class _Token:
    kind: str
    text: str
    column: int  # 1-based


def _split_lines(text: str) -> list[str]:
    """The lines of text.  A line ends at LF, CR LF or CR only, so a form
    feed, U+2028 or other Unicode break inside a comment stays in it."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _matrix_literal(rest: str) -> str:
    """A matrix literal, from its ``[`` to the end of the line or a ``#``."""
    cut = rest.find("#")
    if cut != -1:
        rest = rest[:cut]
    return rest.rstrip()


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(line):
        ch = line[pos]
        if ch in " \t":
            pos += 1
            continue
        if ch == "#":
            break
        m = _token_re().match(line, pos)
        if m is None:
            raise ParseError(
                SourceSpan(lineno, pos + 1), f"unexpected character {ch!r}"
            )
        kind = m.lastgroup or ""
        if kind == "lbracket":
            # A matrix literal swallows the rest of the meaningful line.
            tokens.append(_Token("matrix", _matrix_literal(line[pos:]), pos + 1))
            return tokens
        tokens.append(_Token(kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


# One matrix entry: a/b, c/d*i, ±i, a/b±i or a/b±c/d*i.  The sign before the
# imaginary part may be left out only when there is no real part.
@functools.cache
def _entry_re() -> re.Pattern[str]:
    """The entry pattern, compiled at the first matrix literal."""
    return re.compile(
        r"(?:([+-]?[0-9]+)(?:/([0-9]+))?)?"
        r"(?:((?(1)[+-]|[+-]?))(?:([0-9]+)(?:/([0-9]+))?\*)?(i))?"
    )


_ZERO = Fraction(0)


def _integer(text: str, column: int, lineno: int) -> int:
    """The value of an integer field, an optional sign and ASCII digits; one
    too long for ``int`` is a parse error at its span."""
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(
            SourceSpan(lineno, column, len(text)),
            f"integer too long ({len(text)} digits)",
        ) from None


def _entry_int(m: re.Match, group: int, offset: int, lineno: int) -> int:
    """The integer of one group of an entry match at column offset, 1 when
    the group is empty."""
    text = m[group]
    return _integer(text, offset + m.start(group), lineno) if text else 1


def _parse_entry(text: str, lineno: int, column: int) -> GaussRational:
    stripped = text.strip()
    offset = column + (len(text) - len(text.lstrip()))
    m = _entry_re().fullmatch(stripped) if stripped else None
    if m is None:
        raise ParseError(
            SourceSpan(lineno, offset, max(len(stripped), 1)),
            f"malformed matrix entry {stripped!r}",
            expected=("a/b+c/d*i",),
        )
    re_num, sign, unit = m.group(1, 3, 6)
    try:
        re_part = im_part = _ZERO
        if re_num:
            re_part = Fraction(_entry_int(m, 1, offset, lineno), _entry_int(m, 2, offset, lineno))
        if unit:
            im_part = Fraction(_entry_int(m, 4, offset, lineno), _entry_int(m, 5, offset, lineno))
            if sign == "-":
                im_part = -im_part
        return GaussRational(re_part, im_part)
    except ZeroDivisionError:
        raise ParseError(
            SourceSpan(lineno, offset, len(stripped)),
            "zero denominator in matrix entry",
        ) from None


def _split_top_level(text: str) -> list[tuple[str, int]]:
    """Split on top-level commas; returns (chunk, offset-within-text)."""
    chunks: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            chunks.append((text[start:i], start))
            start = i + 1
    chunks.append((text[start:], start))
    return chunks


def _parse_matrix(literal: str, lineno: int, column: int) -> NumericOperator:
    text = literal.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(
            SourceSpan(lineno, column, max(len(text), 1)),
            "matrix literal must be bracketed",
        )
    inner, inner_off = text[1:-1], 1
    rows: list[tuple[GaussRational, ...]] = []
    for chunk, off in _split_top_level(inner):
        row_text = chunk.strip()
        row_col = column + inner_off + off + (len(chunk) - len(chunk.lstrip()))
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError(
                SourceSpan(lineno, row_col, max(len(row_text), 1)),
                "matrix rows must be bracketed lists",
            )
        entries = []
        row_inner = row_text[1:-1]
        if row_inner.strip():
            for cell, cell_off in _split_top_level(row_inner):
                entries.append(
                    _parse_entry(cell, lineno, row_col + 1 + cell_off)
                )
        rows.append(tuple(entries))
    return NumericOperator(tuple(rows))


@dataclass(slots=True)
class _ParserState:
    factor_names: dict[str, int] = field(default_factory=dict)
    factors: list[AlgebraFactor] = field(default_factory=list)
    labels: dict[str, RepLabel] = field(default_factory=dict)
    kodim: int | None = None
    families: int | None = None
    vertices: list[DiagramVertex] = field(default_factory=list)
    vertex_ids: set[str] = field(default_factory=set)
    edges: list[EdgePair] = field(default_factory=list)
    edge_ids: set[str] = field(default_factory=set)
    jmap: list[tuple[str, str]] = field(default_factory=list)
    # matrix literal text -> the operator it parsed to: an edge and its
    # j-mirror carry the same matrix, so the second is not read again
    matrices: dict[str, NumericOperator] = field(default_factory=dict)


def parse(text: str) -> KrajewskiDiagram:
    """Parse source text into a (not yet validated) diagram."""
    state = _ParserState()
    fullmatch = _line_re().fullmatch
    for lineno, line in enumerate(_split_lines(text), start=1):
        m = fullmatch(line)
        if m is not None:
            _LINE_FORMS[m.lastgroup](state, m, lineno)
        else:
            _parse_tokens(state, line, lineno)
    if not state.factors:
        raise ParseError(SourceSpan(1, 1), "missing algebra declaration", ("factor",))
    return KrajewskiDiagram(
        algebra=FiniteAlgebra(tuple(state.factors)),
        kodim=state.kodim if state.kodim is not None else 0,
        vertices=tuple(state.vertices),
        edges=tuple(state.edges),
        jmap=tuple(state.jmap) if state.jmap else None,
        families=state.families if state.families is not None else 1,
    )


def _parse_tokens(state: _ParserState, line: str, lineno: int) -> None:
    """Parse one line token by token: the path of every line that
    _LINE_PATTERN does not take, and the only one that words a syntax error.
    Its fields go to the same _LINE_FORMS builder as a match's."""
    tokens = _tokenize(line, lineno)
    if not tokens:
        return
    head = tokens[0]
    if head.kind != "word" or head.text not in _GRAMMAR:
        message = "unknown directive" if head.kind == "word" else "expected a directive, got"
        span = SourceSpan(lineno, head.column, len(head.text))
        raise ParseError(span, f"{message} {head.text!r}", tuple(_GRAMMAR))
    fields = _Fields(tokens, lineno, iter(_GRAMMAR[head.text]))
    _LINE_FORMS[head.text](state, fields, lineno)
    if fields.pos < len(tokens):
        tok = tokens[fields.pos]
        span = SourceSpan(lineno, tok.column, len(tok.text))
        raise ParseError(span, f"unexpected trailing {tok.text!r}")


# The fields of each directive in order, as the token path takes them: (the
# _LINE_PATTERN group, or None for a token no builder reads; the token kind;
# what a missing one is called, or None for the optional vertex sign).  The
# label or matrix clause that may end an edge line is _Fields._operator.
_GRAMMAR = {
    "factor": (("fname", "word", "factor name"), ("fkind", "word", "field kind R|C|H"),
               ("fsize", "int", "factor size")),
    "kodim": (("kvalue", "int", "KO-dimension 0..7"),),
    "families": (("nvalue", "int", "family count"),),
    "vertex": (("vid", "word", "vertex id"), ("vcol", "word", "column rep"),
               ("vrow", "word", "row rep"), ("vsign", "sign", None)),
    "edge": (("eid", "word", "edge id"), ("esrc", "word", "source vertex"),
             (None, "arrow", "'->'"), ("edst", "word", "target vertex")),
    "jmap": (("jleft", "word", "vertex id"), (None, "darrow", "'<->'"),
             ("jright", "word", "vertex id")),
}


@dataclass(slots=True)
class _Fields:
    """A tokenized line as a _LINE_FORMS builder reads it: ``f[group]`` and
    ``f.start(group)`` answer as on a match of _LINE_PATTERN.  Each field is
    taken from the tokens when the builder first asks for it, so a syntax
    error is raised after the semantic checks of the fields before it."""

    tokens: list[_Token]
    lineno: int
    steps: Iterator[tuple[str | None, str, str | None]]
    pos: int = 1  # past the directive
    found: dict[str | None, _Token | None] = field(default_factory=dict)

    def __getitem__(self, group: str) -> str | None:
        tok = self._field(group)
        return None if tok is None else tok.text

    def start(self, group: str) -> int:
        return self._field(group).column - 1

    def _field(self, group: str) -> _Token | None:
        found = self.found
        if group not in found:
            for name, kind, what in self.steps:
                found[name] = self._take(kind, what)
                if name == group:
                    break
            else:
                self._operator()
        return found[group]

    def _take(self, kind: str, what: str | None) -> _Token | None:
        tokens = self.tokens
        tok = tokens[self.pos] if self.pos < len(tokens) else None
        if tok is not None and tok.kind == kind:
            self.pos += 1
            return tok
        if what is None:
            return None
        column = tok.column if tok else tokens[-1].column + len(tokens[-1].text)
        raise ParseError(SourceSpan(self.lineno, column), f"missing {what}", (what,))

    def _operator(self) -> None:
        """The edge's optional ``label`` or ``matrix`` clause."""
        found = self.found
        found["elabel"] = found["ematrix"] = None
        if self.pos == len(self.tokens):
            return
        tok = self.tokens[self.pos]
        if tok.kind != "word" or tok.text not in ("label", "matrix"):
            raise ParseError(
                SourceSpan(self.lineno, tok.column, len(tok.text)),
                f"unexpected {tok.text!r} after edge endpoints",
                ("label", "matrix"),
            )
        self.pos += 1
        if tok.text == "label":
            found["elabel"] = self._take("word", "operator label")
        else:
            found["ematrix"] = self._take("matrix", "matrix literal")


# ---------------------------------------------------------------------------
# Semantic checks, shared by both paths: each takes a field's text and its
# 1-based column, and words its error in this one place.


def _new_id(ids, text: str, column: int, lineno: int, what: str) -> str:
    if text in ids:
        raise ParseError(
            SourceSpan(lineno, column, len(text)), f"duplicate {what} {text!r}"
        )
    return text


def _field_kind(text: str, column: int, lineno: int) -> FactorKind:
    try:
        return FactorKind(text)
    except ValueError:
        raise ParseError(
            SourceSpan(lineno, column, len(text)),
            f"bad field kind {text!r}",
            ("R", "C", "H"),
        ) from None


def _positive(text: str, column: int, lineno: int, what: str) -> int:
    value = _integer(text, column, lineno)
    if value < 1:
        raise ParseError(
            SourceSpan(lineno, column, len(text)), f"{what} must be positive"
        )
    return value


def _set_kodim(state: _ParserState, text: str, column: int, lineno: int) -> None:
    value = _integer(text, column, lineno)
    if not 0 <= value <= 7:
        raise ParseError(
            SourceSpan(lineno, column, len(text)),
            f"KO-dimension must be in 0..7, got {value}",
        )
    if state.kodim is not None:
        raise ParseError(SourceSpan(lineno, column), "duplicate kodim directive")
    state.kodim = value


def _set_families(state: _ParserState, text: str, column: int, lineno: int) -> None:
    value = _positive(text, column, lineno, "families")
    if state.families is not None:
        raise ParseError(SourceSpan(lineno, column), "duplicate families directive")
    state.families = value


def _rep_label(state: _ParserState, text: str, column: int, lineno: int) -> RepLabel:
    label = state.labels.get(text)
    if label is not None:
        return label
    name = text
    conjugate = name.endswith("~")
    if conjugate:
        name = name[:-1]
    index = state.factor_names.get(name)
    if index is None:
        raise ParseError(
            SourceSpan(lineno, column, len(text)),
            f"unknown factor {name!r}",
        )
    # a factor keeps its index once declared, so a label read once stays valid
    label = state.labels[text] = RepLabel(index, conjugate)
    return label


def _require_vertex(state: _ParserState, text: str, column: int, lineno: int) -> str:
    if text not in state.vertex_ids:
        raise ParseError(
            SourceSpan(lineno, column, len(text)),
            f"undeclared vertex {text!r}",
        )
    return text


# ---------------------------------------------------------------------------
# One builder per directive, reading a match of its _LINE_PATTERN alternative
# or the _Fields of a tokenized line

_SIGNS = {"+": 1, "-": -1}


def _factor_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    name = _new_id(state.factor_names, m["fname"], m.start("fname") + 1, lineno, "factor")
    kind = _field_kind(m["fkind"], m.start("fkind") + 1, lineno)
    size = _positive(m["fsize"], m.start("fsize") + 1, lineno, "factor size")
    state.factor_names[name] = len(state.factors)
    state.factors.append(AlgebraFactor(size, kind))


def _kodim_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    _set_kodim(state, m["kvalue"], m.start("kvalue") + 1, lineno)


def _families_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    _set_families(state, m["nvalue"], m.start("nvalue") + 1, lineno)


def _vertex_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    vid = _new_id(state.vertex_ids, m["vid"], m.start("vid") + 1, lineno, "vertex")
    col = _rep_label(state, m["vcol"], m.start("vcol") + 1, lineno)
    row = _rep_label(state, m["vrow"], m.start("vrow") + 1, lineno)
    state.vertex_ids.add(vid)
    state.vertices.append(DiagramVertex(vid, col, row, _SIGNS.get(m["vsign"])))


def _edge_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    eid = _new_id(state.edge_ids, m["eid"], m.start("eid") + 1, lineno, "edge")
    source = _require_vertex(state, m["esrc"], m.start("esrc") + 1, lineno)
    target = _require_vertex(state, m["edst"], m.start("edst") + 1, lineno)
    operator: SymbolicOperator | NumericOperator
    if m["ematrix"] is not None:
        literal = _matrix_literal(m["ematrix"])
        operator = state.matrices.get(literal)
        if operator is None:
            operator = _parse_matrix(literal, lineno, m.start("ematrix") + 1)
            state.matrices[literal] = operator
    else:
        operator = SymbolicOperator(m["elabel"] or eid)
    state.edge_ids.add(eid)
    state.edges.append(EdgePair(eid, source, target, operator))


def _jmap_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    left = _require_vertex(state, m["jleft"], m.start("jleft") + 1, lineno)
    right = _require_vertex(state, m["jright"], m.start("jright") + 1, lineno)
    state.jmap.append((left, right))


_LINE_FORMS = {
    "factor": _factor_line,
    "kodim": _kodim_line,
    "families": _families_line,
    "vertex": _vertex_line,
    "edge": _edge_line,
    "jmap": _jmap_line,
}


# ---------------------------------------------------------------------------
# Serialization


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_entry(value: GaussRational) -> str:
    """Canonical text for one matrix entry."""
    if value.im == 0:
        return _format_fraction(value.re)
    im_text = f"{_format_fraction(abs(value.im))}*i"
    if value.re == 0:
        return im_text if value.im > 0 else f"-{im_text}"
    joiner = "+" if value.im > 0 else "-"
    return f"{_format_fraction(value.re)}{joiner}{im_text}"


def _factor_display_names(algebra: FiniteAlgebra) -> list[str]:
    names: list[str] = []
    used: dict[str, int] = {}
    for factor in algebra.factors:
        base = f"{factor.kind.value.lower()}{factor.size}"
        used[base] = used.get(base, 0) + 1
        names.append(base if used[base] == 1 else f"{base}_{used[base]}")
    return names


def serialize(d: KrajewskiDiagram) -> str:
    """Canonical text: sorted declarations, resolved jmap, stable spacing."""
    names = _factor_display_names(d.algebra)
    lines = [
        f"factor {names[i]} {f.kind.value} {f.size}"
        for i, f in enumerate(d.algebra.factors)
    ]
    lines.append(f"kodim {d.kodim % 8}")
    lines.append(f"families {d.families}")

    def rep_text(label: RepLabel) -> str:
        return names[label.factor_index] + ("~" if label.conjugate else "")

    for v in sorted(d.vertices, key=lambda v: v.id):
        sign = "" if v.sign is None else (" +" if v.sign > 0 else " -")
        lines.append(f"vertex {v.id} {rep_text(v.col)} {rep_text(v.row)}{sign}")
    for e in sorted(d.edges, key=lambda e: e.id):
        if isinstance(e.operator, SymbolicOperator):
            op = f"label {e.operator.label}"
        else:
            rows = ", ".join(
                "[" + ", ".join(format_entry(x) for x in row) + "]"
                for row in e.operator.matrix
            )
            op = f"matrix [{rows}]"
        lines.append(f"edge {e.id} {e.source} -> {e.target} {op}")
    for a, b in jmap_pairs(d):
        lines.append(f"jmap {a} <-> {b}")
    return "\n".join(lines) + "\n"
