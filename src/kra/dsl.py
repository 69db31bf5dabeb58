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

A line spaced as ``serialize`` writes it is read by one match of one
pattern; any other line is tokenized.  Every matrix literal, however it is
spaced, is read by one span-tracking reader, which also words and places
every matrix error.  Each parse keeps three tables, dropped when it
returns: literal text -> operator and operator label -> operator, so an
edge and its j-mirror share one operator, and stripped entry text -> value,
so each distinct entry is read once whatever the spacing around it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# The grammar, stated once: the one-match line pattern, the token pattern and
# the walk of a tokenized line are all built from these three tables.

# Each token kind and its pattern, in the order the tokenizer tries them.  A
# matrix literal runs to the end of the line.
_KINDS = {
    "word": r"[A-Za-z_][A-Za-z0-9_]*~?",
    "int": r"[0-9]+",
    "darrow": r"<->",
    "arrow": r"->",
    "sign": r"[+-]",
    "matrix": r"\[.*",
}

# The fields of each directive in order: (the line pattern's group, or None
# for a token no builder reads; the token kind; what a missing one is called,
# or None for the optional vertex sign).
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

# The optional clause that may end a directive's line: its keyword -> the
# field that follows it, as in _GRAMMAR.
_CLAUSES = {
    "edge": {"label": ("elabel", "word", "operator label"),
             "matrix": ("ematrix", "matrix", "matrix literal")},
}


@functools.cache
def _line_re() -> re.Pattern[str]:
    """A declaration line spaced as serialize writes it, in one match.  The
    directives are tried in reverse grammar order, so the frequent ones
    (jmap, edge, vertex) come first.  Compiled at the first parse: about 2 ms
    that a process reading no .kra text does not pay."""

    def capture(group: str | None, kind: str) -> str:
        return _KINDS[kind] if group is None else f"(?P<{group}>{_KINDS[kind]})"

    forms = []
    for directive in reversed(_GRAMMAR):
        body = "".join(
            f" +{capture(group, kind)}" if what else f"(?: +{capture(group, kind)})?"
            for group, kind, what in _GRAMMAR[directive]
        )
        clause = _CLAUSES.get(directive)
        if clause:
            body += "(?:" + "|".join(
                f" +{keyword} +{capture(group, kind)}"
                for keyword, (group, kind, _what) in clause.items()
            ) + ")?"
        forms.append(f"(?P<{directive}>{directive}{body})")
    return re.compile(f" *(?:{'|'.join(forms)}) *")


@functools.cache
def _token_re() -> re.Pattern[str]:
    """One token of any kind, compiled at the first line that _line_re
    refuses."""
    return re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _KINDS.items()))


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
        kind, text = m.lastgroup, m.group()
        # a matrix literal swallows the rest of the meaningful line
        tokens.append(_Token(kind, _matrix_literal(text) if kind == "matrix" else text, pos + 1))
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


@functools.cache
def _bracket_re() -> re.Pattern[str]:
    """A bracket or a comma, the only characters that split a literal into
    rows; compiled at the first matrix literal."""
    return re.compile(r"[][,]")


_ZERO, _ONE = Fraction(0), Fraction(1)


def _integer(m, group, lineno: int, offset: int = 1) -> int:
    """The value of an integer field, an optional sign and ASCII digits; one
    too long for ``int`` is a parse error at its span.  The field is group
    of m, at column offset + m.start(group)."""
    text = m[group]
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(
            SourceSpan(lineno, offset + m.start(group), len(text)),
            f"integer too long ({len(text)} digits)",
        ) from None


def _parse_entry(text: str, lineno: int, column: int) -> GaussRational:
    """The value of one matrix entry that starts at column; spaces around it
    are skipped.  Its spans are worked out only to raise an error."""
    stripped = text.strip()
    m = _entry_re().fullmatch(stripped) if stripped else None
    if m is None:
        raise ParseError(
            SourceSpan(lineno, _entry_column(text, column), max(len(stripped), 1)),
            f"malformed matrix entry {stripped!r}",
            expected=("a/b+c/d*i",),
        )
    re_num, re_den, sign, im_num, im_den, unit = m.groups()
    try:
        re_part = im_part = _ZERO
        if re_num:
            re_part = Fraction(int(re_num), int(re_den)) if re_den else Fraction(int(re_num))
        if unit:
            if im_den:
                im_part = Fraction(int(im_num), int(im_den))
            else:
                im_part = Fraction(int(im_num)) if im_num else _ONE
            if sign == "-":
                im_part = -im_part
    except ValueError:  # more digits than int() reads: the first such group
        offset = _entry_column(text, column)
        for group in (1, 2, 4, 5):
            if m[group]:
                _integer(m, group, lineno, offset)
        raise
    except ZeroDivisionError:
        raise ParseError(
            SourceSpan(lineno, _entry_column(text, column), len(stripped)),
            "zero denominator in matrix entry",
        ) from None
    return GaussRational(re_part, im_part)


def _entry_column(text: str, column: int) -> int:
    """The column of an entry's first character, past the spaces before it."""
    return column + len(text) - len(text.lstrip())


def _split_top_level(text: str) -> list[tuple[str, int]]:
    """Split on top-level commas; returns (chunk, offset-within-text)."""
    chunks: list[tuple[str, int]] = []
    start = 0
    if "[" not in text and "]" not in text:  # a row: every comma is top-level
        for chunk in text.split(","):
            chunks.append((chunk, start))
            start += len(chunk) + 1
        return chunks
    depth = 0
    for m in _bracket_re().finditer(text):
        ch, i = m[0], m.start()
        if ch != ",":
            depth += 1 if ch == "[" else -1
        elif depth == 0:
            chunks.append((text[start:i], start))
            start = i + 1
    chunks.append((text[start:], start))
    return chunks


def _parse_matrix(
    entries: dict[str, GaussRational], literal: str, lineno: int, column: int
) -> NumericOperator:
    """The operator of a literal that starts at column.  A cell is read only
    on a miss of entries, keyed by its stripped text."""
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
        row = []
        row_inner = row_text[1:-1]
        if row_inner.strip():
            for cell, cell_off in _split_top_level(row_inner):
                value = entries.get(key := cell.strip())
                if value is None:
                    value = entries[key] = _parse_entry(cell, lineno, row_col + 1 + cell_off)
                row.append(value)
        rows.append(tuple(row))
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
    # matrix literal text -> the operator it parsed to, and operator label ->
    # its operator: an edge and its j-mirror carry the same matrix or label,
    # so the second shares the first one's operator
    matrices: dict[str, NumericOperator] = field(default_factory=dict)
    symbols: dict[str, SymbolicOperator] = field(default_factory=dict)
    # stripped entry text -> its value
    entries: dict[str, GaussRational] = field(default_factory=dict)


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
    """Parse one line token by token: the path of every line that _line_re
    does not take, and the only one that words a syntax error.  Its fields
    go to the same _LINE_FORMS builder as a match's."""
    tokens = _tokenize(line, lineno)
    if not tokens:
        return
    head = tokens[0]
    if head.kind != "word" or head.text not in _GRAMMAR:
        message = "unknown directive" if head.kind == "word" else "expected a directive, got"
        span = SourceSpan(lineno, head.column, len(head.text))
        raise ParseError(span, f"{message} {head.text!r}", tuple(_GRAMMAR))
    fields = _Fields(tokens, lineno, head.text)
    _LINE_FORMS[head.text](state, fields, lineno)
    if fields.pos < len(tokens):
        tok = tokens[fields.pos]
        span = SourceSpan(lineno, tok.column, len(tok.text))
        raise ParseError(span, f"unexpected trailing {tok.text!r}")


class _Fields:
    """A tokenized line as a _LINE_FORMS builder reads it: ``f[group]`` and
    ``f.start(group)`` answer as on a match of _line_re.  The line is walked
    once, in grammar order, up to the first field it lacks; asking for that
    field or a later one raises its error.  Builders ask in grammar order, so
    a syntax error comes after the semantic checks of the fields before it."""

    __slots__ = ("tokens", "lineno", "pos", "found", "error")

    def __init__(self, tokens: list[_Token], lineno: int, directive: str) -> None:
        self.tokens, self.lineno, self.pos = tokens, lineno, 1  # past the directive
        self.found: dict[str | None, _Token | None] = {}
        self.error = self._walk(directive)

    def __getitem__(self, group: str) -> str | None:
        tok = self._field(group)
        return None if tok is None else tok.text

    def start(self, group: str) -> int:
        return self._field(group).column - 1

    def _field(self, group: str) -> _Token | None:
        if group in self.found or self.error is None:  # an absent clause is None
            return self.found.get(group)
        raise self.error

    def _walk(self, directive: str) -> ParseError | None:
        """Take the directive's fields, then its clause if the line goes on;
        the error of the first field the line lacks, or None."""
        for group, kind, what in _GRAMMAR[directive]:
            if (error := self._take(group, kind, what)) is not None:
                return error
        clause = _CLAUSES.get(directive)
        if clause is None or self.pos == len(self.tokens):
            return None
        tok = self.tokens[self.pos]
        if tok.kind != "word" or tok.text not in clause:
            span = SourceSpan(self.lineno, tok.column, len(tok.text))
            message = f"unexpected {tok.text!r} after {directive} endpoints"
            return ParseError(span, message, tuple(clause))
        self.pos += 1
        return self._take(*clause[tok.text])

    def _take(self, group: str | None, kind: str, what: str | None) -> ParseError | None:
        """Take the next token as group if it is of kind; the error of a
        missing required field, or None."""
        tokens = self.tokens
        tok = tokens[self.pos] if self.pos < len(tokens) else None
        if tok is not None and tok.kind == kind:
            self.pos += 1
        elif what is None:
            tok = None  # an optional field the line leaves out
        else:
            column = tok.column if tok else tokens[-1].column + len(tokens[-1].text)
            return ParseError(SourceSpan(self.lineno, column), f"missing {what}", (what,))
        self.found[group] = tok
        return None


# ---------------------------------------------------------------------------
# Semantic checks, shared by the builders: each takes the match (or _Fields)
# of a line and a field's group, words its error in this one place, and
# reads the field's column only to raise it.


def _span(m, group: str, lineno: int) -> SourceSpan:
    return SourceSpan(lineno, m.start(group) + 1, len(m[group]))


def _duplicate(m, group: str, lineno: int, what: str) -> ParseError:
    return ParseError(_span(m, group, lineno), f"duplicate {what} {m[group]!r}")


def _undeclared(m, group: str, lineno: int) -> ParseError:
    return ParseError(_span(m, group, lineno), f"undeclared vertex {m[group]!r}")


def _field_kind(m, group: str, lineno: int) -> FactorKind:
    text = m[group]
    try:
        return FactorKind(text)
    except ValueError:
        raise ParseError(
            _span(m, group, lineno), f"bad field kind {text!r}", ("R", "C", "H")
        ) from None


def _positive(m, group: str, lineno: int, what: str) -> int:
    value = _integer(m, group, lineno)
    if value < 1:
        raise ParseError(_span(m, group, lineno), f"{what} must be positive")
    return value


def _rep_label(state: _ParserState, m, group: str, lineno: int) -> RepLabel:
    """The label a field names, on a miss of ``state.labels``."""
    text = name = m[group]
    conjugate = name.endswith("~")
    if conjugate:
        name = name[:-1]
    index = state.factor_names.get(name)
    if index is None:
        raise ParseError(_span(m, group, lineno), f"unknown factor {name!r}")
    # a factor keeps its index once declared, so a label read once stays valid
    label = state.labels[text] = RepLabel(index, conjugate)
    return label


def _matrix(state: _ParserState, m, lineno: int) -> NumericOperator:
    """The operator of an edge's matrix literal, read once per parse."""
    literal = _matrix_literal(m["ematrix"])
    operator = state.matrices.get(literal)
    if operator is None:
        operator = state.matrices[literal] = _parse_matrix(
            state.entries, literal, lineno, m.start("ematrix") + 1
        )
    return operator


# ---------------------------------------------------------------------------
# One builder per directive, reading a match of _line_re or the _Fields of a
# tokenized line.  Each asks for its fields in grammar order.

_SIGNS = {"+": 1, "-": -1}


def _factor_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    name = m["fname"]
    if name in state.factor_names:
        raise _duplicate(m, "fname", lineno, "factor")
    kind = _field_kind(m, "fkind", lineno)
    size = _positive(m, "fsize", lineno, "factor size")
    state.factor_names[name] = len(state.factors)
    state.factors.append(AlgebraFactor(size, kind))


def _kodim_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    value = _integer(m, "kvalue", lineno)
    if not 0 <= value <= 7:
        raise ParseError(_span(m, "kvalue", lineno), f"KO-dimension must be in 0..7, got {value}")
    if state.kodim is not None:
        raise ParseError(SourceSpan(lineno, m.start("kvalue") + 1), "duplicate kodim directive")
    state.kodim = value


def _families_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    value = _positive(m, "nvalue", lineno, "families")
    if state.families is not None:
        raise ParseError(SourceSpan(lineno, m.start("nvalue") + 1), "duplicate families directive")
    state.families = value


def _vertex_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    vid = m["vid"]
    if vid in state.vertex_ids:
        raise _duplicate(m, "vid", lineno, "vertex")
    labels = state.labels
    col = labels.get(m["vcol"]) or _rep_label(state, m, "vcol", lineno)
    row = labels.get(m["vrow"]) or _rep_label(state, m, "vrow", lineno)
    state.vertex_ids.add(vid)
    state.vertices.append(DiagramVertex(vid, col, row, _SIGNS.get(m["vsign"])))


def _edge_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    eid = m["eid"]
    if eid in state.edge_ids:
        raise _duplicate(m, "eid", lineno, "edge")
    vertex_ids = state.vertex_ids
    if (source := m["esrc"]) not in vertex_ids:
        raise _undeclared(m, "esrc", lineno)
    if (target := m["edst"]) not in vertex_ids:
        raise _undeclared(m, "edst", lineno)
    operator: SymbolicOperator | NumericOperator
    if m["ematrix"] is not None:
        operator = _matrix(state, m, lineno)
    else:
        label = m["elabel"] or eid
        operator = state.symbols.get(label)
        if operator is None:
            operator = state.symbols[label] = SymbolicOperator(label)
    state.edge_ids.add(eid)
    state.edges.append(EdgePair(eid, source, target, operator))


def _jmap_line(state: _ParserState, m: re.Match, lineno: int) -> None:
    vertex_ids = state.vertex_ids
    if (left := m["jleft"]) not in vertex_ids:
        raise _undeclared(m, "jleft", lineno)
    if (right := m["jright"]) not in vertex_ids:
        raise _undeclared(m, "jright", lineno)
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


def format_entry(value: GaussRational) -> str:
    """Canonical text for one matrix entry.  A fraction prints as ``a`` or
    ``a/b``, as ``str`` writes it."""
    re_part, im_part = value.re, value.im
    if not im_part:
        return str(re_part)
    im_text = str(im_part)
    if not re_part:
        return f"{im_text}*i"
    joiner = "" if im_text[0] == "-" else "+"
    return f"{str(re_part)}{joiner}{im_text}*i"


_by_id = attrgetter("id")


def _factor_display_names(algebra: FiniteAlgebra) -> list[str]:
    names: list[str] = []
    used: dict[str, int] = {}
    for factor in algebra.factors:
        base = f"{factor.kind.value.lower()}{factor.size}"
        used[base] = used.get(base, 0) + 1
        names.append(base if used[base] == 1 else f"{base}_{used[base]}")
    return names


def serialize(d: KrajewskiDiagram) -> str:
    """Canonical text: sorted declarations, resolved jmap, stable spacing.
    Each matrix object is formatted once per call; an edge and its j-mirror
    usually share one."""
    names = _factor_display_names(d.algebra)
    lines = [
        f"factor {names[i]} {f.kind.value} {f.size}"
        for i, f in enumerate(d.algebra.factors)
    ]
    lines.append(f"kodim {d.kodim % 8}")
    lines.append(f"families {d.families}")
    # the text of each label, as texts[label.conjugate][label.factor_index]
    texts = (names, [f"{name}~" for name in names])
    for v in sorted(d.vertices, key=_by_id):
        col, row = v.col, v.row
        sign = "" if v.sign is None else (" +" if v.sign > 0 else " -")
        lines.append(
            f"vertex {v.id} {texts[col.conjugate][col.factor_index]} "
            f"{texts[row.conjugate][row.factor_index]}{sign}"
        )
    literals: dict[int, str] = {}  # id(matrix) -> its literal
    for e in sorted(d.edges, key=_by_id):
        operator = e.operator
        if isinstance(operator, SymbolicOperator):
            op = f"label {operator.label}"
        else:
            matrix = operator.matrix
            op = literals.get(id(matrix))
            if op is None:
                rows = ", ".join(
                    "[" + ", ".join(map(format_entry, row)) + "]" for row in matrix
                )
                op = literals[id(matrix)] = f"matrix [{rows}]"
        lines.append(f"edge {e.id} {e.source} -> {e.target} {op}")
    for a, b in jmap_pairs(d):
        lines.append(f"jmap {a} <-> {b}")
    return "\n".join(lines) + "\n"
