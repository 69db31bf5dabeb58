"""The .kra parser of ``kra.dsl`` as it was before a well-formed line was
read with one pattern match, kept as the reference the parser is compared
against.

Everything from ``_TOKEN_RE`` to ``_DIRECTIVES`` is the earlier code word
for word: every line is split with ``str.splitlines()``, tokenized into
``_Token`` objects and walked by ``_LineParser``, and each matrix entry is
read by ``Fraction`` from its text.  ``SourceSpan`` and ``ParseError`` are
the live classes, so that errors from both parsers compare equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from kra.algebra import AlgebraFactor, FactorKind, FiniteAlgebra, RepLabel
from kra.diagram import (
    DiagramVertex,
    EdgePair,
    KrajewskiDiagram,
    NumericOperator,
    SymbolicOperator,
)
from kra.dsl import ParseError, SourceSpan
from kra.exactlin import GaussRational


_TOKEN_RE = re.compile(
    r"""
    (?P<word>[A-Za-z_][A-Za-z0-9_]*~?)
  | (?P<int>\d+)
  | (?P<darrow><->)
  | (?P<arrow>->)
  | (?P<sign>[+-])
  | (?P<lbracket>\[)
    """,
    re.VERBOSE,
)


@dataclass(slots=True)
class _Token:
    kind: str
    text: str
    column: int  # 1-based


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
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(
                SourceSpan(lineno, pos + 1), f"unexpected character {ch!r}"
            )
        kind = m.lastgroup or ""
        if kind == "lbracket":
            # A matrix literal swallows the rest of the meaningful line.
            rest = line[pos:]
            cut = rest.find("#")
            if cut != -1:
                rest = rest[:cut]
            tokens.append(_Token("matrix", rest.rstrip(), pos + 1))
            return tokens
        tokens.append(_Token(kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


_RAT = r"[+-]?\d+(?:/\d+)?"
_ENTRY_FORMS = [
    (re.compile(rf"^(?P<re>{_RAT})$"), lambda m: (m["re"], "0")),
    (re.compile(r"^(?P<s>[+-]?)i$"), lambda m: ("0", m["s"] + "1")),
    (re.compile(rf"^(?P<im>{_RAT})\*i$"), lambda m: ("0", m["im"])),
    (
        re.compile(rf"^(?P<re>{_RAT})(?P<s>[+-])i$"),
        lambda m: (m["re"], m["s"] + "1"),
    ),
    (
        re.compile(rf"^(?P<re>{_RAT})(?P<s>[+-])(?P<im>\d+(?:/\d+)?)\*i$"),
        lambda m: (m["re"], m["s"] + m["im"]),
    ),
]


def _parse_entry(text: str, lineno: int, column: int) -> GaussRational:
    stripped = text.strip()
    offset = column + (len(text) - len(text.lstrip()))
    for pattern, extract in _ENTRY_FORMS:
        m = pattern.match(stripped)
        if m:
            re_part, im_part = extract(m)
            try:
                return GaussRational(Fraction(re_part), Fraction(im_part))
            except ZeroDivisionError:
                raise ParseError(
                    SourceSpan(lineno, offset, len(stripped)),
                    "zero denominator in matrix entry",
                ) from None
    raise ParseError(
        SourceSpan(lineno, offset, max(len(stripped), 1)),
        f"malformed matrix entry {stripped!r}",
        expected=("a/b+c/d*i",),
    )


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
    kodim: int | None = None
    families: int | None = None
    vertices: list[DiagramVertex] = field(default_factory=list)
    vertex_ids: set[str] = field(default_factory=set)
    edges: list[EdgePair] = field(default_factory=list)
    edge_ids: set[str] = field(default_factory=set)
    jmap: list[tuple[str, str]] = field(default_factory=list)


class _LineParser:
    def __init__(self, tokens: list[_Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            col = tok.column if tok else (self.tokens[-1].column + len(self.tokens[-1].text))
            raise ParseError(SourceSpan(self.lineno, col), f"missing {what}", (what,))
        self.pos += 1
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(
                SourceSpan(self.lineno, tok.column, len(tok.text)),
                f"unexpected trailing {tok.text!r}",
            )


def parse(text: str) -> KrajewskiDiagram:
    """Parse source text into a (not yet validated) diagram."""
    state = _ParserState()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind != "word":
            raise ParseError(
                SourceSpan(lineno, head.column, len(head.text)),
                f"expected a directive, got {head.text!r}",
                ("factor", "kodim", "families", "vertex", "edge", "jmap"),
            )
        parser = _LineParser(tokens, lineno)
        parser.pos = 1
        handler = _DIRECTIVES.get(head.text)
        if handler is None:
            raise ParseError(
                SourceSpan(lineno, head.column, len(head.text)),
                f"unknown directive {head.text!r}",
                ("factor", "kodim", "families", "vertex", "edge", "jmap"),
            )
        handler(state, parser)
        parser.done()
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


def _directive_factor(state: _ParserState, p: _LineParser) -> None:
    name = p.take("word", "factor name")
    if name.text in state.factor_names:
        raise ParseError(
            SourceSpan(p.lineno, name.column, len(name.text)),
            f"duplicate factor {name.text!r}",
        )
    kind_tok = p.take("word", "field kind R|C|H")
    try:
        kind = FactorKind(kind_tok.text)
    except ValueError:
        raise ParseError(
            SourceSpan(p.lineno, kind_tok.column, len(kind_tok.text)),
            f"bad field kind {kind_tok.text!r}",
            ("R", "C", "H"),
        ) from None
    size_tok = p.take("int", "factor size")
    size = int(size_tok.text)
    if size < 1:
        raise ParseError(
            SourceSpan(p.lineno, size_tok.column, len(size_tok.text)),
            "factor size must be positive",
        )
    state.factor_names[name.text] = len(state.factors)
    state.factors.append(AlgebraFactor(size, kind))


def _directive_kodim(state: _ParserState, p: _LineParser) -> None:
    tok = p.take("int", "KO-dimension 0..7")
    value = int(tok.text)
    if not 0 <= value <= 7:
        raise ParseError(
            SourceSpan(p.lineno, tok.column, len(tok.text)),
            f"KO-dimension must be in 0..7, got {value}",
        )
    if state.kodim is not None:
        raise ParseError(SourceSpan(p.lineno, tok.column), "duplicate kodim directive")
    state.kodim = value


def _directive_families(state: _ParserState, p: _LineParser) -> None:
    tok = p.take("int", "family count")
    value = int(tok.text)
    if value < 1:
        raise ParseError(
            SourceSpan(p.lineno, tok.column, len(tok.text)),
            "families must be positive",
        )
    if state.families is not None:
        raise ParseError(SourceSpan(p.lineno, tok.column), "duplicate families directive")
    state.families = value


def _rep_from_token(state: _ParserState, tok: _Token, lineno: int) -> RepLabel:
    name = tok.text
    conjugate = name.endswith("~")
    if conjugate:
        name = name[:-1]
    index = state.factor_names.get(name)
    if index is None:
        raise ParseError(
            SourceSpan(lineno, tok.column, len(tok.text)),
            f"unknown factor {name!r}",
        )
    return RepLabel(index, conjugate)


def _directive_vertex(state: _ParserState, p: _LineParser) -> None:
    vid = p.take("word", "vertex id")
    if vid.text in state.vertex_ids:
        raise ParseError(
            SourceSpan(p.lineno, vid.column, len(vid.text)),
            f"duplicate vertex {vid.text!r}",
        )
    col = _rep_from_token(state, p.take("word", "column rep"), p.lineno)
    row = _rep_from_token(state, p.take("word", "row rep"), p.lineno)
    sign: int | None = None
    tok = p.peek()
    if tok is not None and tok.kind == "sign":
        sign = 1 if tok.text == "+" else -1
        p.pos += 1
    state.vertex_ids.add(vid.text)
    state.vertices.append(DiagramVertex(vid.text, col, row, sign))


def _require_vertex(state: _ParserState, tok: _Token, lineno: int) -> str:
    if tok.text not in state.vertex_ids:
        raise ParseError(
            SourceSpan(lineno, tok.column, len(tok.text)),
            f"undeclared vertex {tok.text!r}",
        )
    return tok.text


def _directive_edge(state: _ParserState, p: _LineParser) -> None:
    eid = p.take("word", "edge id")
    if eid.text in state.edge_ids:
        raise ParseError(
            SourceSpan(p.lineno, eid.column, len(eid.text)),
            f"duplicate edge {eid.text!r}",
        )
    source = _require_vertex(state, p.take("word", "source vertex"), p.lineno)
    p.take("arrow", "'->'")
    target = _require_vertex(state, p.take("word", "target vertex"), p.lineno)
    operator: SymbolicOperator | NumericOperator
    tok = p.peek()
    if tok is None:
        operator = SymbolicOperator(eid.text)
    elif tok.kind == "word" and tok.text == "label":
        p.pos += 1
        label = p.take("word", "operator label")
        operator = SymbolicOperator(label.text)
    elif tok.kind == "word" and tok.text == "matrix":
        p.pos += 1
        lit = p.take("matrix", "matrix literal")
        operator = _parse_matrix(lit.text, p.lineno, lit.column)
    else:
        raise ParseError(
            SourceSpan(p.lineno, tok.column, len(tok.text)),
            f"unexpected {tok.text!r} after edge endpoints",
            ("label", "matrix"),
        )
    state.edge_ids.add(eid.text)
    state.edges.append(EdgePair(eid.text, source, target, operator))


def _directive_jmap(state: _ParserState, p: _LineParser) -> None:
    left = _require_vertex(state, p.take("word", "vertex id"), p.lineno)
    p.take("darrow", "'<->'")
    right = _require_vertex(state, p.take("word", "vertex id"), p.lineno)
    state.jmap.append((left, right))


_DIRECTIVES = {
    "factor": _directive_factor,
    "kodim": _directive_kodim,
    "families": _directive_families,
    "vertex": _directive_vertex,
    "edge": _directive_edge,
    "jmap": _directive_jmap,
}
