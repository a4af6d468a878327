"""Parse and render presentation files (.plg).

Two equivalent surface forms are accepted:

* angle form, for one-0-cell presentations with auto-named relations::

      # the 3-strand braid group
      < a, b | a b a = b a b >

  The single 0-cell is called ``*`` and the relations get ids r1, r2, ...
  in order of appearance.  The relation list may be empty: ``< a | >``.

* block form, which spells everything out::

      polygraph
      cells: x y
      gen a : x -> y
      gen b : y -> x
      rel r : a b = 1

``#`` starts a comment anywhere.  Identifiers match [A-Za-z][A-Za-z0-9_]*;
``1`` (the identity word) and ``*`` (the default 0-cell) are reserved and
are not identifiers.  A relation whose two sides are both identity words
needs a basepoint; in block form with several 0-cells it is written with a
trailing ``@ cell``, e.g. ``rel r : 1 = 1 @ x``.

render() writes the angle form whenever the polygraph fits it exactly
(single 0-cell ``*`` and relation ids r1..rn in order), block form
otherwise, and parse(render(p)) reproduces p on the nose.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError, SourceSpan
from .words import IDENT_RE, Letter, Word, expand_runs, format_word, scan_terms

from .model import DEFAULT_CELL, Polygraph, Sphere

__all__ = ["parse", "render"]


class _Token(NamedTuple):
    kind: str  # "ident" | "term" | "sym" | "nl" | "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, max(1, len(self.text)))


# One token at a time, and every character falls in one: a newline, other
# space, a comment, a symbol, or a piece of other text up to the next of
# those ("-" starts a piece unless it starts "->").
_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|[^\S\n]+|#[^\n]*|(?P<sym>->|[<>|,=:*@])|(?P<piece>(?:[^\s#<>|,=:*@-]|-(?!>))+)"
)


def _tokenize(text: str) -> list[_Token]:
    """Symbols, newlines, and pieces of other text between them.

    A piece is an identifier or some other word term; words.scan_terms
    decides what a term means.
    """
    tokens: list[_Token] = []
    line, line_start = 1, 0  # the offset where the current line starts
    for match in _TOKEN_RE.finditer(text):
        kind, piece = match.lastgroup, match.group()
        if kind == "piece":
            kind = "ident" if IDENT_RE.fullmatch(piece) else "term"
        if kind is not None:
            tokens.append(_Token(kind, piece, line, match.start() - line_start + 1))
        if kind == "nl":
            line, line_start = line + 1, match.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def skip_blank_lines(self) -> None:
        while self.tokens[self.pos].kind == "nl":
            self.pos += 1

    def expect_sym(self, sym: str) -> _Token:
        token = self.take()
        if token.kind != "sym" or token.text != sym:
            raise ParseError(f"expected {sym!r}, found {token.text or 'end of input'!r}", token.span)
        return token

    def expect_ident(self, what: str) -> _Token:
        token = self.take()
        if token.kind != "ident":
            raise ParseError(f"expected {what}, found {token.text or 'end of input'!r}", token.span)
        return token


def _is_sym(token: _Token, sym: str) -> bool:
    return token.kind == "sym" and token.text == sym


# ---------------------------------------------------------------- words


def _parse_word_tokens(
    parser: _Parser, gens: dict[str, tuple[str, str]], stop_syms: set[str]
) -> tuple[list[Letter], _Token]:
    """Parse a word up to one of stop_syms.

    Returns (letters, first_token); no letters means an identity word
    (written ``1``), whose basepoint the caller must supply.
    """
    first = parser.peek()
    pieces: list[tuple[str, int, int]] = []
    while True:
        token = parser.peek()
        if token.kind in ("nl", "eof") or (token.kind == "sym" and token.text in stop_syms):
            break
        if token.kind == "sym":
            raise ParseError(f"expected a word term, found {token.text!r}", token.span)
        parser.take()
        pieces.append((token.text, token.line, token.col))
    if not pieces:
        raise ParseError("expected a word", first.span)
    return expand_runs(scan_terms(pieces), gens), first


def _build_word(
    letters: list[Letter],
    gens: dict[str, tuple[str, str]],
    at: str | None,
    where: _Token,
) -> Word | None:
    """Assemble checked word; None when identity with unknown basepoint."""
    if not letters:
        return Word.identity(at) if at is not None else None
    try:
        return Word.from_letters(letters, gens)
    except Exception as exc:
        raise ParseError(str(exc), where.span) from exc


# ---------------------------------------------------------------- angle form


def _parse_angle(parser: _Parser) -> Polygraph:
    parser.expect_sym("<")
    gens: dict[str, tuple[str, str]] = {}
    while True:
        token = parser.expect_ident("a generator name")
        if token.text in gens:
            raise ParseError(f"duplicate generator {token.text!r}", token.span)
        gens[token.text] = (DEFAULT_CELL, DEFAULT_CELL)
        nxt = parser.take()
        if _is_sym(nxt, ","):
            continue
        if _is_sym(nxt, "|"):
            break
        raise ParseError(f"expected ',' or '|', found {nxt.text!r}", nxt.span)
    rels: dict[str, Sphere] = {}
    if _is_sym(parser.peek(), ">"):
        parser.take()
    else:
        index = 1
        while True:
            lhs_letters, lhs_tok = _parse_word_tokens(parser, gens, {"="})
            parser.expect_sym("=")
            rhs_letters, rhs_tok = _parse_word_tokens(parser, gens, {",", ">"})
            # Every word of the angle form lies at its one 0-cell.
            lhs = _build_word(lhs_letters, gens, DEFAULT_CELL, lhs_tok)
            rhs = _build_word(rhs_letters, gens, DEFAULT_CELL, rhs_tok)
            rels[f"r{index}"] = (lhs, rhs)
            index += 1
            nxt = parser.take()
            if _is_sym(nxt, ","):
                continue
            if _is_sym(nxt, ">"):
                break
            raise ParseError(f"expected ',' or '>', found {nxt.text!r}", nxt.span)
    tail = parser.take()
    if tail.kind != "eof":
        raise ParseError(f"unexpected trailing {tail.text!r}", tail.span)
    return Polygraph((DEFAULT_CELL,), gens, rels)


# ---------------------------------------------------------------- block form


def _expect_cell_name(parser: _Parser) -> _Token:
    token = parser.take()
    if token.kind == "ident" or (token.kind == "sym" and token.text == "*"):
        return token
    raise ParseError(f"expected a 0-cell name, found {token.text!r}", token.span)


def _parse_block(parser: _Parser) -> Polygraph:
    parser.skip_blank_lines()
    parser.take()  # "polygraph", which parse() has seen
    cells: list[str] | None = None
    gens: dict[str, tuple[str, str]] = {}
    rels: dict[str, Sphere] = {}
    while True:
        parser.skip_blank_lines()
        token = parser.take()
        if token.kind == "eof":
            break
        if token.kind != "ident":
            raise ParseError(f"expected 'cells:', 'gen' or 'rel', found {token.text!r}", token.span)
        if token.text == "cells":
            if cells is not None:
                raise ParseError("duplicate cells: line", token.span)
            if gens or rels:
                raise ParseError("cells: must come before gen/rel lines", token.span)
            parser.expect_sym(":")
            cells = []
            while parser.peek().kind not in ("nl", "eof"):
                cell_token = _expect_cell_name(parser)
                if cell_token.text in cells:
                    raise ParseError(f"duplicate 0-cell {cell_token.text!r}", cell_token.span)
                cells.append(cell_token.text)
        elif token.text == "gen":
            name_token = parser.expect_ident("a generator name")
            if name_token.text in gens:
                raise ParseError(f"duplicate generator {name_token.text!r}", name_token.span)
            parser.expect_sym(":")
            src_token = _expect_cell_name(parser)
            parser.expect_sym("->")
            tgt_token = _expect_cell_name(parser)
            for cell_token in (src_token, tgt_token):
                if cells is not None and cell_token.text not in cells:
                    raise ParseError(
                        f"endpoint {cell_token.text!r} is not a declared 0-cell",
                        cell_token.span,
                    )
            gens[name_token.text] = (src_token.text, tgt_token.text)
        elif token.text == "rel":
            name_token = parser.expect_ident("a relation name")
            if name_token.text in rels:
                raise ParseError(f"duplicate relation {name_token.text!r}", name_token.span)
            parser.expect_sym(":")
            lhs_letters, lhs_tok = _parse_word_tokens(parser, gens, {"="})
            parser.expect_sym("=")
            rhs_letters, rhs_tok = _parse_word_tokens(parser, gens, {"@"})
            at: str | None = None
            if _is_sym(parser.peek(), "@"):
                parser.take()
                at_token = _expect_cell_name(parser)
                if cells is not None and at_token.text not in cells:
                    raise ParseError(
                        f"basepoint {at_token.text!r} is not a declared 0-cell",
                        at_token.span,
                    )
                at = at_token.text
            lhs = _build_word(lhs_letters, gens, at, lhs_tok)
            rhs = _build_word(rhs_letters, gens, at, rhs_tok)
            if lhs is None and rhs is not None:
                lhs = Word.identity(rhs.src)
            if rhs is None and lhs is not None:
                rhs = Word.identity(lhs.src)
            if lhs is None and rhs is None:
                known = cells if cells is not None else []
                if len(known) == 1:
                    lhs = rhs = Word.identity(known[0])
                else:
                    raise ParseError(
                        "1 = 1 needs a basepoint: write 'rel r : 1 = 1 @ cell'",
                        name_token.span,
                    )
            if (lhs.src, lhs.tgt) != (rhs.src, rhs.tgt):
                raise ParseError("relation sides are not parallel", lhs_tok.span)
            rels[name_token.text] = (lhs, rhs)
        else:
            raise ParseError(
                f"expected 'cells:', 'gen' or 'rel', found {token.text!r}", token.span
            )
        tail = parser.take()
        if tail.kind not in ("nl", "eof"):
            raise ParseError(f"unexpected trailing {tail.text!r}", tail.span)
        if tail.kind == "eof":
            break
    if cells is None:
        cells = []
        for src, tgt in gens.values():
            if src not in cells:
                cells.append(src)
            if tgt not in cells:
                cells.append(tgt)
    return Polygraph(tuple(cells), gens, rels)


# ---------------------------------------------------------------- entry points


def parse(text: str) -> Polygraph:
    """Parse presentation text (either surface form) into a Polygraph."""
    tokens = _tokenize(text)
    first = next(token for token in tokens if token.kind != "nl")
    if _is_sym(first, "<"):
        # Newlines mean nothing in the angle form.
        return _parse_angle(_Parser([token for token in tokens if token.kind != "nl"]))
    if first.kind == "ident" and first.text == "polygraph":
        return _parse_block(_Parser(tokens))
    raise ParseError("a presentation starts with '<' or 'polygraph'", first.span)


def _fits_angle(p: Polygraph) -> bool:
    if p.cells0 != (DEFAULT_CELL,) or not p.gens:
        return False
    return list(p.rels) == [f"r{i + 1}" for i in range(len(p.rels))]


def render(p: Polygraph) -> str:
    """Canonical text for a polygraph; parse(render(p)) == p exactly."""
    if _fits_angle(p):
        gen_part = ", ".join(p.gens)
        rel_part = ", ".join(
            f"{format_word(lhs)} = {format_word(rhs)}" for lhs, rhs in p.rels.values()
        )
        return f"< {gen_part} | {rel_part} >" if rel_part else f"< {gen_part} | >"
    lines = ["polygraph"]
    if p.cells0:
        lines.append("cells: " + " ".join(p.cells0))
    for gen, (src, tgt) in p.gens.items():
        lines.append(f"gen {gen} : {src} -> {tgt}")
    for rel, (lhs, rhs) in p.rels.items():
        suffix = ""
        if lhs.is_identity() and rhs.is_identity() and len(p.cells0) != 1:
            suffix = f" @ {lhs.src}"
        lines.append(f"rel {rel} : {format_word(lhs)} = {format_word(rhs)}{suffix}")
    return "\n".join(lines) + "\n"
