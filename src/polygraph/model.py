"""Presentations as 2-polygraphs, and derivations between their words.

A polygraph here has three levels:

* 0-cells: named points (a group presentation has just one, ``*``);
* 1-generators: named arrows between 0-cells, whose signed letters form
  zigzag words (see words.py);
* relations: named pairs of parallel words (same source, same target) —
  the 2-generators of the presentation.

A Derivation is a finite proof tree witnessing that one word can be turned
into another using the relations.  Its leaves are relation applications,
identity words, and the two cancellation witnesses for an inverse pair;
its internal nodes are side-by-side (horizontal) and one-after-another
(vertical) composition, plus formal inversion.  Derivations are compared
only through their boundary: which pair of words they connect.

Vertical composition is strict on purpose: the middle words must match
letter for letter, not merely up to free reduction.  Cancellation is a
move you must spend a node on, never a silent identification.

A derivation's text is an s-expression, the witness syntax of .tz scripts:
``format_derivation`` writes it and ``parse_derivation`` reads it, with no
module beyond ``words`` and ``errors``, so a checker of written witnesses
loads none of the search or rewriting engines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import IllTyped, ParseError, SourceSpan, UnknownCell
from .words import Letter, Word, format_word, parse_word, scan_terms, word_of_runs

__all__ = [
    "Polygraph",
    "Sphere",
    "ValidationIssue",
    "validate",
    "euler_data",
    "Derivation",
    "Gen",
    "Horiz",
    "Vert",
    "Id",
    "Inv",
    "CancelLeft",
    "CancelRight",
    "boundary",
    "format_derivation",
    "parse_derivation",
    "DEFAULT_CELL",
]

# The reserved name of the unique 0-cell of a group presentation.
DEFAULT_CELL = "*"

# A relation's boundary: an ordered pair of parallel words.
Sphere = tuple[Word, Word]


@dataclass
class Polygraph:
    """A 2-polygraph: 0-cells, 1-generators with endpoints, named relations.

    All three containers keep declaration order (tuples and insertion-ordered
    dicts), which downstream code relies on for deterministic output.  Treat
    instances as immutable; operations that change a polygraph return a new
    one.
    """

    cells0: tuple[str, ...] = (DEFAULT_CELL,)
    gens: dict[str, tuple[str, str]] = field(default_factory=dict)
    rels: dict[str, Sphere] = field(default_factory=dict)

    def word(self, text: str, at: str | None = None) -> Word:
        """Parse word text over this polygraph's generators.

        For a single-0-cell polygraph the basepoint of an identity word is
        filled in automatically.
        """
        if at is None and len(self.cells0) == 1:
            at = self.cells0[0]
        return parse_word(text, self.gens, at=at)

    def sphere(self, rel: str) -> Sphere:
        if rel not in self.rels:
            raise UnknownCell(f"unknown relation {rel!r}")
        return self.rels[rel]

    def copy(self) -> "Polygraph":
        return Polygraph(self.cells0, dict(self.gens), dict(self.rels))


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant, attributed to the offending cell id."""

    cell: str
    message: str

    def __str__(self) -> str:
        return f"{self.cell}: {self.message}"


def _name_ok(name: str) -> bool:
    return bool(name) and not any(ch.isspace() for ch in name)


def validate(p: Polygraph) -> list[ValidationIssue]:
    """Check every structural invariant; an empty report means all hold.

    Checked: names are nonempty, whitespace-free and unique per level;
    generator endpoints name declared 0-cells; relation sides are valid words
    over the generators and are parallel (equal source and equal target).
    """
    issues: list[ValidationIssue] = []
    seen: set[str] = set()
    for cell in p.cells0:
        if not _name_ok(cell):
            issues.append(ValidationIssue(cell, "bad 0-cell name"))
        if cell in seen:
            issues.append(ValidationIssue(cell, "duplicate 0-cell"))
        seen.add(cell)
    cellset = set(p.cells0)
    for gen, (src, tgt) in p.gens.items():
        if not _name_ok(gen):
            issues.append(ValidationIssue(gen, "bad generator name"))
        if src not in cellset:
            issues.append(ValidationIssue(gen, f"source {src!r} is not a 0-cell"))
        if tgt not in cellset:
            issues.append(ValidationIssue(gen, f"target {tgt!r} is not a 0-cell"))
    for rel, (lhs, rhs) in p.rels.items():
        if not _name_ok(rel):
            issues.append(ValidationIssue(rel, "bad relation name"))
        for side, word in (("lhs", lhs), ("rhs", rhs)):
            try:
                rebuilt = Word.from_letters(word.letters, p.gens, at=word.src)
            except Exception as exc:  # report every defect, raise none
                issues.append(ValidationIssue(rel, f"{side} is not a valid word: {exc}"))
                continue
            if (rebuilt.src, rebuilt.tgt) != (word.src, word.tgt):
                issues.append(ValidationIssue(rel, f"{side} has wrong endpoints"))
            if word.src not in cellset or word.tgt not in cellset:
                issues.append(ValidationIssue(rel, f"{side} endpoints are not 0-cells"))
        if (lhs.src, lhs.tgt) != (rhs.src, rhs.tgt):
            issues.append(ValidationIssue(rel, "sides are not parallel"))
    return issues


def euler_data(p: Polygraph) -> tuple[int, int, int]:
    """Cell counts (n0, n1, n2) — the data behind the Euler characteristic."""
    return (len(p.cells0), len(p.gens), len(p.rels))


# --------------------------------------------------------------------------
# Derivations


class Derivation:
    """Base class for proof trees between parallel words.

    Equality is structural and hashing agrees with it; both walk the tree
    with an explicit stack, so its depth is not bounded by the recursion
    limit, and a subtree shared by reference is visited once.  The repr is
    the s-expression of .tz scripts, also built with an explicit stack.
    """

    __slots__ = ()

    def _parts(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b):
                return False
            seen.add((id(a), id(b)))
            for x, y in zip(a._parts(), b._parts()):
                if isinstance(x, Derivation) and isinstance(y, Derivation):
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        hashes: dict[int, int] = {}  # id(node) -> hash
        for node in _postorder(self):
            hashes[id(node)] = hash(
                (type(node),)
                + tuple(hashes[id(x)] if isinstance(x, Derivation) else x for x in node._parts())
            )
        return hashes[id(self)]

    def __repr__(self) -> str:
        return format_derivation(self)

    def __reduce__(self):
        """Pickle and copy as a flat table of nodes, children before parents,
        built with an explicit stack; a subtree shared by reference is one
        row, so it stays shared in the rebuilt tree."""
        rows: list[tuple[type, tuple, tuple[int, ...]]] = []  # (class, parts, child slots)
        row_of: dict[int, int] = {}  # id(node) -> its row
        for node in _postorder(self):
            parts = node._parts()
            slots = tuple(k for k, x in enumerate(parts) if isinstance(x, Derivation))
            parts = tuple(row_of[id(x)] if k in slots else x for k, x in enumerate(parts))
            row_of[id(node)] = len(rows)
            rows.append((type(node), parts, slots))
        return _rebuild, (rows,)


def _postorder(d: Derivation) -> Iterator[Derivation]:
    """Each distinct node of ``d`` once, children first and left to right,
    walked with an explicit stack; parts that are not derivations are
    passed over."""
    done: set[int] = set()  # id(node) of the nodes yielded
    todo: list[tuple[object, bool]] = [(d, False)]  # (node, parts done?)
    while todo:
        node, ready = todo.pop()
        if ready:
            done.add(id(node))
            yield node
        elif isinstance(node, Derivation) and id(node) not in done:
            todo.append((node, True))
            todo.extend((x, False) for x in reversed(node._parts()))


@dataclass(frozen=True, eq=False, repr=False)
class Gen(Derivation):
    """Apply the named relation, forwards (sign +1) or backwards (-1)."""

    rel: str
    sign: int


@dataclass(frozen=True, eq=False, repr=False)
class Horiz(Derivation):
    """Side-by-side gluing: rewrite the left part and the right part."""

    left: Derivation
    right: Derivation


@dataclass(frozen=True, eq=False, repr=False)
class Vert(Derivation):
    """Chaining: do ``first``, then ``second`` (middle words must coincide)."""

    first: Derivation
    second: Derivation


@dataclass(frozen=True, eq=False, repr=False)
class Id(Derivation):
    """Do nothing to the given word."""

    word: Word


@dataclass(frozen=True, eq=False, repr=False)
class Inv(Derivation):
    """Run a derivation in reverse."""

    inner: Derivation


@dataclass(frozen=True, eq=False, repr=False)
class CancelLeft(Derivation):
    """Cancel ``a' a`` to the identity at the target of ``a``."""

    gen: str


@dataclass(frozen=True, eq=False, repr=False)
class CancelRight(Derivation):
    """Cancel ``a a'`` to the identity at the source of ``a``."""

    gen: str


def _rebuild(rows: list[tuple[type, tuple, tuple[int, ...]]]) -> Derivation:
    """The derivation a Derivation.__reduce__ table describes: its last row."""
    nodes: list[Derivation] = []
    for cls, parts, slots in rows:
        nodes.append(cls(*(nodes[x] if k in slots else x for k, x in enumerate(parts))))
    return nodes[-1]


def boundary(p: Polygraph, d: Derivation) -> Sphere:
    """The pair of words a derivation connects, computed structurally.

    Raises UnknownCell if a leaf names a missing relation or generator, and
    IllTyped if a composition does not line up (horizontal endpoints, or the
    literal middle word of a vertical composition), each subtree before its
    parent and the left one first.  The tree is walked with an explicit
    stack, so its depth is not bounded by the recursion limit, and a subtree
    shared by reference is checked once.
    """
    spheres: dict[int, Sphere] = {}  # id(node) -> its boundary

    def sphere(part: object) -> Sphere:
        if not isinstance(part, Derivation):
            raise IllTyped(f"not a derivation node: {part!r}")
        return spheres[id(part)]

    for node in _postorder(d):
        if isinstance(node, Inv):
            lhs, rhs = sphere(node.inner)
            spheres[id(node)] = (rhs, lhs)
        elif isinstance(node, Horiz):
            (llhs, lrhs), (rlhs, rrhs) = sphere(node.left), sphere(node.right)
            if llhs.tgt != rlhs.src:
                raise IllTyped(
                    f"horizontal composition: left ends at {llhs.tgt!r},"
                    f" right starts at {rlhs.src!r}"
                )
            spheres[id(node)] = (llhs.concat(rlhs), lrhs.concat(rrhs))
        elif isinstance(node, Vert):
            (flhs, frhs), (slhs, srhs) = sphere(node.first), sphere(node.second)
            if frhs != slhs:
                raise IllTyped(
                    f"vertical composition: middle words differ"
                    f" ({format_word(frhs)} vs {format_word(slhs)})"
                )
            spheres[id(node)] = (flhs, srhs)
        else:
            spheres[id(node)] = _leaf_boundary(p, node)
    return sphere(d)


def _leaf_boundary(p: Polygraph, d: Derivation) -> Sphere:
    if isinstance(d, Gen):
        if d.rel not in p.rels:
            raise UnknownCell(f"unknown relation {d.rel!r}")
        if d.sign not in (1, -1):
            raise IllTyped(f"relation sign must be +1 or -1, got {d.sign!r}")
        lhs, rhs = p.rels[d.rel]
        return (lhs, rhs) if d.sign > 0 else (rhs, lhs)
    if isinstance(d, Id):
        # Rebuilt, so a corrupt tree cannot smuggle in bad letters or endpoints.
        word = d.word.checked(p.gens)
        return (word, word)
    if isinstance(d, CancelLeft):
        if d.gen not in p.gens:
            raise UnknownCell(f"unknown generator {d.gen!r}")
        src, tgt = p.gens[d.gen]
        pair = Word((Letter(d.gen, -1), Letter(d.gen, 1)), tgt, tgt)
        return (pair, Word.identity(tgt))
    if isinstance(d, CancelRight):
        if d.gen not in p.gens:
            raise UnknownCell(f"unknown generator {d.gen!r}")
        src, tgt = p.gens[d.gen]
        pair = Word((Letter(d.gen, 1), Letter(d.gen, -1)), src, src)
        return (pair, Word.identity(src))
    raise IllTyped(f"not a derivation node: {d!r}")


def step(p: Polygraph, prefix: Word, move: Derivation, suffix: Word) -> Derivation:
    """Whisker a move by an untouched prefix and suffix: ``prefix move suffix``.

    Convenience for building single-rewrite derivations; the result's
    boundary is (prefix · lhs · suffix, prefix · rhs · suffix).
    """
    return Horiz(Id(prefix), Horiz(move, Id(suffix)))


def chain(moves: Iterable[Derivation]) -> Derivation:
    """Vertically compose a nonempty sequence of derivations, left to right."""
    moves = list(moves)
    if not moves:
        raise IllTyped("cannot chain zero derivations")
    out = moves[0]
    for move in moves[1:]:
        out = Vert(out, move)
    return out


# --------------------------------------------------------------------------
# Derivation text


_SEXPR_PARTS = {  # a node's s-expression: literal text at even slots, children at odd
    Gen: lambda d: [f"(gen {d.rel} {'+' if d.sign > 0 else '-'})"],
    Horiz: lambda d: ["(h ", d.left, " ", d.right, ")"],
    Vert: lambda d: ["(v ", d.first, " ", d.second, ")"],
    Id: lambda d: [f"(id {format_word(d.word)})"],
    Inv: lambda d: ["(inv ", d.inner, ")"],
    CancelLeft: lambda d: [f"(lam {d.gen})"],
    CancelRight: lambda d: [f"(rho {d.gen})"],
}


def format_derivation(d: Derivation) -> str:
    """Render a derivation as the s-expression syntax of .tz scripts."""
    out: list[str] = []
    todo: list[tuple[object, bool]] = [(d, False)]  # (item still to render, literal text?)
    while todo:
        item, text = todo.pop()
        if text:
            out.append(item)
        elif type(item) in _SEXPR_PARTS:
            parts = _SEXPR_PARTS[type(item)](item)
            todo += ((parts[k], k % 2 == 0) for k in reversed(range(len(parts))))
        else:
            raise IllTyped(f"not a derivation node: {item!r}")
    return "".join(out)


# A parenthesis, or a run of other characters up to a space or parenthesis.
_TOKEN_RE = re.compile(r"[()]|[^\s()]+")

# The heads whose parts are derivations, each with the node it builds.
_BRANCHES = {"h": Horiz, "v": Vert, "inv": Inv}


def _tokens(text: str) -> list[tuple[str, int]]:
    """The tokens of one line of text, each with its 1-based column."""
    return [(match.group(), match.start() + 1) for match in _TOKEN_RE.finditer(text)]


def _word_until(tokens, start, stops, p: Polygraph, line: int) -> tuple[Word, int]:
    """The word spelled by the tokens from ``start`` up to a stop token, each
    term read at its own column, and the index where it ends."""
    i = start
    while i < len(tokens) and tokens[i][0] not in stops:
        i += 1
    at = p.cells0[0] if len(p.cells0) == 1 else None
    column = tokens[start][1] if start < len(tokens) else 1
    runs = scan_terms([(text, line, col) for text, col in tokens[start:i]])
    return word_of_runs(runs, p.gens, at, SourceSpan(line, column)), i


def parse_derivation(text: str, p: Polygraph, line: int = 1) -> Derivation:
    """Parse one derivation s-expression over the given polygraph."""
    return _read_derivation(_tokens(text), p, line)


def _read_derivation(tokens: list[tuple[str, int]], p: Polygraph, line: int) -> Derivation:
    """The derivation that all of ``tokens``, from ``line``, spell.

    Open (h …), (v …) and (inv …) nodes wait on a stack for their parts,
    so nesting depth is not bounded by the recursion limit.
    """
    pos = 0

    def take() -> tuple[str, int]:
        nonlocal pos
        if pos == len(tokens):
            raise ParseError("unexpected end of derivation", SourceSpan(line, 1))
        pos += 1
        return tokens[pos - 1]

    def expect(text: str) -> None:
        token, col = take()
        if token != text:
            raise ParseError(f"expected {text!r}, found {token!r}", SourceSpan(line, col))

    open_nodes: list[tuple[type, list[Derivation]]] = []  # (node class, parts so far)
    while True:
        expect("(")
        head, col = take()
        if head in _BRANCHES:
            open_nodes.append((_BRANCHES[head], []))
            continue
        if head == "gen":
            rel, _ = take()
            sign, sign_col = take()
            if sign not in ("+", "-"):
                raise ParseError(
                    f"relation sign must be + or -, found {sign!r}", SourceSpan(line, sign_col)
                )
            node: Derivation = Gen(rel, 1 if sign == "+" else -1)
        elif head in ("lam", "rho"):
            gen, _ = take()
            node = CancelLeft(gen) if head == "lam" else CancelRight(gen)
        elif head == "id":
            word, pos = _word_until(tokens, pos, {")"}, p, line)
            node = Id(word)
        else:
            raise ParseError(f"unknown derivation head {head!r}", SourceSpan(line, col))
        expect(")")
        while open_nodes:
            cls, parts = open_nodes[-1]
            parts.append(node)
            if len(parts) < len(cls.__dataclass_fields__):
                break
            open_nodes.pop()
            expect(")")
            node = cls(*parts)
        else:
            break
    if pos != len(tokens):
        token, col = tokens[pos]
        raise ParseError(f"trailing {token!r} after derivation", SourceSpan(line, col))
    return node
