"""Tietze transformations: verified rewirings of a presentation.

Six step kinds transform a polygraph without changing the group it presents:
T0 adjoins a 0-cell with a connecting generator, T1 adjoins a generator with
its defining relation, T2 adjoins a relation that is already derivable — with
a mandatory derivation witness — and InvT0/InvT1/InvT2 remove such cells
under the symmetric side conditions.  ``verify`` checks a step without
applying it, ``apply`` refuses unverified steps, ``transport`` pushes words
forward through a script, and ``parse_script`` reads the .tz text format.
A .tz line is split into the tokens of ``model``'s derivation reader, which
reads its witness; ``format_derivation`` and ``parse_derivation`` are
``model``'s, re-exported here.

``synthesize_witness`` finds a derivation with ``oracle.bfs_equal``'s search,
which grows a ball of raw words around each end until they meet, and replays
each step of the chain found as a whiskered rewrite; it exists so T2/InvT2
witnesses can be found mechanically when they are small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, SearchLimitExceeded, SourceSpan, TietzeError, UnknownGenerator
from .model import (
    CancelLeft,
    CancelRight,
    Derivation,
    Gen,
    Id,
    Inv,
    Polygraph,
    Sphere,
    _name_ok,
    _read_derivation,
    _tokens,
    _word_until,
    boundary,
    chain,
    format_derivation,
    parse_derivation,
    step as whisker,
)
from .oracle import SearchSpace, _meet, default_length_cap
from .words import Letter, Word, format_word

__all__ = [
    "T0",
    "T1",
    "T2",
    "InvT0",
    "InvT1",
    "InvT2",
    "TietzeStep",
    "StepCheck",
    "verify",
    "apply",
    "apply_script",
    "inverse",
    "transport",
    "parse_script",
    "run_script",
    "format_derivation",
    "parse_derivation",
    "synthesize_witness",
]


@dataclass(frozen=True)
class T0:
    """Adjoin 0-cell ``new_cell`` and a generator ``new_gen``: at -> new_cell."""

    at: str
    new_cell: str
    new_gen: str


@dataclass(frozen=True)
class T1:
    """Adjoin generator ``new_gen`` defined by ``word``: relation (word, new_gen).

    ``gen_on_left`` writes the relation as (new_gen, word) instead; inverses
    of removals use it so that undoing a removal restores the relation with
    its original orientation.
    """

    word: Word
    new_gen: str
    new_rel: str
    gen_on_left: bool = False


@dataclass(frozen=True)
class T2:
    """Adjoin the derivable relation ``new_rel`` with boundary(witness).

    ``declared`` optionally pins the expected sphere; verification fails on a
    mismatch, which catches a witness that proves the wrong equation.
    """

    witness: Derivation
    new_rel: str
    declared: Sphere | None = None


@dataclass(frozen=True)
class InvT0:
    """Remove 0-cell ``cell`` and its single connecting generator ``gen``."""

    cell: str
    gen: str


@dataclass(frozen=True)
class InvT1:
    """Remove generator ``gen`` and its defining relation ``rel``."""

    gen: str
    rel: str


@dataclass(frozen=True)
class InvT2:
    """Remove relation ``rel``, witnessed derivable from the others."""

    rel: str
    witness: Derivation


TietzeStep = T0 | T1 | T2 | InvT0 | InvT1 | InvT2


@dataclass(frozen=True)
class StepCheck:
    """Verification outcome; ``reason`` explains a failure."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_OK = StepCheck(True)


def _fail(reason: str) -> StepCheck:
    return StepCheck(False, reason)


def _defining_sides(p: Polygraph, rel: str, gen: str) -> Word | None:
    """The defining word if relation ``rel`` has shape (w, gen) or (gen, w)."""
    lhs, rhs = p.rels[rel]
    gen_word = (Letter(gen, 1),)
    if rhs.letters == gen_word:
        return lhs
    if lhs.letters == gen_word:
        return rhs
    return None


def _occurs(word: Word, gen: str) -> bool:
    return any(letter.gen == gen for letter in word.letters)


def verify(p: Polygraph, step: TietzeStep) -> StepCheck:
    """Check a step's side conditions against ``p`` without applying it."""
    if isinstance(step, T0):
        if step.at not in p.cells0:
            return _fail(f"unknown 0-cell {step.at!r}")
        if not _name_ok(step.new_cell) or not _name_ok(step.new_gen):
            return _fail("new names must be nonempty and whitespace-free")
        if step.new_cell in p.cells0:
            return _fail(f"0-cell {step.new_cell!r} already exists")
        if step.new_gen in p.gens:
            return _fail(f"generator {step.new_gen!r} already exists")
        return _OK
    if isinstance(step, T1):
        if not _name_ok(step.new_gen) or not _name_ok(step.new_rel):
            return _fail("new names must be nonempty and whitespace-free")
        if step.new_gen in p.gens:
            return _fail(f"generator {step.new_gen!r} already exists")
        if step.new_rel in p.rels:
            return _fail(f"relation {step.new_rel!r} already exists")
        try:
            Word.from_letters(step.word.letters, p.gens, at=step.word.src)
        except Exception as exc:
            return _fail(f"defining word is not valid here: {exc}")
        return _OK
    if isinstance(step, T2):
        if not _name_ok(step.new_rel):
            return _fail("new names must be nonempty and whitespace-free")
        if step.new_rel in p.rels:
            return _fail(f"relation {step.new_rel!r} already exists")
        try:
            sphere = boundary(p, step.witness)
        except Exception as exc:
            return _fail(f"witness does not check: {exc}")
        if step.declared is not None and sphere != step.declared:
            lhs, rhs = step.declared
            got_l, got_r = sphere
            return _fail(
                "boundary mismatch: witness proves "
                f"{format_word(got_l)} = {format_word(got_r)}, declared "
                f"{format_word(lhs)} = {format_word(rhs)}"
            )
        return _OK
    if isinstance(step, InvT0):
        if step.cell not in p.cells0:
            return _fail(f"unknown 0-cell {step.cell!r}")
        if step.gen not in p.gens:
            return _fail(f"unknown generator {step.gen!r}")
        src, tgt = p.gens[step.gen]
        if tgt != step.cell:
            return _fail(f"generator {step.gen!r} does not target {step.cell!r}")
        if src == step.cell:
            return _fail(f"generator {step.gen!r} is a loop at {step.cell!r}")
        for other, (osrc, otgt) in p.gens.items():
            if other == step.gen:
                continue
            if step.cell in (osrc, otgt):
                return _fail(f"0-cell {step.cell!r} still touches generator {other!r}")
        for rel, (lhs, rhs) in p.rels.items():
            if step.cell in (lhs.src, lhs.tgt, rhs.src, rhs.tgt):
                return _fail(f"0-cell {step.cell!r} appears in relation {rel!r}")
            if _occurs(lhs, step.gen) or _occurs(rhs, step.gen):
                return _fail(f"generator {step.gen!r} appears in relation {rel!r}")
        return _OK
    if isinstance(step, InvT1):
        if step.gen not in p.gens:
            return _fail(f"unknown generator {step.gen!r}")
        if step.rel not in p.rels:
            return _fail(f"unknown relation {step.rel!r}")
        defining = _defining_sides(p, step.rel, step.gen)
        if defining is None:
            return _fail(
                f"relation {step.rel!r} is not of shape (word, {step.gen})"
            )
        if _occurs(defining, step.gen):
            return _fail(f"defining word mentions {step.gen!r} itself")
        for rel, (lhs, rhs) in p.rels.items():
            if rel == step.rel:
                continue
            if _occurs(lhs, step.gen) or _occurs(rhs, step.gen):
                return _fail("generator still used: "
                             f"{step.gen!r} appears in relation {rel!r}")
        return _OK
    if isinstance(step, InvT2):
        if step.rel not in p.rels:
            return _fail(f"unknown relation {step.rel!r}")
        remaining = p.copy()
        del remaining.rels[step.rel]
        try:
            sphere = boundary(remaining, step.witness)
        except Exception as exc:
            return _fail(f"witness does not check over the other relations: {exc}")
        if sphere != p.rels[step.rel]:
            lhs, rhs = p.rels[step.rel]
            got_l, got_r = sphere
            return _fail(
                "boundary mismatch: witness proves "
                f"{format_word(got_l)} = {format_word(got_r)}, removing "
                f"{format_word(lhs)} = {format_word(rhs)}"
            )
        return _OK
    return _fail(f"not a Tietze step: {step!r}")


def apply(p: Polygraph, step: TietzeStep) -> Polygraph:
    """Apply a verified step, returning a new polygraph."""
    check = verify(p, step)
    if not check:
        raise TietzeError(check.reason or "step failed verification")
    out = p.copy()
    if isinstance(step, T0):
        out.cells0 = out.cells0 + (step.new_cell,)
        out.gens[step.new_gen] = (step.at, step.new_cell)
    elif isinstance(step, T1):
        out.gens[step.new_gen] = (step.word.src, step.word.tgt)
        gen_word = Word((Letter(step.new_gen, 1),), step.word.src, step.word.tgt)
        if step.gen_on_left:
            out.rels[step.new_rel] = (gen_word, step.word)
        else:
            out.rels[step.new_rel] = (step.word, gen_word)
    elif isinstance(step, T2):
        sphere = step.declared  # verify() proved boundary(p, witness) == declared
        out.rels[step.new_rel] = sphere if sphere is not None else boundary(p, step.witness)
    elif isinstance(step, InvT0):
        out.cells0 = tuple(c for c in out.cells0 if c != step.cell)
        del out.gens[step.gen]
    elif isinstance(step, InvT1):
        del out.gens[step.gen]
        del out.rels[step.rel]
    elif isinstance(step, InvT2):
        del out.rels[step.rel]
    return out


def apply_script(p: Polygraph, steps) -> Polygraph:
    """Apply steps in order; a failure aborts with the state attached."""
    here = p
    for i, step in enumerate(steps):
        try:
            here = apply(here, step)
        except TietzeError as exc:
            error = TietzeError(f"step {i + 1} ({type(step).__name__}): {exc}")
            error.state = here
            raise error from None
    return here


def inverse(p: Polygraph, step: TietzeStep) -> TietzeStep:
    """The step that undoes ``step``, computed on the state it acts on.

    apply(apply(p, step), inverse(p, step)) == p whenever step verifies,
    because the inverse reuses the same names and data.
    """
    if isinstance(step, T0):
        return InvT0(cell=step.new_cell, gen=step.new_gen)
    if isinstance(step, T1):
        return InvT1(gen=step.new_gen, rel=step.new_rel)
    if isinstance(step, T2):
        return InvT2(rel=step.new_rel, witness=step.witness)
    if isinstance(step, InvT0):
        if step.gen not in p.gens:
            raise TietzeError(f"unknown generator {step.gen!r}")
        return T0(at=p.gens[step.gen][0], new_cell=step.cell, new_gen=step.gen)
    if isinstance(step, InvT1):
        if step.rel not in p.rels:
            raise TietzeError(f"unknown relation {step.rel!r}")
        defining = _defining_sides(p, step.rel, step.gen)
        if defining is None:
            raise TietzeError(f"relation {step.rel!r} does not define {step.gen!r}")
        lhs, _ = p.rels[step.rel]
        gen_on_left = lhs.letters == (Letter(step.gen, 1),)
        return T1(
            word=defining,
            new_gen=step.gen,
            new_rel=step.rel,
            gen_on_left=gen_on_left,
        )
    if isinstance(step, InvT2):
        if step.rel not in p.rels:
            raise TietzeError(f"unknown relation {step.rel!r}")
        return T2(witness=step.witness, new_rel=step.rel, declared=p.rels[step.rel])
    raise TietzeError(f"not a Tietze step: {step!r}")


def transport(p: Polygraph, steps, word: Word) -> Word:
    """Push a word over ``p`` forward through the whole script.

    Additions embed words unchanged; InvT1 substitutes the defining word for
    each occurrence of the removed generator (inverted for inverse letters).
    Raises UnknownGenerator if the word uses a generator removed by InvT0.
    """
    here = p
    for step in steps:
        if isinstance(step, InvT1):
            defining = _defining_sides(here, step.rel, step.gen)
            if defining is None:
                raise TietzeError(f"relation {step.rel!r} does not define {step.gen!r}")
            letters: list[Letter] = []
            for letter in word.letters:
                if letter.gen != step.gen:
                    letters.append(letter)
                elif letter.sign > 0:
                    letters.extend(defining.letters)
                else:
                    letters.extend(defining.invert().letters)
            next_p = apply(here, step)
            word = Word.from_letters(letters, next_p.gens, at=word.src)
            here = next_p
            continue
        here = apply(here, step)
        if isinstance(step, InvT0) and _occurs(word, step.gen):
            raise UnknownGenerator(
                f"word uses generator {step.gen!r}, removed by InvT0"
            )
        # Re-anchor the word over the new polygraph (letters unchanged).
        word = Word.from_letters(word.letters, here.gens, at=word.src)
    return word


# ------------------------------------------------------------- .tz scripts


def _fresh_rel_name(p: Polygraph, base: str) -> str:
    if base not in p.rels:
        return base
    i = 2
    while f"{base}_{i}" in p.rels:
        i += 1
    return f"{base}_{i}"


def parse_script(text: str, p: Polygraph) -> list[TietzeStep]:
    """Parse a .tz script against the polygraph it will transform.

    One step per line; ``#`` comments and blank lines are skipped.  Forms:

        T0 CELL GEN : AT
        T1 GEN := WORD
        T2 REL : WORD = WORD WITNESS SEXPR
        INV T0 CELL GEN
        INV T1 GEN
        INV T2 REL WITNESS SEXPR

    Steps are elaborated in order against the evolving polygraph, so each
    line's words and witnesses are read over the presentation produced by
    the previous lines.  T1 names its defining relation ``def_GEN``.
    """
    return _elaborate(text, p)[0]


def _elaborate(text: str, p: Polygraph) -> tuple[list[TietzeStep], Polygraph]:
    """parse_script's steps and the polygraph they lead to, each applied once."""
    steps: list[TietzeStep] = []
    here = p
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw.split("#", 1)[0])
        if not tokens:
            continue
        head = tokens[0][0]

        def err(message: str, col: int = tokens[0][1]) -> ParseError:
            return ParseError(message, SourceSpan(line_no, col))

        if head == "T0":
            if len(tokens) != 5 or tokens[3][0] != ":":
                raise err("T0 syntax: T0 CELL GEN : AT")
            step: TietzeStep = T0(
                at=tokens[4][0], new_cell=tokens[1][0], new_gen=tokens[2][0]
            )
        elif head == "T1":
            if len(tokens) < 4 or tokens[2][0] != ":=":
                raise err("T1 syntax: T1 GEN := WORD")
            gen = tokens[1][0]
            word, end = _word_until(tokens, 3, set(), here, line_no)
            if end != len(tokens):
                raise err("unexpected trailing tokens", tokens[end][1])
            step = T1(word=word, new_gen=gen, new_rel=_fresh_rel_name(here, f"def_{gen}"))
        elif head == "T2":
            if len(tokens) < 4 or tokens[2][0] != ":":
                raise err("T2 syntax: T2 REL : WORD = WORD WITNESS SEXPR")
            rel = tokens[1][0]
            lhs, i = _word_until(tokens, 3, {"="}, here, line_no)
            if i >= len(tokens) or tokens[i][0] != "=":
                raise err("T2 relation needs an = between its sides")
            rhs, j = _word_until(tokens, i + 1, {"WITNESS"}, here, line_no)
            if j >= len(tokens) or tokens[j][0] != "WITNESS":
                raise err("T2 needs a WITNESS derivation")
            witness = _read_derivation(tokens[j + 1 :], here, line_no)
            step = T2(witness=witness, new_rel=rel, declared=(lhs, rhs))
        elif head == "INV":
            if len(tokens) < 3:
                raise err("INV syntax: INV T0|T1|T2 ...")
            kind = tokens[1][0]
            if kind == "T0":
                if len(tokens) != 4:
                    raise err("INV T0 syntax: INV T0 CELL GEN")
                step = InvT0(cell=tokens[2][0], gen=tokens[3][0])
            elif kind == "T1":
                if len(tokens) != 3:
                    raise err("INV T1 syntax: INV T1 GEN")
                gen = tokens[2][0]
                owners = [
                    rel for rel in here.rels if _defining_sides(here, rel, gen) is not None
                ]
                if len(owners) != 1:
                    raise err(
                        f"generator {gen!r} has {len(owners)} defining relations;"
                        " need exactly one"
                    )
                step = InvT1(gen=gen, rel=owners[0])
            elif kind == "T2":
                if len(tokens) < 5 or tokens[3][0] != "WITNESS":
                    raise err("INV T2 syntax: INV T2 REL WITNESS SEXPR")
                witness = _read_derivation(tokens[4:], here, line_no)
                step = InvT2(rel=tokens[2][0], witness=witness)
            else:
                raise err(f"unknown inverse step {kind!r}", tokens[1][1])
        else:
            raise err(f"unknown step {head!r}")

        try:
            here = apply(here, step)
        except TietzeError as exc:
            error = TietzeError(f"line {line_no}: {type(step).__name__} does not verify: {exc}")
            error.state = here
            raise error from None
        steps.append(step)
    return steps, here


def run_script(p: Polygraph, text: str) -> Polygraph:
    """Parse and apply a .tz script in one call, verifying each step once."""
    return _elaborate(text, p)[1]


# ------------------------------------------------------ witness synthesis


def synthesize_witness(
    p: Polygraph,
    source: Word,
    target: Word,
    *,
    radius: int = 8,
    length_cap: int | None = None,
) -> Derivation | None:
    """Search for a derivation with boundary exactly (source, target).

    The search is bfs_equal's, run on the ends as given: a ball grown around
    each over the moves of ``oracle.SearchSpace`` (a relation applied at a
    position in either direction, a cancellation of an adjacent inverse
    pair, or an insertion of one) until they meet.  Each step of the chain
    of words found is replayed as a whiskered rewrite and the chain of those
    is the witness, so the result always boundary-checks.  Returns None when
    no derivation appears within the radius and length cap, or once the
    words searched hold more than ``oracle.MAX_SEARCH_LETTERS`` letters.
    """
    space = SearchSpace(p)
    if length_cap is None:
        length_cap = default_length_cap(len(source), len(target), radius)
    try:
        path = _meet(space, space.encode(source), space.encode(target), radius, length_cap)
    except SearchLimitExceeded:
        return None
    if path is None:
        return None
    steps: list[Derivation] = []
    for here, there in zip(path, path[1:]):
        # Every move can be undone, so the one the search took either way
        # is among the moves from here that stay within there's length.
        kind, i, what = next(
            move for child, move in space.moves(here, len(there)) if child == there
        )
        if kind == "rel":
            rel, sign = what
            core: Derivation = Gen(rel, sign)
            span = len(p.rels[rel][0 if sign > 0 else 1])
        else:
            core = CancelRight(what.gen) if what.sign > 0 else CancelLeft(what.gen)
            span = 2
            if kind == "insert":
                core, span = Inv(core), 0
        steps.append(whisker(p, space.decode(here[:i]), core, space.decode(here[i + span :])))
    return chain(steps) if steps else Id(source)
