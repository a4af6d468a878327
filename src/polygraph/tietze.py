"""Tietze transformations: verified rewirings of a presentation.

Six step kinds transform a polygraph without changing the group it presents:
T0 adjoins a 0-cell with a connecting generator, T1 adjoins a generator with
its defining relation, T2 adjoins a relation that is already derivable — with
a mandatory derivation witness — and InvT0/InvT1/InvT2 remove such cells
under the symmetric side conditions.  ``apply`` checks a step and builds the
next presentation in one pass, and ``verify`` is that check with its
TietzeError returned as a StepCheck; every refusal, ``inverse``'s and
``transport``'s too, is a TietzeError naming the missing part.  ``transport``
pushes words forward through a script, and ``parse_script`` reads .tz text.
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


def _known(name: str, names, kind: str) -> None:
    if name not in names:
        raise TietzeError(f"unknown {kind} {name!r}")


def _fresh(*news: tuple[str, object, str]) -> None:
    """Refuse malformed new names, then taken ones; each is (name, taken, kind)."""
    for name, _, _ in news:
        if not _name_ok(name):
            raise TietzeError("new names must be nonempty and whitespace-free")
    for name, taken, kind in news:
        if name in taken:
            raise TietzeError(f"{kind} {name!r} already exists")


def _mismatch(got: Sphere, want: Sphere, role: str) -> TietzeError:
    return TietzeError(
        "boundary mismatch: witness proves "
        f"{format_word(got[0])} = {format_word(got[1])}, {role} "
        f"{format_word(want[0])} = {format_word(want[1])}"
    )


def _occurs(word: Word, gen: str) -> bool:
    return any(letter.gen == gen for letter in word.letters)


def _users(p: Polygraph, gen: str, cell: str | None = None):
    """The relations, in order, whose sides use generator ``gen`` or end at
    0-cell ``cell``, each with whether it is the cell they touch."""
    for rel, (lhs, rhs) in p.rels.items():
        if cell in (lhs.src, lhs.tgt, rhs.src, rhs.tgt):
            yield rel, True
        elif _occurs(lhs, gen) or _occurs(rhs, gen):
            yield rel, False


def _definition(
    p: Polygraph, gen: str, rel: str, misfit: str = "does not define {gen!r}"
) -> tuple[Word, bool]:
    """The word relation ``rel`` defines generator ``gen`` by, read off a
    relation (word, gen) or (gen, word), and whether ``gen`` is its left
    side; ``misfit`` words the refusal of a relation of another shape."""
    _known(rel, p.rels, "relation")
    lhs, rhs = p.rels[rel]
    gen_word = (Letter(gen, 1),)
    if gen_word not in (lhs.letters, rhs.letters):
        raise TietzeError(f"relation {rel!r} " + misfit.format(gen=gen))
    return (lhs if rhs.letters == gen_word else rhs), lhs.letters == gen_word


def verify(p: Polygraph, step: TietzeStep) -> StepCheck:
    """Check a step's side conditions against ``p`` without applying it."""
    try:
        apply(p, step)
    except TietzeError as exc:
        return StepCheck(False, str(exc))
    return StepCheck(True)


def apply(p: Polygraph, step: TietzeStep) -> Polygraph:
    """Check a step's side conditions against ``p`` and build the polygraph
    it leads to; TietzeError names the first condition that fails."""
    out = p.copy()
    if isinstance(step, T0):
        _known(step.at, p.cells0, "0-cell")
        _fresh((step.new_cell, p.cells0, "0-cell"), (step.new_gen, p.gens, "generator"))
        out.cells0 = out.cells0 + (step.new_cell,)
        out.gens[step.new_gen] = (step.at, step.new_cell)
    elif isinstance(step, T1):
        _fresh((step.new_gen, p.gens, "generator"), (step.new_rel, p.rels, "relation"))
        try:
            word = step.word.checked(p.gens)
        except Exception as exc:
            raise TietzeError(f"defining word is not valid here: {exc}") from exc
        out.gens[step.new_gen] = (word.src, word.tgt)
        gen_word = Word((Letter(step.new_gen, 1),), word.src, word.tgt)
        if step.gen_on_left:
            out.rels[step.new_rel] = (gen_word, word)
        else:
            out.rels[step.new_rel] = (word, gen_word)
    elif isinstance(step, T2):
        _fresh((step.new_rel, p.rels, "relation"))
        try:
            sphere = boundary(p, step.witness)
        except Exception as exc:
            raise TietzeError(f"witness does not check: {exc}") from exc
        if step.declared is not None and sphere != step.declared:
            raise _mismatch(sphere, step.declared, "declared")
        out.rels[step.new_rel] = sphere
    elif isinstance(step, InvT0):
        _known(step.cell, p.cells0, "0-cell")
        _known(step.gen, p.gens, "generator")
        src, tgt = p.gens[step.gen]
        if tgt != step.cell:
            raise TietzeError(f"generator {step.gen!r} does not target {step.cell!r}")
        if src == step.cell:
            raise TietzeError(f"generator {step.gen!r} is a loop at {step.cell!r}")
        for other, ends in p.gens.items():
            if other != step.gen and step.cell in ends:
                raise TietzeError(f"0-cell {step.cell!r} still touches generator {other!r}")
        for rel, on_cell in _users(p, step.gen, step.cell):
            what = f"0-cell {step.cell!r}" if on_cell else f"generator {step.gen!r}"
            raise TietzeError(f"{what} appears in relation {rel!r}")
        out.cells0 = tuple(c for c in out.cells0 if c != step.cell)
        del out.gens[step.gen]
    elif isinstance(step, InvT1):
        _known(step.gen, p.gens, "generator")
        defining, _ = _definition(p, step.gen, step.rel, "is not of shape (word, {gen})")
        if _occurs(defining, step.gen):
            raise TietzeError(f"defining word mentions {step.gen!r} itself")
        for rel, _ in _users(p, step.gen):
            if rel != step.rel:
                raise TietzeError(
                    f"generator still used: {step.gen!r} appears in relation {rel!r}"
                )
        del out.gens[step.gen]
        del out.rels[step.rel]
    elif isinstance(step, InvT2):
        _known(step.rel, p.rels, "relation")
        del out.rels[step.rel]
        try:
            sphere = boundary(out, step.witness)
        except Exception as exc:
            raise TietzeError(f"witness does not check over the other relations: {exc}") from exc
        if sphere != p.rels[step.rel]:
            raise _mismatch(sphere, p.rels[step.rel], "removing")
    else:
        raise TietzeError(f"not a Tietze step: {step!r}")
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
        _known(step.gen, p.gens, "generator")
        return T0(at=p.gens[step.gen][0], new_cell=step.cell, new_gen=step.gen)
    if isinstance(step, InvT1):
        defining, gen_on_left = _definition(p, step.gen, step.rel)
        return T1(word=defining, new_gen=step.gen, new_rel=step.rel, gen_on_left=gen_on_left)
    if isinstance(step, InvT2):
        _known(step.rel, p.rels, "relation")
        return T2(witness=step.witness, new_rel=step.rel, declared=p.rels[step.rel])
    raise TietzeError(f"not a Tietze step: {step!r}")


def transport(p: Polygraph, steps, word: Word) -> Word:
    """Push a word over ``p`` forward through the whole script.

    Additions embed words unchanged; InvT1 substitutes the defining word for
    each occurrence of the removed generator (inverted for inverse letters).
    Raises UnknownGenerator if the word uses a generator removed by InvT0,
    and TietzeError for a step that does not fit.
    """
    here = p
    for step in steps:
        letters = word.letters
        if isinstance(step, InvT1):
            defining, _ = _definition(here, step.gen, step.rel)
            letters = []
            for letter in word.letters:
                if letter.gen != step.gen:
                    letters.append(letter)
                elif letter.sign > 0:
                    letters.extend(defining.letters)
                else:
                    letters.extend(defining.invert().letters)
        here = apply(here, step)
        if isinstance(step, InvT0) and _occurs(word, step.gen):
            raise UnknownGenerator(
                f"word uses generator {step.gen!r}, removed by InvT0"
            )
        # Re-anchor the word over the new polygraph.
        word = Word.from_letters(letters, here.gens, at=word.src)
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
                    rel
                    for rel, (lhs, rhs) in here.rels.items()
                    if (Letter(gen, 1),) in (lhs.letters, rhs.letters)
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
