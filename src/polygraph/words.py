"""Zigzag words: formal composable strings of signed generator letters.

A generator ``a : x -> y`` can be traversed forwards (written ``a``) or
backwards (written ``a'``).  A word is a finite sequence of such signed
letters whose endpoints chain up, together with its overall source and
target 0-cells.  Nothing is simplified implicitly: ``a a'`` is a perfectly
good word of length 2, distinct from the empty word at ``x``.  Free
reduction (cancelling adjacent ``a a'`` / ``a' a`` pairs) is a separate,
explicit operation.

Word values are immutable; every operation returns a new word.

Text syntax, read by scan_word for every word reader in the package
(presentation files, rewriting systems, .tz scripts, the command line;
rewriting.Alphabet.word_bytes sends each distinct term of a text through
it once, and the whole text when that fails, so errors are the same)::

    word := "1" | term (ws term)*
    term := ident | ident "'" | ident "^" int

``a b' a^2`` denotes a+ b- a+ a+, ``a^-2`` denotes a- a-, ``a^0`` denotes
nothing, and ``1`` (or the empty string) denotes an identity word.  Nothing
else is a term: ``a'^2``, ``a^+2``, ``a ^2`` and ``a ' b`` are errors.  A word
may hold at most MAX_WORD_LETTERS letters; a term that would pass the limit
is rejected before it is expanded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import EndpointMismatch, ParseError, SourceSpan, UnknownGenerator

__all__ = [
    "Letter",
    "Word",
    "parse_word",
    "scan_word",
    "scan_terms",
    "expand_runs",
    "word_of_runs",
    "format_word",
    "IDENT_RE",
    "MAX_WORD_LETTERS",
]

# Identifiers for cells at every level: a letter, then letters/digits/underscores.
IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# The longest word any reader builds from text.
MAX_WORD_LETTERS = 10**6

# Endpoint map type: generator name -> (source 0-cell, target 0-cell).
GenMap = Mapping[str, tuple[str, str]]


@dataclass(frozen=True)
class Letter:
    """One signed occurrence of a generator: ``sign`` is +1 or -1."""

    gen: str
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    def endpoints(self, gens: GenMap) -> tuple[str, str]:
        """Source and target of this letter, given the generator endpoints."""
        if self.gen not in gens:
            raise UnknownGenerator(f"unknown generator {self.gen!r}")
        src, tgt = gens[self.gen]
        return (src, tgt) if self.sign > 0 else (tgt, src)

    def __str__(self) -> str:
        return self.gen if self.sign > 0 else self.gen + "'"


@dataclass(frozen=True)
class Word:
    """An immutable zigzag word with explicit source and target 0-cells."""

    letters: tuple[Letter, ...]
    src: str
    tgt: str

    @staticmethod
    def identity(at: str) -> "Word":
        """The empty word sitting at the 0-cell ``at``."""
        return Word((), at, at)

    @staticmethod
    def from_letters(letters, gens: GenMap, at: str | None = None) -> "Word":
        """Build a word from signed letters, checking that endpoints chain.

        ``at`` fixes the basepoint of an empty word; it is required there and
        ignored otherwise.
        """
        letters = tuple(letters)
        if not letters:
            if at is None:
                raise EndpointMismatch("an empty word needs an explicit 0-cell")
            return Word((), at, at)
        first_src, cursor = letters[0].endpoints(gens)
        for letter in letters[1:]:
            lsrc, ltgt = letter.endpoints(gens)
            if lsrc != cursor:
                raise EndpointMismatch(
                    f"letter {letter} starts at {lsrc!r} but the word is at {cursor!r}"
                )
            cursor = ltgt
        return Word(letters, first_src, cursor)

    def checked(self, gens: GenMap) -> "Word":
        """This word rebuilt from its letters over ``gens``; EndpointMismatch
        when its stated endpoints are not the ones its letters run between."""
        word = Word.from_letters(self.letters, gens, at=self.src)
        if (word.src, word.tgt) != (self.src, self.tgt):
            raise EndpointMismatch(
                f"{word} runs from {word.src!r} to {word.tgt!r}, not {self.src!r} to {self.tgt!r}"
            )
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def reduce(self) -> "Word":
        """Freely reduce: cancel adjacent mutually-inverse letters, repeatedly.

        One stack pass suffices: each incoming letter either cancels the top
        of the stack or is pushed.  The result has no adjacent cancelling
        pair, and source/target are unchanged.
        """
        stack: list[Letter] = []
        for letter in self.letters:
            if stack and stack[-1].gen == letter.gen and stack[-1].sign == -letter.sign:
                stack.pop()
            else:
                stack.append(letter)
        return Word(tuple(stack), self.src, self.tgt)

    def concat(self, other: "Word") -> "Word":
        """Glue words end to start; raises EndpointMismatch if they don't meet."""
        if self.tgt != other.src:
            raise EndpointMismatch(
                f"cannot compose: word ends at {self.tgt!r}, next starts at {other.src!r}"
            )
        return Word(self.letters + other.letters, self.src, other.tgt)

    def invert(self) -> "Word":
        """Reverse the letter order and flip every sign; swaps src and tgt."""
        return Word(
            tuple(letter.inverse() for letter in reversed(self.letters)),
            self.tgt,
            self.src,
        )

    def __mul__(self, other: "Word") -> "Word":
        return self.concat(other)

    def __invert__(self) -> "Word":
        return self.invert()

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, {self.src!r} -> {self.tgt!r})"


def format_word(word: Word) -> str:
    """Render a word in text syntax; the empty word renders as ``1``.

    Runs of the same signed letter collapse to powers, so the output is
    ``a^2 b' c`` rather than ``a a b' c``; parse_word inverts this exactly.
    """
    if not word.letters:
        return "1"
    parts: list[str] = []
    i = 0
    letters = word.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        run, letter = j - i, letters[i]
        if run == 1:
            parts.append(str(letter))
        else:
            parts.append(f"{letter.gen}^{run if letter.sign > 0 else -run}")
        i = j
    return " ".join(parts)


_TERM_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:(')|\^(-?)0*([0-9]+))?")
_SPACED_RE = re.compile(r"\S+")
_MAX_DIGITS = len(str(MAX_WORD_LETTERS))

# One run of a word: ``count`` letters of generator ``gen`` with ``sign``,
# read from the term at ``line``/``column``.
Run = tuple[str, int, int, int, int]


def scan_terms(tokens) -> list[Run]:
    """Read whitespace-free tokens, each with its line and column, as a word.

    This is the word grammar of the module docstring, and the only code that
    reads it.  A lone ``1`` (or no token) is the identity word and gives no
    runs.  Raises ParseError, located at the offending token, for a token
    that is not a term, for ``1`` beside other terms, and for a term that
    would take the word past MAX_WORD_LETTERS letters.
    """
    runs: list[Run] = []
    total = 0
    alone = False  # a "1" was read, so no token may follow
    terms: dict[str, tuple[str, int, int]] = {}  # a term spelled twice reads the same
    for text, line, column in tokens:
        if alone or (text == "1" and runs):
            raise ParseError("the identity word '1' stands alone", SourceSpan(line, column))
        if text == "1":
            alone = True
            continue
        term = terms.get(text)
        if term is None:
            match = _TERM_RE.fullmatch(text)
            if match is None:
                raise ParseError(
                    f"bad word term {text!r}", SourceSpan(line, column, len(text))
                )
            gen, prime, minus, digits = match.groups()
            # Leading zeros are not in ``digits``, so more digits than the cap
            # has is over the cap, and so is their prefix: a huge exponent is
            # never converted.
            count = 1 if digits is None else int(digits[: _MAX_DIGITS + 1])
            term = terms[text] = (gen, -1 if prime or minus else 1, count)
        gen, sign, count = term
        total += count
        if total > MAX_WORD_LETTERS:
            raise ParseError(
                f"word exceeds MAX_WORD_LETTERS ({MAX_WORD_LETTERS} letters)",
                SourceSpan(line, column, len(text)),
            )
        runs.append((gen, sign, count, line, column))
    return runs


def expand_runs(runs: list[Run], gens: GenMap) -> list[Letter]:
    """The letters of scanned runs; ParseError names an unknown generator."""
    letters: list[Letter] = []
    for gen, sign, count, line, column in runs:
        if gen not in gens:
            raise ParseError(f"unknown generator {gen!r}", SourceSpan(line, column, len(gen)))
        letters += [Letter(gen, sign)] * count
    return letters


def scan_word(text: str, line: int = 1, column: int = 1) -> list[Run]:
    """scan_terms over the whitespace-separated tokens of one line of text,
    whose first character sits at ``line``/``column``."""
    return scan_terms(
        [(match.group(), line, column + match.start()) for match in _SPACED_RE.finditer(text)]
    )


def parse_word(
    text: str,
    gens: GenMap,
    at: str | None = None,
    line: int = 1,
    column: int = 1,
) -> Word:
    """Parse word text syntax into a Word over the given generators.

    ``at`` supplies the 0-cell of an identity word ("1" or empty text);
    ``line``/``column`` seed error locations when the text is embedded in a
    larger file.
    """
    return word_of_runs(scan_word(text, line, column), gens, at, SourceSpan(line, column))


def word_of_runs(runs: list[Run], gens: GenMap, at: str | None, span: SourceSpan) -> Word:
    """The Word of scanned runs over ``gens``, as parse_word reads it; ``span``
    locates the errors of the word as a whole."""
    letters = expand_runs(runs, gens)
    if not letters and at is None:
        raise ParseError("identity word needs a 0-cell from context", span)
    try:
        return Word.from_letters(letters, gens, at=at)
    except EndpointMismatch as exc:
        raise ParseError(str(exc), span) from exc
