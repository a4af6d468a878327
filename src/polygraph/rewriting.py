"""String rewriting for one-0-cell presentations, with Knuth-Bendix completion.

A presentation is encoded over a positive alphabet that contains one letter
per generator plus one first-class *inverse letter* per generator (written
with a trailing apostrophe: the inverse of ``a`` is the letter ``a'``).
Free cancellation is not built into the data: it is carried by explicit
rewrite rules ``a a' -> 1`` and ``a' a -> 1`` that take part in completion
like any other rule.

Words are ordered by shortlex: shorter first, ties broken letter-by-letter
using the alphabet's precedence (by default: generators in declaration
order, then their inverse letters in the same order).  Every rule strictly
decreases this order, which makes normalize() terminate.

Internally a word is a ``bytes`` value, one byte per letter index; the
public functions speak word text (``a b' a^2``) or Word values.

The text serialization of a system is one rule per line after an order
header, and parses back with parse_system()::

    order: a < b < a' < b'
    a a' -> 1
    b a b -> a b a
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

from .errors import (
    InternalError,
    MultiObjectUnsupported,
    NotConvergent,
    ParseError,
    SourceSpan,
    StepLimitExceeded,
    UnknownGenerator,
)
from .model import Polygraph
from .words import Word, scan_word

__all__ = [
    "Alphabet",
    "Rule",
    "RewritingSystem",
    "encode",
    "normalize",
    "critical_pairs",
    "CriticalPair",
    "complete",
    "Converged",
    "GaveUp",
    "verify_convergent",
    "certify",
    "Proven",
    "Refuted",
    "enumerate_normal_forms",
    "Finite",
    "MoreThanCap",
    "word_equal",
    "format_system",
    "parse_system",
    "DEFAULT_MAX_RULES",
    "DEFAULT_MAX_LHS_LEN",
    "DEFAULT_MAX_STEPS",
]

logger = logging.getLogger(__name__)

DEFAULT_MAX_RULES = 4096
DEFAULT_MAX_LHS_LEN = 64
DEFAULT_MAX_STEPS = 10**6

PROVEN = "proven"
UNKNOWN = "unknown"


class Alphabet:
    """An ordered list of letters; position in the list is the precedence."""

    def __init__(self, letters):
        self.letters: tuple[str, ...] = tuple(letters)
        if len(self.letters) > 255:
            raise ValueError("alphabets are limited to 255 letters")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")
        self._index = {name: i for i, name in enumerate(self.letters)}

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.letters)!r})"

    def index(self, name: str) -> int:
        if name not in self._index:
            raise UnknownGenerator(f"letter {name!r} is not in the alphabet")
        return self._index[name]

    def word_bytes(self, word) -> bytes:
        """Encode a Word, word text, or bytes into letter indices."""
        if isinstance(word, bytes):
            return word
        if isinstance(word, Word):
            return bytes(
                self.index(_letter_name(letter.gen, letter.sign)) for letter in word.letters
            )
        if isinstance(word, str):
            return self.encode_runs(scan_word(word))
        raise TypeError(f"cannot encode {word!r} as a word")

    def encode_runs(self, runs) -> bytes:
        """Letter indices of words.scan_word runs; UnknownGenerator for a
        letter outside the alphabet."""
        out = bytearray()
        letters: dict[str, bytes] = {}
        for gen, sign, count, _, _ in runs:
            name = _letter_name(gen, sign)
            if name not in letters:
                letters[name] = bytes((self.index(name),))
            out += letters[name] * count
        return bytes(out)


def _letter_name(gen: str, sign: int) -> str:
    """The alphabet letter of a signed generator: ``a``, or ``a'`` backwards."""
    return gen if sign > 0 else gen + "'"


@dataclass(frozen=True)
class Rule:
    """One oriented rewrite rule; the left side is strictly shortlex-greater."""

    lhs: bytes
    rhs: bytes

    def __post_init__(self):
        if not _slex_greater(self.lhs, self.rhs):
            raise ValueError("rule must decrease the shortlex order")


def _slex_greater(a: bytes, b: bytes) -> bool:
    return (len(a), a) > (len(b), b)


@dataclass(frozen=True)
class RewritingSystem:
    """An alphabet plus an ordered rule tuple: an immutable value.

    ``convergent`` is "proven" only when a convergence certificate exists
    for exactly these rules: complete() and certify() are the only ways to
    get a proven system, and the constructor and ``dataclasses.replace``
    always give "unknown".  Operations that need unique normal forms refuse
    to run on an unproven system rather than silently return junk.
    """

    alphabet: Alphabet
    rules: tuple[Rule, ...]
    convergent: str = field(default=UNKNOWN, init=False)

    def __post_init__(self):
        # A caller's list would let the rules change under the cached index.
        object.__setattr__(self, "rules", tuple(self.rules))

    @cached_property
    def _matcher(self) -> _Matcher:
        """The compiled rule index every query on this system shares."""
        return _Matcher(self.rules)

    def word_bytes(self, word) -> bytes:
        """Encode a Word, word text, or bytes into internal letters."""
        return self.alphabet.word_bytes(word)

    def word_text(self, word: bytes) -> str:
        """Decode internal letters back to word text (``1`` when empty)."""
        if not word:
            return "1"
        return " ".join(self.alphabet.letters[b] for b in word)


# ----------------------------------------------------------------- encoding


def encode(
    p: Polygraph,
    precedence: list[str] | None = None,
    *,
    inverses: bool = True,
) -> RewritingSystem:
    """Encode a one-0-cell presentation as a string rewriting system.

    The alphabet is the generators in precedence order (declaration order by
    default) followed by their inverse letters; the rules are the two free
    cancellation rules per generator, then one shortlex-oriented rule per
    relation.  A relation whose sides freely reduce to the same word carries
    no rewriting content; it is dropped with a log note.

    With ``inverses=False`` the alphabet is the generators alone and no
    cancellation rules are added: the system rewrites the monoid presented by
    the positive relations instead of the group.  Every relation side must
    then be a positive word (UnknownGenerator otherwise).  Useful when the
    group system diverges under completion but the monoid one does not.
    """
    if len(p.cells0) != 1:
        raise MultiObjectUnsupported(
            f"string rewriting needs exactly one 0-cell, got {len(p.cells0)}"
        )
    gens = list(p.gens)
    if precedence is None:
        precedence = gens
    else:
        precedence = list(precedence)
        if sorted(precedence) != sorted(gens):
            raise UnknownGenerator(
                "precedence must list every generator exactly once: "
                f"expected a permutation of {gens!r}"
            )
    if inverses:
        alphabet = Alphabet(precedence + [_letter_name(g, -1) for g in precedence])
    else:
        alphabet = Alphabet(tuple(precedence))
    n = len(precedence)
    rules: list[Rule] = []
    if inverses:
        for i in range(n):
            rules.append(Rule(bytes([i, i + n]), b""))
            rules.append(Rule(bytes([i + n, i]), b""))
    for rel, (lhs, rhs) in p.rels.items():
        if not inverses:
            for side in (lhs, rhs):
                for letter in side.letters:
                    if letter.sign < 0:
                        raise UnknownGenerator(
                            f"relation {rel}: inverse letter {letter} has no"
                            " place in an inverse-free encoding"
                        )
        left = alphabet.word_bytes(lhs.reduce())
        right = alphabet.word_bytes(rhs.reduce())
        if left == right:
            logger.info("relation %s is freely trivial; dropped from the encoding", rel)
            continue
        if _slex_greater(left, right):
            rules.append(Rule(left, right))
        else:
            rules.append(Rule(right, left))
    return RewritingSystem(alphabet, rules)


# ----------------------------------------------------------------- normalize


class _Matcher:
    """Leftmost-then-lowest-rule-index matching, bucketed by first letter."""

    def __init__(self, rules):
        self.buckets: dict[int, list[tuple[bytes, bytes]]] = {}
        self.max_lhs = 1
        for rule in rules:  # rule order is the rule index order
            self.buckets.setdefault(rule.lhs[0], []).append((rule.lhs, rule.rhs))
            self.max_lhs = max(self.max_lhs, len(rule.lhs))

    def normalize(self, word: bytes, max_steps: int) -> bytes:
        steps = 0
        pos = 0
        while pos < len(word):
            bucket = self.buckets.get(word[pos])
            if bucket:
                for lhs, rhs in bucket:
                    if word.startswith(lhs, pos):
                        steps += 1
                        if steps > max_steps:
                            raise StepLimitExceeded(
                                f"no normal form after {max_steps} rewrite steps"
                            )
                        word = word[:pos] + rhs + word[pos + len(lhs):]
                        pos = max(0, pos - self.max_lhs + 1)
                        break
                else:
                    pos += 1
            else:
                pos += 1
        return word


def normalize(system: RewritingSystem, word, max_steps: int = DEFAULT_MAX_STEPS) -> str:
    """Rewrite to an irreducible word under the leftmost-lowest strategy.

    At each step the redex is the leftmost matching position; among rules
    matching there, the one earliest in the rule list wins.  Raises
    StepLimitExceeded after ``max_steps`` rewrites.
    """
    return system.word_text(normalize_bytes(system, system.word_bytes(word), max_steps))


def normalize_bytes(
    system: RewritingSystem, word: bytes, max_steps: int = DEFAULT_MAX_STEPS
) -> bytes:
    return system._matcher.normalize(word, max_steps)


# ----------------------------------------------------------------- critical pairs


@dataclass(frozen=True)
class CriticalPair:
    """A peak word with its two one-step descendants (not yet normalized)."""

    peak: bytes
    left: bytes
    right: bytes


def critical_pairs(system: RewritingSystem) -> list[CriticalPair]:
    """All overlaps between rule left sides, each enumerated exactly once.

    Two shapes exist: a proper suffix of one lhs equal to a proper prefix of
    another (including a rule with itself), and one lhs contained in
    another.  The descendants are single rewrites of the peak, one per rule.
    """
    out: list[CriticalPair] = []
    for r1 in system.rules:
        for r2 in system.rules:
            out.extend(_pairs_between(r1, r2))
    return out


# ----------------------------------------------------------------- completion


@dataclass(frozen=True)
class Converged:
    system: RewritingSystem


@dataclass(frozen=True)
class GaveUp:
    system: RewritingSystem  # the partial, non-convergent rule set
    reason: str  # which limit fired: "max_rules" | "max_lhs_len" | "max_steps"


def complete(
    system: RewritingSystem,
    max_rules: int = DEFAULT_MAX_RULES,
    max_lhs_len: int = DEFAULT_MAX_LHS_LEN,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Converged | GaveUp:
    """Knuth-Bendix completion with inter-reduction.

    Equations wait in a queue ordered by their peak word (shortlex smallest
    first, insertion order on ties), so runs are deterministic.  Every input
    rule starts out as an equation.  When a popped equation still has two
    distinct normal forms it becomes a new rule; existing rules whose left
    side the new rule rewrites are retired back into the queue, and right
    sides are kept fully normalized.  An empty queue means every critical
    pair joins; the result is then re-verified and stamped "proven".

    The limits bound, in order: live rules, the left-side length of any new
    rule, and the number of equations processed; ``max_steps`` also bounds
    each normalization, and either step limit returns ``GaveUp("max_steps")``.
    A completed system that fails re-verification raises InternalError.
    """
    alphabet = system.alphabet
    active: dict[int, Rule] = {}
    serial = 0
    next_rule_id = 0
    queue: list[tuple[int, bytes, int, bytes, bytes]] = []

    def push(peak: bytes, u: bytes, v: bytes) -> None:
        nonlocal serial
        heappush(queue, (len(peak), peak, serial, u, v))
        serial += 1

    for rule in system.rules:
        push(rule.lhs, rule.lhs, rule.rhs)

    matcher = _Matcher([])
    steps = 0
    while queue:
        steps += 1
        if steps > max_steps:
            return GaveUp(_snapshot(alphabet, active), "max_steps")
        _, _, _, u, v = heappop(queue)
        try:
            u = matcher.normalize(u, max_steps)
            v = matcher.normalize(v, max_steps)
        except StepLimitExceeded:
            return GaveUp(_snapshot(alphabet, active), "max_steps")
        if u == v:
            continue
        lhs, rhs = (u, v) if _slex_greater(u, v) else (v, u)
        if len(lhs) > max_lhs_len:
            return GaveUp(_snapshot(alphabet, active), "max_lhs_len")
        new_rule = Rule(lhs, rhs)
        # Retire rules the new one subsumes; renormalize right sides later.
        for rid, old in list(active.items()):
            if lhs in old.lhs:
                del active[rid]
                push(old.lhs, old.lhs, old.rhs)
        new_id = next_rule_id
        next_rule_id += 1
        active[new_id] = new_rule
        if len(active) > max_rules:
            return GaveUp(_snapshot(alphabet, active), "max_rules")
        matcher = _Matcher(list(active.values()))
        for rid, old in list(active.items()):
            if rid == new_id:
                continue
            if lhs in old.rhs:
                try:
                    active[rid] = Rule(old.lhs, matcher.normalize(old.rhs, max_steps))
                except StepLimitExceeded:
                    return GaveUp(_snapshot(alphabet, active), "max_steps")
        matcher = _Matcher(list(active.values()))
        # Queue the critical pairs the new rule creates, in both roles.
        for rid, old in active.items():
            if rid == new_id:
                continue
            for pair in _pairs_between(new_rule, old):
                push(pair.peak, pair.left, pair.right)
            for pair in _pairs_between(old, new_rule):
                push(pair.peak, pair.left, pair.right)
        for pair in _pairs_between(new_rule, new_rule):
            push(pair.peak, pair.left, pair.right)
    try:
        return Converged(certify(_snapshot(alphabet, active)))
    except NotConvergent as exc:
        raise InternalError(f"completion produced a non-convergent system: {exc}") from None


def _snapshot(alphabet: Alphabet, active: dict[int, Rule]) -> RewritingSystem:
    # Rule ids only grow and a rewritten right side keeps its slot, so the
    # dict's insertion order is the rule-id order.
    return RewritingSystem(alphabet, active.values())


def _pairs_between(r1: Rule, r2: Rule):
    """Critical pairs with r1 rewriting the front of the peak (see critical_pairs)."""
    l1, l2 = r1.lhs, r2.lhs
    for t in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - t:] == l2[:t]:
            tail = l2[t:]
            yield CriticalPair(l1 + tail, r1.rhs + tail, l1[: len(l1) - t] + r2.rhs)
    if r1 is not r2 and (len(l2) < len(l1) or l1 == l2):
        k = l1.find(l2)
        while k != -1:
            yield CriticalPair(l1, r1.rhs, l1[:k] + r2.rhs + l1[k + len(l2):])
            k = l1.find(l2, k + 1)


# ----------------------------------------------------------------- verification


@dataclass(frozen=True)
class Proven:
    pass


@dataclass(frozen=True)
class Refuted:
    """Two distinct normal forms reachable from one peak word."""

    peak: str
    left: str
    right: str


def verify_convergent(system: RewritingSystem) -> Proven | Refuted:
    """Exhaustively join every critical pair; any failure is a witness.

    A system passing this check has unique normal forms (all rules decrease
    shortlex, so rewriting terminates; joinable critical pairs give local
    confluence, and Newman's lemma does the rest).
    """
    matcher = system._matcher
    for pair in critical_pairs(system):
        left = matcher.normalize(pair.left, DEFAULT_MAX_STEPS)
        right = matcher.normalize(pair.right, DEFAULT_MAX_STEPS)
        if left != right:
            return Refuted(
                system.word_text(pair.peak),
                system.word_text(left),
                system.word_text(right),
            )
    return Proven()


def certify(system: RewritingSystem) -> RewritingSystem:
    """Verify convergence of a hand-built system; return a proven copy.

    Systems assembled directly (or read back via parse_system) start out
    with convergent="unknown", which blocks normal-form queries.  This runs
    the full critical-pair check and either returns a new system with the
    same rules, marked proven, or raises NotConvergent carrying the
    refutation witness.  The argument itself is left as it was.
    """
    proven = RewritingSystem(system.alphabet, system.rules)
    check = verify_convergent(proven)
    if isinstance(check, Refuted):
        raise NotConvergent(
            f"not convergent: peak {check.peak!r} reaches "
            f"{check.left!r} and {check.right!r}"
        )
    # The one place a stamp is set: on a value no caller holds yet.
    object.__setattr__(proven, "convergent", PROVEN)
    return proven


# ----------------------------------------------------------------- normal forms


@dataclass(frozen=True)
class Finite:
    words: list[str]


@dataclass(frozen=True)
class MoreThanCap:
    found: int


def enumerate_normal_forms(
    system: RewritingSystem, cap: int = 10000
) -> Finite | MoreThanCap:
    """List all irreducible words in shortlex order, up to a count cap.

    Irreducible words are closed under prefix, so they form a tree explored
    breadth-first; it ends when no word is left to extend.  Needs a
    proven-convergent system (then the words are exactly the distinct
    presented elements), else raises NotConvergent.
    """
    words = _normal_form_bytes(system, cap)
    if isinstance(words, MoreThanCap):
        return words
    return Finite([system.word_text(w) for w in words])


def _normal_form_bytes(system: RewritingSystem, cap: int) -> list[bytes] | MoreThanCap:
    """enumerate_normal_forms on internal letters: the shortlex list as bytes."""
    if system.convergent != PROVEN:
        raise NotConvergent("normal forms require a proven-convergent system")
    if cap < 1:
        return MoreThanCap(1)
    by_last: dict[int, list[bytes]] = {}
    for rule in system.rules:
        by_last.setdefault(rule.lhs[-1], []).append(rule.lhs)
    words: list[bytes] = [b""]
    for stem in words:  # the list is its own breadth-first queue
        for letter in range(len(system.alphabet)):
            word = stem + bytes([letter])
            if any(word.endswith(lhs) for lhs in by_last.get(letter, ())):
                continue
            if len(words) + 1 > cap:
                return MoreThanCap(len(words) + 1)
            words.append(word)
    return words


def word_equal(system: RewritingSystem, u, v) -> bool:
    """Decide equality via unique normal forms (proven-convergent only)."""
    if system.convergent != PROVEN:
        raise NotConvergent("word_equal requires a proven-convergent system")
    return normalize_bytes(system, system.word_bytes(u)) == normalize_bytes(
        system, system.word_bytes(v)
    )


# ----------------------------------------------------------------- serialization


def format_system(system: RewritingSystem) -> str:
    """One order header plus one ``lhs -> rhs`` line per rule."""
    lines = ["order: " + " < ".join(system.alphabet.letters)]
    for rule in system.rules:
        lines.append(f"{system.word_text(rule.lhs)} -> {system.word_text(rule.rhs)}")
    return "\n".join(lines) + "\n"


def parse_system(text: str) -> RewritingSystem:
    """Read the format_system() text back; the result is convergence-unknown."""
    lines = text.splitlines()
    alphabet: Alphabet | None = None
    rules: list[Rule] = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        line = body.strip()
        if not line:
            continue
        if alphabet is None:
            if not line.startswith("order:"):
                raise ParseError(
                    "a system file starts with 'order: a < b < ...'",
                    SourceSpan(lineno, 1),
                )
            letters = [part.strip() for part in line[len("order:"):].split("<")]
            if letters == [""]:
                raise ParseError("empty letter order", SourceSpan(lineno, 1))
            for name in letters:
                # A letter name is word text for exactly one letter: itself.
                runs = scan_word(name, lineno)
                if [(_letter_name(g, s), c) for g, s, c, _, _ in runs] != [(name, 1)]:
                    raise ParseError(f"bad letter {name!r}", SourceSpan(lineno, 1))
            try:
                alphabet = Alphabet(letters)
            except ValueError as exc:
                raise ParseError(str(exc), SourceSpan(lineno, 1)) from exc
            continue
        arrow = body.find("->")
        if arrow < 0:
            raise ParseError("expected 'lhs -> rhs'", SourceSpan(lineno, 1))
        lhs = scan_word(body[:arrow], lineno)
        rhs = scan_word(body[arrow + 2:], lineno, arrow + 3)
        try:
            rules.append(Rule(alphabet.encode_runs(lhs), alphabet.encode_runs(rhs)))
        except (UnknownGenerator, ValueError) as exc:
            raise ParseError(str(exc), SourceSpan(lineno, 1)) from exc
    if alphabet is None:
        raise ParseError("empty system text", SourceSpan(1, 1))
    return RewritingSystem(alphabet, rules)
