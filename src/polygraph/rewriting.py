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

Queries and complete() run on a rule index, an automaton over the left
sides (see _Matcher): normalize() reads a letter in one transition and
rewrites the redex that ends first.  In the inter-reduced systems
complete() builds that is the leftmost redex; a hand-built system may
differ: ``a b c -> x``, ``b -> y`` take ``a b c`` to ``a y c``, not ``x``.

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
    """The one rule index: an automaton over the live left sides
    (Aho-Corasick, CACM 1975) that complete() edits in place.

    ``rules`` maps left side -> right side in rule order and ``rank`` gives
    each left side its rule index; of two rules with equal left sides the
    lower index wins.  The states are the prefixes of the left sides:
    ``prefixes`` maps each nonempty one to the left sides it starts, and the
    empty word is the start state.  Reading a letter goes to the longest
    suffix of state + letter that is a state, so the state after a word is
    the longest suffix of the word that starts a left side, and a left side
    ends the word exactly when it ends that state.  A state's redex is the
    lowest-index left side that ends it.  Transitions and redexes are
    computed on first use and kept in ``moves`` until the next add() or
    retire().  ``suffixes`` maps each proper suffix of a left side to the
    left sides it ends; with ``prefixes`` it finds a left side's overlaps.
    Each prefix and suffix is its own key, so a left side of L letters costs
    about L² bytes; complete() bounds L by ``max_lhs_len``.
    """

    def __init__(self, rules):
        self.rules: dict[bytes, bytes] = {}
        self.rank: dict[bytes, int] = {}
        self.prefixes: dict[bytes, list[bytes]] = {}
        self.suffixes: dict[bytes, list[bytes]] = {}
        self.moves: dict[bytes, dict[int, tuple[bytes, bytes | None]]] = {}
        self.added = 0
        for rule in rules:  # rule order is the rule index order
            if rule.lhs not in self.rules:
                self.add(rule.lhs, rule.rhs)

    def add(self, lhs: bytes, rhs: bytes) -> None:
        self.rules[lhs] = rhs
        self.rank[lhs] = self.added
        self.added += 1
        for table, part in self._parts(lhs):
            table.setdefault(part, []).append(lhs)
        self.moves = {}

    def retire(self, lhs: bytes) -> None:
        del self.rules[lhs], self.rank[lhs]
        for table, part in self._parts(lhs):
            table[part].remove(lhs)
            if not table[part]:
                del table[part]
        self.moves = {}

    def _parts(self, lhs: bytes):
        """Where ``lhs`` is listed: under each nonempty prefix and each proper
        suffix."""
        for k in range(1, len(lhs) + 1):
            yield self.prefixes, lhs[:k]
        for k in range(1, len(lhs)):
            yield self.suffixes, lhs[k:]

    def step(self, state: bytes, letter: int) -> tuple[bytes, bytes | None]:
        """The state after reading ``letter`` in ``state``, and its redex."""
        row = self.moves.setdefault(state, {})
        if letter not in row:
            word = state + bytes((letter,))
            while word and word not in self.prefixes:
                word = word[1:]
            ends = [word[k:] for k in range(len(word)) if word[k:] in self.rank]
            row[letter] = word, min(ends, key=self.rank.__getitem__, default=None)
        return row[letter]

    def overlaps(self, lhs: bytes) -> list[bytes]:
        """The other live left sides that a proper suffix of ``lhs`` starts or
        a proper prefix of ``lhs`` ends, in rule order: the only rules that
        can form a critical pair with it when no left side lies in another."""
        found: set[bytes] = set()
        for k in range(1, len(lhs)):
            found.update(self.prefixes.get(lhs[k:], ()))
            found.update(self.suffixes.get(lhs[:k], ()))
        found.discard(lhs)
        return sorted(found, key=self.rank.__getitem__)

    def normalize(self, word: bytes, max_steps: int) -> bytes:
        """Read letters onto an irreducible stack, with the state after each
        prefix of it on a second stack.  When a letter leads to a state with
        a redex, cut the redex off both stacks and push its right side back
        onto the letters to read.  With no left side inside another, the
        redex that ends first is the leftmost and only one rule matches
        there: this rewrites the same redexes in the same order as
        leftmost-lowest rewriting."""
        rules, moves, step = self.rules, self.moves, self.step
        stack = bytearray()
        state = b""
        states = [state]  # states[i] is the state after stack[:i]
        todo = bytearray(word[::-1])  # the next letter to read is last
        steps = 0
        while todo:
            letter = todo.pop()
            try:
                after, lhs = moves[state][letter]
            except KeyError:
                after, lhs = step(state, letter)
            if lhs is None:
                stack.append(letter)
                states.append(after)
                state = after
                continue
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(f"no normal form after {max_steps} rewrite steps")
            keep = len(stack) + 1 - len(lhs)
            del stack[keep:], states[keep + 1:]
            state = states[-1]
            todo += rules[lhs][::-1]
        return bytes(stack)


def normalize(system: RewritingSystem, word, max_steps: int = DEFAULT_MAX_STEPS) -> str:
    """Rewrite to an irreducible word, always the redex that ends first (see
    the module docstring) by the earliest rule that ends there.  Raises
    StepLimitExceeded after ``max_steps`` rewrites."""
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
    rules = [(rule.lhs, rule.rhs) for rule in system.rules]
    return [CriticalPair(*p) for r1 in rules for r2 in rules for p in _pairs_between(r1, r2)]


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
    index = _Matcher(())
    rules = index.rules  # in rule order, edited in place
    serial = 0
    queue: list[tuple[int, bytes, int, bytes, bytes]] = []

    def snapshot() -> RewritingSystem:
        return RewritingSystem(system.alphabet, [Rule(l, r) for l, r in rules.items()])

    def push(pairs) -> None:
        nonlocal serial
        for peak, u, v in pairs:
            heappush(queue, (len(peak), peak, serial, u, v))
            serial += 1

    push((rule.lhs, rule.lhs, rule.rhs) for rule in system.rules)
    steps = 0
    try:
        while queue:
            steps += 1
            if steps > max_steps:
                return GaveUp(snapshot(), "max_steps")
            _, _, _, u, v = heappop(queue)
            u, v = index.normalize(u, max_steps), index.normalize(v, max_steps)
            if u == v:
                continue
            lhs, rhs = (u, v) if _slex_greater(u, v) else (v, u)
            if len(lhs) > max_lhs_len:
                return GaveUp(snapshot(), "max_lhs_len")
            # lhs is irreducible, so it contains no left side; retiring those
            # that contain it keeps the system inter-reduced.
            for old_lhs, old_rhs in _containing(lhs, rules.items(), rules):
                index.retire(old_lhs)
                push([(old_lhs, old_lhs, old_rhs)])
            index.add(lhs, rhs)
            if len(rules) > max_rules:
                return GaveUp(snapshot(), "max_rules")
            # Renormalize the right sides lhs is in, all against the index as
            # it is now; each keeps its slot, also when a step limit fires.
            fresh: dict[bytes, bytes] = {}
            try:
                for old_lhs, old_rhs in _containing(lhs, rules.items(), rules.values()):
                    fresh[old_lhs] = index.normalize(old_rhs, max_steps)
            finally:
                rules.update(fresh)
            # Queue the pairs the new rule creates with each rule it overlaps,
            # in rule order and both roles, then with itself.
            new = (lhs, rules[lhs])
            for old_lhs in index.overlaps(lhs):
                old = (old_lhs, rules[old_lhs])
                push(_pairs_between(new, old))
                push(_pairs_between(old, new))
            push(_pairs_between(new, new))
    except StepLimitExceeded:
        return GaveUp(snapshot(), "max_steps")
    try:
        return Converged(certify(snapshot()))
    except NotConvergent as exc:
        raise InternalError(f"completion produced a non-convergent system: {exc}") from None


def _containing(part: bytes, items, words) -> list:
    """The items whose word (``words`` runs beside ``items``) contains
    ``part``.  One search of all the words joined rules out the common
    case, none, without a loop over them."""
    if part not in b"\xff".join(words):
        return []
    return [item for item, word in zip(items, words) if part in word]


def _pairs_between(r1: tuple[bytes, bytes], r2: tuple[bytes, bytes]):
    """(peak, left, right) of each critical pair of two (lhs, rhs) rules with
    r1 rewriting the front of the peak; ``r1 is r2`` pairs a rule with itself."""
    (l1, rhs1), (l2, rhs2) = r1, r2
    for t in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - t:] == l2[:t]:
            tail = l2[t:]
            yield l1 + tail, rhs1 + tail, l1[: len(l1) - t] + rhs2
    if r1 is not r2 and (len(l2) < len(l1) or l1 == l2):
        k = l1.find(l2)
        while k != -1:
            yield l1, rhs1, l1[:k] + rhs2 + l1[k + len(l2):]
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
            return Refuted(*(system.word_text(w) for w in (pair.peak, left, right)))
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
    step = system._matcher.step
    words, states = [b""], [b""]  # each word with its automaton state
    for stem, state in zip(words, states):  # the lists are their own queue
        for letter in range(len(system.alphabet)):
            after, lhs = step(state, letter)
            if lhs is not None:  # stem is irreducible: only a suffix can match
                continue
            if len(words) + 1 > cap:
                return MoreThanCap(len(words) + 1)
            words.append(stem + bytes((letter,)))
            states.append(after)
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
