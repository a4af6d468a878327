"""String rewriting for one-0-cell presentations, with Knuth-Bendix completion.

A presentation is encoded over a positive alphabet that contains one letter
per generator plus one first-class *inverse letter* per generator (written
with a trailing apostrophe: the inverse of ``a`` is the letter ``a'``).
Free cancellation is not built into the data: it is carried by explicit
rewrite rules ``a a' -> 1`` and ``a' a -> 1`` that take part in completion
like any other rule.  A relator ``w = 1`` of two or more letters is encoded
balanced, as ``w[:h] = w[h:]^-1`` with h = ceil(|w|/2) (``r^5 = 1`` gives
``r r r -> r' r'``): the same relation, whose shorter left side leaves
completion less to cut down.  Completion that converges returns the same
rules either way, since the reduced convergent system of a congruence under
one reduction order is unique.

Words are ordered by shortlex: shorter first, ties broken letter-by-letter
using the alphabet's precedence (by default: generators in declaration
order, then their inverse letters in the same order).  Every rule strictly
decreases this order, which makes normalize() terminate.

Internally a word is a ``bytes`` value, one byte per letter index; the
public functions speak word text (``a b' a^2``) or Word values.

Queries and complete() run on a rule index, an automaton over the left
sides (see _Matcher) with numbered states, each with a list row of one
slot per letter, filled with its transition or redex when first needed;
adding or retiring a rule empties only the slots it can change;
complete() hands its index on to a converged result.  normalize() reads
a letter with one list lookup and rewrites the redex that ends first.
In the inter-reduced systems complete() builds that is the leftmost
redex; a hand-built system may differ: ``a b c -> x``, ``b -> y`` take
``a b c`` to ``a y c``, not ``x``.

The text serialization of a system is one rule per line after an order
header, and parses back with parse_system()::

    order: a < b < a' < b'
    a a' -> 1
    b a b -> a b a
"""

from __future__ import annotations

import logging
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

from .errors import (
    InfiniteOrUnknown,
    InternalError,
    MultiObjectUnsupported,
    NotConvergent,
    ParseError,
    PolygraphError,
    SourceSpan,
    StepLimitExceeded,
    UnknownGenerator,
)
from .model import Polygraph
from .words import MAX_WORD_LETTERS, Word, scan_word

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
        self._bytes = bytes(range(len(self.letters)))

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
        """Encode a Word, word text, or bytes into letter indices;
        UnknownGenerator for a letter outside the alphabet."""
        if isinstance(word, bytes):
            foreign = word.translate(None, self._bytes)
            if foreign:
                raise UnknownGenerator(
                    f"letter index {foreign[0]} is not in the alphabet of {len(self)} letters"
                )
            return word
        if isinstance(word, Word):
            return bytes(
                self.index(_letter_name(letter.gen, letter.sign)) for letter in word.letters
            )
        if isinstance(word, str):
            return self._text_bytes(word)
        raise TypeError(f"cannot encode {word!r} as a word")

    def _text_bytes(self, text: str) -> bytes:
        """Word text as letter indices, reading each distinct term once.

        Any failure (a bad term, ``1`` beside other terms, an unknown letter,
        more than MAX_WORD_LETTERS letters) reads the whole text again term
        by term, so the error is the one that reading raises, at its term."""
        tokens = text.split()
        try:
            terms = {token: self.encode_runs(scan_word(token)) for token in set(tokens)}
        except (ParseError, UnknownGenerator):
            terms = {}
        if terms and ("1" not in terms or len(tokens) == 1):
            sizes = {token: len(letters) for token, letters in terms.items()}
            if sum(map(sizes.__getitem__, tokens)) <= MAX_WORD_LETTERS:
                return b"".join(map(terms.__getitem__, tokens))
        return self.encode_runs(scan_word(text))

    def encode_runs(self, runs) -> bytes:
        """Letter indices of words.scan_word runs; UnknownGenerator for a
        letter outside the alphabet."""
        out = bytearray()
        for gen, sign, count, _, _ in runs:
            out += bytes((self.index(_letter_name(gen, sign)),)) * count
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
        # UnknownGenerator for a rule over a letter outside the alphabet.
        self.alphabet.word_bytes(b"".join(rule.lhs + rule.rhs for rule in self.rules))

    @cached_property
    def _matcher(self) -> _Matcher:
        """The compiled rule index every query on this system shares."""
        return _Matcher(self.rules, len(self.alphabet))

    def _action(self, cap: int) -> _RightAction:
        """The right action on the normal forms (see _RightAction), memoized
        like ``_matcher``.  NotConvergent on an unproven system; InfiniteOrUnknown
        past ``cap`` normal forms, whatever an earlier caller's cap listed."""
        action = self.__dict__.get("_right_action")
        if action is None:
            words = _normal_form_bytes(self, cap)
            if not isinstance(words, MoreThanCap):
                action = self.__dict__["_right_action"] = _RightAction(self, words)
        if action is None or len(action.words) > cap:
            raise InfiniteOrUnknown(
                f"presentation has more than {cap} normal forms; "
                "raise the cap if the group really is finite"
            )
        return action

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
    no rewriting content; it is dropped with a log note.  One whose sides
    freely reduce to a relator ``w = 1`` with at least two letters is split
    in half first, as ``w[:h] = w[h:]^-1`` with h = ceil(|w|/2): d5's
    ``r^5 = 1``, ``s^2 = 1`` and ``r s r s = 1`` become ``r r r -> r' r'``,
    ``s' -> s`` and ``s' r' -> r s``.  Relations with two nonempty sides and
    one-letter relators are kept as written.

    With ``inverses=False`` the alphabet is the generators alone and no
    cancellation rules are added: the system rewrites the monoid presented by
    the positive relations instead of the group, and a relator stays whole,
    as ``w -> 1``.  Every relation side must then be a positive word
    (UnknownGenerator otherwise).  Useful when the group system diverges
    under completion but the monoid one does not.
    The alphabet holds at most 255 letters (PolygraphError otherwise).
    """
    if len(p.cells0) != 1:
        raise MultiObjectUnsupported(
            f"string rewriting needs exactly one 0-cell, got {len(p.cells0)}"
        )
    gens = list(p.gens)
    letters = len(gens) * (2 if inverses else 1)
    if letters > 255:
        raise PolygraphError(
            f"{len(gens)} generators need {letters} letters; string rewriting allows 255"
        )
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
        if inverses and not (left and right) and len(left + right) >= 2:
            # w = 1 as w[:h] = w[h:]^-1: half the left side for completion to cut.
            word = left + right
            h = (len(word) + 1) // 2
            left, right = word[:h], bytes((x + n) % (2 * n) for x in reversed(word[h:]))
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
    lowest-index left side that ends it.  ``suffixes`` maps each proper
    suffix of a left side to the left sides it ends; with ``prefixes`` it
    finds a left side's overlaps.  Each prefix and suffix is its own key, so
    a left side of L letters costs about L² bytes; complete() bounds L by
    ``max_lhs_len``.

    Queries run on integer states: ``ids`` numbers each state met so far
    (the start state is 0) and ``states`` lists them by number.  ``rows[i]``
    holds one slot per letter of the alphabet (``width`` of them) for state
    i: None until step() fills it, then the next state's number, or
    ``~rank`` when the letter completes a redex whose left side has that
    rank.  ``actions[rank]`` is (letters of the left side before the
    letter, right side reversed), or None once the rule is retired.  A new
    left side keeps every state and its number, and takes the highest
    rank, so a redex slot stays as it is; add() empties exactly the slots
    (s, a) where s + a ends with the new left side or with one of its
    prefixes that was no state before.  The numbered states that end with a
    word are one run of ``tails``, their reversed words kept sorted.
    retire() empties the same slots and drops the rule's action; a state
    that is no prefix any more keeps its number and row, but no slot leads
    to it.  A new right side for a live left side changes only its action
    (set_rhs).  Each edit also empties ``memo``, which maps words to their
    normal forms under the live rules.
    """

    def __init__(self, rules, width: int):
        self.width = width
        self.rules: dict[bytes, bytes] = {}
        self.rank: dict[bytes, int] = {}
        self.prefixes: dict[bytes, list[bytes]] = {}
        self.suffixes: dict[bytes, list[bytes]] = {}
        self.ids: dict[bytes, int] = {b"": 0}
        self.states: list[bytes] = [b""]
        self.tails: list[tuple[bytes, int]] = [(b"", 0)]  # (state reversed, number), sorted
        self.rows: list[list[int | None]] = [[None] * width]
        self.actions: list[tuple[int, bytes] | None] = []  # by rank; None once retired
        self.memo: dict[bytes, bytes] = {}
        for rule in rules:  # rule order is the rule index order
            if rule.lhs not in self.rules:
                self.add(rule.lhs, rule.rhs)

    def add(self, lhs: bytes, rhs: bytes) -> None:
        self._reset(lhs)
        self.rules[lhs] = rhs
        self.rank[lhs] = len(self.actions)
        self.actions.append((len(lhs) - 1, rhs[::-1]))
        for table, part in self._parts(lhs):
            table.setdefault(part, []).append(lhs)

    def retire(self, lhs: bytes) -> None:
        del self.rules[lhs]
        self.actions[self.rank.pop(lhs)] = None
        for table, part in self._parts(lhs):
            table[part].remove(lhs)
            if not table[part]:
                del table[part]
        self._reset(lhs)

    def _reset(self, lhs: bytes) -> None:
        """Empty the slots that listing or unlisting ``lhs`` changes: (s, a)
        where s + a ends with lhs or with a prefix of lhs longer than ``old``
        letters, the longest that is a state while lhs is unlisted, and the
        memo."""
        self.memo.clear()
        old, tails, backwards = len(lhs), self.tails, lhs[::-1]
        while old and lhs[:old] not in self.prefixes:
            old -= 1
        for k in range(min(old, len(lhs) - 1), len(lhs)):
            tail = backwards[len(lhs) - k:]  # lhs[:k] reversed; its states: one run of tails
            i = bisect_left(tails, (tail,))
            while i < len(tails) and tails[i][0].startswith(tail):
                self.rows[tails[i][1]][lhs[k]] = None
                i += 1

    def set_rhs(self, lhs: bytes, rhs: bytes) -> None:
        """Give the live left side ``lhs`` the right side ``rhs``."""
        self.memo.clear()
        self.rules[lhs] = rhs
        self.actions[self.rank[lhs]] = (len(lhs) - 1, rhs[::-1])

    def _parts(self, lhs: bytes):
        """Where ``lhs`` is listed: under each nonempty prefix and each proper
        suffix."""
        for k in range(1, len(lhs) + 1):
            yield self.prefixes, lhs[:k]
        for k in range(1, len(lhs)):
            yield self.suffixes, lhs[k:]

    def step(self, state: bytes, letter: int) -> tuple[bytes, bytes | None]:
        """The state after reading ``letter`` in ``state``, and its redex;
        records the answer in the slot of ``letter`` in the row of
        ``state``."""
        word = state + bytes((letter,))
        while word and word not in self.prefixes:
            word = word[1:]
        ends = [word[k:] for k in range(len(word)) if word[k:] in self.rank]
        lhs = min(ends, key=self.rank.__getitem__, default=None)
        row = self.rows[self._number(state)]
        row[letter] = self._number(word) if lhs is None else ~self.rank[lhs]
        return word, lhs

    def _number(self, state: bytes) -> int:
        """The number of ``state``, with a row of empty slots if it is new."""
        if state not in self.ids:
            self.ids[state] = len(self.states)
            insort(self.tails, (state[::-1], len(self.states)))
            self.states.append(state)
            self.rows.append([None] * self.width)
        return self.ids[state]

    def move(self, state: int, letter: int) -> int:
        """The slot of ``letter`` in the row of state number ``state``."""
        row = self.rows[state]
        if row[letter] is None:
            self.step(self.states[state], letter)
        return row[letter]

    def overlap_hits(self, lhs: bytes) -> list[tuple[int, int, int, bytes]]:
        """(rank, behind, t, other) for each way a live left side ``other``
        overlaps ``lhs`` by t letters, 0 < t < both lengths: ``behind`` is 0
        when the last t letters of ``lhs`` start ``other`` (``lhs`` itself
        among them) and 1 when the first t end ``other``.  Sorted, so in rule
        order, ``lhs`` in front first, t ascending."""
        rank, hits = self.rank, []
        for k in range(1, len(lhs)):
            t = len(lhs) - k
            for other in self.prefixes.get(lhs[k:], ()):
                if len(other) > t:
                    hits.append((rank[other], 0, t, other))
            for other in self.suffixes.get(lhs[:k], ()):
                if other != lhs:
                    hits.append((rank[other], 1, k, other))
        hits.sort()
        return hits

    def read(self, word: bytes, state: int = 0) -> int:
        """Read ``word`` from state number ``state`` along the rows, as
        normalize() does: the number of the state after it, or, negative,
        the slot of the first letter that ends a left side.  Negative from
        the start state exactly when a live left side occurs in ``word``."""
        rows = self.rows
        for letter in word:
            move = rows[state][letter]
            if move is None:
                move = self.move(state, letter)
            if move < 0:
                return move
            state = move
        return state

    def normalize(self, word: bytes, max_steps: int) -> bytes:
        """Read letters onto an irreducible stack, with the state after each
        prefix of it on a second stack.  When a letter leads to a redex, cut
        the rest of the redex off both stacks and push its right side back
        onto the letters to read.  With no left side inside another, the
        redex that ends first is the leftmost and only one rule matches
        there: this rewrites the same redexes in the same order as
        leftmost-lowest rewriting."""
        rows, actions = self.rows, self.actions
        stack = bytearray()
        path = [0]  # path[i] is the state after stack[:i]
        row = rows[0]
        todo = bytearray(word[::-1])  # the next letter to read is last
        steps = 0
        while todo:
            letter = todo.pop()
            move = row[letter]
            if move is None:
                move = self.move(path[-1], letter)
            if move >= 0:
                stack.append(letter)
                path.append(move)
                row = rows[move]
                continue
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(f"no normal form after {max_steps} rewrite steps")
            cut, rhs = actions[~move]
            keep = len(stack) - cut
            del stack[keep:], path[keep + 1:]
            row = rows[path[-1]]
            todo += rhs
        return bytes(stack)

    def normal_form(self, word: bytes, max_steps: int) -> bytes:
        """normalize() through the memo: a word in it is not read again."""
        if word not in self.memo:
            self.memo[word] = self.normalize(word, max_steps)
        return self.memo[word]


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
    Composite pairs, which verify_convergent() skips, are listed too.
    """
    return [CriticalPair(*_pair_words(*pair)) for _, *pair in _critical_pairs(system)]


def _pair_words(l1: bytes, r1: bytes, k: int, l2: bytes, r2: bytes):
    """The peak where the left side l1 starts and l2 starts k letters in,
    and its rewrites by l1 -> r1 and by l2 -> r2."""
    tail = l2[len(l1) - k:]  # empty when l2 lies inside l1
    peak = l1 + tail
    return peak, r1 + tail, peak[:k] + r2 + peak[k + len(l2):]


def _critical_pairs(system: RewritingSystem):
    """(composite, l1, r1, k, l2, r2) of each critical pair (its words are
    _pair_words of the rest), rule by rule: the overlaps with the rule's
    left side in front, read off the rule index, then the left sides inside
    it.  ``composite`` marks an overlap whose peak without its first and
    last letter contains a left side; a left side inside another is never
    composite."""
    index, rules = system._matcher, [(rule.lhs, rule.rhs) for rule in system.rules]
    sides: dict[bytes, list[bytes]] = {}
    for lhs, rhs in rules:
        sides.setdefault(lhs, []).append(rhs)
    for n, (l1, r1) in enumerate(rules):
        # The inner word of every peak with l1 in front starts with l1[1:].
        front = index.read(l1[1:])
        for _, behind, t, l2 in index.overlap_hits(l1):
            if not behind:
                tail = l2[t:]
                composite = front < 0 or index.read(tail[:-1], front) < 0
                for r2 in sides[l2]:
                    yield composite, l1, r1, len(l1) - t, l2, r2
        # Another left side lies in l1 only if it repeats l1 or lies in l1
        # without its first or last letter: never, in an inter-reduced system.
        if len(sides[l1]) > 1 or front < 0 or index.read(l1[:-1]) < 0:
            for m, (l2, r2) in enumerate(rules):
                if m == n or (len(l2) >= len(l1) and l2 != l1):
                    continue
                k = l1.find(l2)
                while k != -1:
                    yield False, l1, r1, k, l2, r2
                    k = l1.find(l2, k + 1)


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
    rule starts out as an equation.  A critical pair is numbered when found
    but kept unbuilt, filed by peak length, until the queue reaches that
    length: only then are its peak and sides built and queued, so the pairs
    a run never reaches cost no words.  When a popped equation still has two
    distinct normal forms it becomes a new rule; existing rules whose left
    side the new rule rewrites are retired back into the queue, and right
    sides are kept fully normalized.  A popped critical pair that is
    composite by the live rules is skipped, as only prime pairs need to join
    (Kapur, Musser and Narendran 1988; see verify_convergent); input and
    retired rules, queued with their left side as the peak, never are.  An
    empty queue means every prime critical pair joins; the result is then
    re-verified, from the normal forms found since the last rule edit (the
    index's memo), and stamped "proven".  It keeps the run's index: rank
    order is rule order and no left side lies in another, so the index
    answers as a fresh build would.

    The limits bound, in order: live rules, the left-side length of any new
    rule, and the number of equations processed; ``max_steps`` also bounds
    each normalization, and either step limit returns ``GaveUp("max_steps")``.
    A completed system that fails re-verification raises InternalError.
    """
    index = _Matcher((), len(system.alphabet))
    rules = index.rules  # in rule order, edited in place
    serial = 0
    queue: list[tuple[int, bytes, int, bytes, bytes]] = []
    # Critical pairs not built yet, by peak length: (serial, l1, r1, t, l2, r2)
    # when l2 starts with the last t letters of l1; ``sizes`` lists the
    # lengths, sorted.
    waiting: dict[int, list[tuple[int, bytes, bytes, int, bytes, bytes]]] = {}
    sizes: list[int] = []

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
        while queue or sizes:
            steps += 1
            if steps > max_steps:
                return GaveUp(snapshot(), "max_steps")
            # Build the waiting pairs no longer than the front of the queue
            # (or the shortest, if it is empty): none left can come first.
            while sizes and (not queue or sizes[0] <= queue[0][0]):
                size = sizes.pop(0)
                for at, l1, r1, t, l2, r2 in waiting.pop(size):
                    tail = l2[t:]
                    heappush(queue, (size, l1 + tail, at, r1 + tail, l1[:-t] + r2))
            _, peak, _, u, v = heappop(queue)
            if u != peak and index.read(peak[1:-1]) < 0:
                continue
            u, v = index.normal_form(u, max_steps), index.normal_form(v, max_steps)
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
                for old_lhs, old_rhs in fresh.items():
                    index.set_rhs(old_lhs, old_rhs)
            # Number the critical pairs of the new rule with each rule it
            # overlaps, in rule order (itself last), the new rule in front
            # first, shortest overlap first, and leave them waiting.  No left
            # side lies in another, so these are all of them.
            n = len(lhs)
            for _, behind, t, other in index.overlap_hits(lhs):
                size = n + len(other) - t
                bucket = waiting.get(size)
                if bucket is None:
                    bucket = waiting[size] = []
                    insort(sizes, size)
                if behind:
                    bucket.append((serial, other, rules[other], t, lhs, rhs))
                else:
                    bucket.append((serial, lhs, rhs, t, other, rules[other]))
                serial += 1
    except StepLimitExceeded:
        return GaveUp(snapshot(), "max_steps")
    result = snapshot()
    result.__dict__["_matcher"] = index  # as cached_property stores it
    try:
        return Converged(certify(result))
    except NotConvergent as exc:
        raise InternalError(f"completion produced a non-convergent system: {exc}") from None


def _containing(part: bytes, items, words) -> list:
    """The items whose word (``words`` runs beside ``items``) contains
    ``part``.  One search of all the words joined rules out the common
    case, none, without a loop over them."""
    if part not in b"\xff".join(words):
        return []
    return [item for item, word in zip(items, words) if part in word]


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
    """Join every prime critical pair; any failure is a witness.

    An overlap is composite, and skipped before its peak and sides are
    built, when a left side lies in its peak without the peak's first and
    last letter; a left side inside another is always checked.  Each
    distinct side word is normalized once, through the index's memo, which
    starts with what complete() left there and is emptied at the end.  Every
    rule decreases shortlex, so rewriting terminates, and a terminating
    system is confluent exactly when its prime critical pairs join (Kapur,
    Musser and Narendran, "Only prime superpositions need be considered in
    the Knuth-Bendix completion procedure", J. Symbolic Computation 6, 1988;
    Sims 1994, ch. 2): passing means unique normal forms.
    """
    matcher = system._matcher
    try:
        for composite, l1, r1, k, l2, r2 in _critical_pairs(system):
            if composite:
                continue
            peak, left, right = _pair_words(l1, r1, k, l2, r2)
            left, right = (matcher.normal_form(w, DEFAULT_MAX_STEPS) for w in (left, right))
            if left != right:
                return Refuted(*(system.word_text(w) for w in (peak, left, right)))
        return Proven()
    finally:
        matcher.memo.clear()


def certify(system: RewritingSystem) -> RewritingSystem:
    """Verify convergence of a hand-built system; return a proven copy.

    Systems assembled directly (or read back via parse_system) start out
    with convergent="unknown", which blocks normal-form queries.  This joins
    every prime critical pair (see verify_convergent) and either returns a
    new system with the same rules, marked proven, or raises NotConvergent
    carrying the refutation witness; the copy shares the argument's rule
    index, if built.  The argument itself is left as it was.
    """
    proven = RewritingSystem(system.alphabet, system.rules)
    if "_matcher" in system.__dict__:
        proven.__dict__["_matcher"] = system._matcher
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

    An irreducible word never reaches a state of the rule index that is a
    left side, so it passes through at most n states, n - 1 prefixes of
    left sides plus the start.  A word of n letters repeats a state and so
    lies on a loop that pumps into infinitely many irreducible words
    (Epstein et al., *Word Processing in Groups*, 1992, ch. 2): the first
    one found returns ``MoreThanCap(cap + 1)`` at once, as listing up to the
    cap would.
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
    index = system._matcher
    move = index.move
    # The states an irreducible word can pass through: prefixes of left
    # sides that are not left sides, and the start state.
    bound = len(index.prefixes) - len(index.rules) + 1
    words, states = [b""], [0]  # each word with its automaton state
    for stem, state in zip(words, states):  # the lists are their own queue
        for letter in range(len(system.alphabet)):
            after = move(state, letter)
            if after < 0:  # a redex; stem is irreducible, so only a suffix matches
                continue
            if len(words) >= cap or len(stem) + 1 >= bound:
                return MoreThanCap(cap + 1)
            words.append(stem + bytes((letter,)))
            states.append(after)
    return words


class _RightAction:
    """The shortlex normal forms w_0 = 1, w_1, ... of a finite proven system,
    their ``index``, and per letter x a column whose i-th entry is the index
    of nf(w_i · x), filled on first demand.  A product w_i · x that is itself
    irreducible is its own normal form, so only the others are rewritten."""

    def __init__(self, system: RewritingSystem, words: list[bytes]):
        self.words = words
        self.index = {word: i for i, word in enumerate(words)}
        # The matcher and letters, not the system: no cycle through its memo.
        self._matcher, self._letters = system._matcher, system.alphabet.letters
        self._columns: list[list[int] | None] = [None] * len(self._letters)

    def column(self, x: int) -> list[int]:
        column = self._columns[x]
        if column is None:
            index, letter, column = self.index, bytes((x,)), []
            for word in self.words:
                product = word + letter
                if product not in index:
                    product = self._matcher.normalize(product, DEFAULT_MAX_STEPS)
                    if product not in index:
                        text = " ".join(self._letters[b] for b in word) or "1"
                        raise InternalError(
                            f"normalize({text!r} * {self._letters[x]}) "
                            "left the normal-form set"
                        )
                column.append(index[product])
            self._columns[x] = column
        return column


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
    """Read the format_system() text back; the result is convergence-unknown.
    A ParseError points at the offending letter, or at the line's start."""
    lines = text.splitlines()
    alphabet: Alphabet | None = None
    rules: list[Rule] = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        line = body.strip()
        if not line:
            continue
        start = SourceSpan(lineno, len(body) - len(body.lstrip()) + 1)
        if alphabet is None:
            if not line.startswith("order:"):
                raise ParseError("a system file starts with 'order: a < b < ...'", start)
            rest = line[len("order:"):]
            if not rest.strip():
                raise ParseError("empty letter order", start)
            letters: list[str] = []
            column = start.column + len("order:")  # where the next part starts
            for part in rest.split("<"):
                name = part.strip()
                at = SourceSpan(lineno, column + len(part) - len(part.lstrip()))
                column += len(part) + 1
                # A letter name is word text for exactly one letter: itself.
                runs = scan_word(name, lineno, at.column)
                if [(_letter_name(g, s), c) for g, s, c, _, _ in runs] != [(name, 1)]:
                    raise ParseError(f"bad letter {name!r}", at)
                if name in letters:
                    raise ParseError("alphabet letters must be distinct", at)
                letters.append(name)
            try:
                alphabet = Alphabet(letters)
            except ValueError as exc:
                raise ParseError(str(exc), start) from exc
            continue
        arrow = body.find("->")
        if arrow < 0:
            raise ParseError("expected 'lhs -> rhs'", start)
        lhs = scan_word(body[:arrow], lineno)
        rhs = scan_word(body[arrow + 2:], lineno, arrow + 3)
        try:
            rules.append(Rule(alphabet.encode_runs(lhs), alphabet.encode_runs(rhs)))
        except UnknownGenerator as exc:
            column = next(
                c for g, s, _, _, c in lhs + rhs if _letter_name(g, s) not in alphabet.letters
            )
            raise ParseError(str(exc), SourceSpan(lineno, column)) from exc
        except ValueError as exc:
            raise ParseError(str(exc), start) from exc
    if alphabet is None:
        raise ParseError("empty system text", SourceSpan(1, 1))
    return RewritingSystem(alphabet, rules)
