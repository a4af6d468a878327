"""Brute-force ground truth for word equality and finite-group structure.

The search functions here decide nothing cleverly: ``bfs_equal`` explores raw
words under free cancellation, free insertion, and relation replacement, so
its verdicts depend only on the presentation itself.  They deliberately never
touch the rewriting engine — cross-validating that engine is their job.

``table_from_normal_forms`` is the one deliberate exception: it reads a
multiplication table off a proven-convergent system's memoized right
action, the one its Cayley graph reads, then audits every group law on the
result, turning engine bugs into loud LawViolation errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import (
    LawViolation,
    MultiObjectUnsupported,
    SearchLimitExceeded,
    UnknownGenerator,
)
from .model import Polygraph
from .words import Letter, Word

__all__ = [
    "Equal",
    "NotWithinRadius",
    "SearchSpace",
    "bfs_equal",
    "bfs_reach",
    "default_length_cap",
    "MAX_SEARCH_LETTERS",
    "MultiplicationTable",
    "closure_generates",
    "table_from_normal_forms",
]


@dataclass(frozen=True)
class Equal:
    """The words were connected within the radius, in ``steps`` moves."""

    steps: int


@dataclass(frozen=True)
class NotWithinRadius:
    """Honest unknown: no connection found inside radius and length cap.

    ``limit`` names what ended the search: "radius" when every word within
    it was visited, "max_search_letters" when the words visited held more
    than MAX_SEARCH_LETTERS letters.
    """

    limit: str = "radius"


# The most letters the words a search has visited may hold in all; a
# radius-4 ball around a six-letter b3 word holds up to about 1.2 million.
MAX_SEARCH_LETTERS = 10**7


def default_length_cap(u_len: int, v_len: int, radius: int) -> int:
    """Word-length cap bounding the search space: 2·max(|u|,|v|) + 2·radius."""
    return 2 * max(u_len, v_len) + 2 * radius


# Internal state encoding: a word is a str of one character per letter,
# generator i positively as chr(i) and inverted as chr(i + n).  Such a str
# hashes fast, takes one byte per letter below 256 generators and is not
# tracked by the garbage collector: a visited word of 13 letters costs 62
# bytes, against 160 as a tuple of ints.
_State = str

# An elementary move, labelled by what it does at position i of a word:
# ("cancel", i, letter) drops the inverse pair that starts with ``letter``,
# ("insert", i, letter) puts ``letter`` and its inverse there, and
# ("rel", i, (rel, sign)) replaces relation ``rel``'s left side by its right
# side (sign +1) or the reverse (sign -1).
Move = tuple[str, int, object]


class SearchSpace:
    """Move generator for one presentation; reusable across many searches."""

    def __init__(self, p: Polygraph):
        if len(p.cells0) != 1:
            raise MultiObjectUnsupported(
                "word search needs exactly one 0-cell, got "
                f"{len(p.cells0)}"
            )
        self.polygraph = p
        n = len(p.gens)
        letters = [Letter(g, sign) for sign in (1, -1) for g in p.gens]
        codes = [chr(i) for i in range(2 * n)]
        self._codes = dict(zip(letters, codes))
        self._letters = dict(zip(codes, letters))
        self._mates = dict(zip(codes, codes[n:] + codes[:n]))
        self._pairs = tuple(
            (letter, code + self._mates[code]) for letter, code in zip(letters, codes)
        )
        # Both replacement directions for every relation.
        self._swaps: list[tuple[_State, _State, tuple[str, int]]] = []
        for rel, (lhs, rhs) in p.rels.items():
            left = self.encode(lhs)
            right = self.encode(rhs)
            self._swaps.append((left, right, (rel, 1)))
            if left != right:
                self._swaps.append((right, left, (rel, -1)))

    def _word(self, word: Word | str) -> Word:
        """A Word over the presentation; text is parsed against it."""
        return self.polygraph.word(word) if isinstance(word, str) else word

    def encode(self, word: Word | str) -> _State:
        letters = self._word(word).letters
        try:
            return "".join(self._codes[letter] for letter in letters)
        except KeyError as exc:
            raise UnknownGenerator(f"unknown generator {exc.args[0].gen!r}") from None

    def decode(self, state: _State) -> Word:
        """The Word a state spells, at the presentation's one 0-cell."""
        cell = self.polygraph.cells0[0]
        return Word(tuple(self._letters[code] for code in state), cell, cell)

    def moves(self, state: _State, length_cap: int) -> Iterator[tuple[_State, Move]]:
        """Every word one elementary move away, each with its Move label:
        cancel an adjacent inverse pair, insert one, or swap a relation side.
        Words longer than ``length_cap`` are not produced."""
        length = len(state)
        mates = self._mates
        for i in range(length - 1):
            if state[i + 1] == mates[state[i]]:
                yield state[:i] + state[i + 2 :], ("cancel", i, self._letters[state[i]])
        if length + 2 <= length_cap:
            for i in range(length + 1):
                head, tail = state[:i], state[i:]
                for letter, pair in self._pairs:
                    yield head + pair + tail, ("insert", i, letter)
        for pattern, replacement, label in self._swaps:
            span = len(pattern)
            if length - span + len(replacement) > length_cap:
                continue
            for i in range(length - span + 1):
                if state[i : i + span] == pattern:
                    yield state[:i] + replacement + state[i + span :], ("rel", i, label)

    def neighbors(self, state: _State, length_cap: int) -> list[_State]:
        """All words one move away (the moves without their labels)."""
        return [child for child, _ in self.moves(state, length_cap)]


def bfs_reach(
    p_or_space: Polygraph | SearchSpace,
    start: Word | str,
    radius: int,
    *,
    length_cap: int,
) -> dict[_State, int]:
    """Every word reachable from the free reduction of ``start``, with its
    distance in moves.  Keys are internal letter strings; look up a target
    with a SearchSpace's ``encode`` of its ``Word.reduce``.  Raises
    SearchLimitExceeded if they would hold more than MAX_SEARCH_LETTERS
    letters."""
    space = p_or_space if isinstance(p_or_space, SearchSpace) else SearchSpace(p_or_space)
    return dict(_search(space, space.encode(space._word(start).reduce()), radius, length_cap))


def bfs_equal(
    p: Polygraph | SearchSpace,
    u: Word | str,
    v: Word | str,
    radius: int,
    *,
    length_cap: int | None = None,
) -> Equal | NotWithinRadius:
    """Search for a chain of elementary moves connecting u to v.

    Moves: free cancellation of an adjacent inverse pair, free insertion of
    one, and replacement of one relation side by the other at any position.
    The search connects the free reductions of u and v.  ``Equal(k)``
    reports the number of moves on the shortest such chain; NotWithinRadius
    means only that no chain exists within this radius and length cap, or
    that the search stopped at MAX_SEARCH_LETTERS (its ``limit`` says which).

    Every move between words within the length cap can be undone, so the
    search grows two balls, one around each end, a whole layer at a time,
    always the one with fewer words on its edge (the one around u on a tie).
    It stops when they meet or their radii add up to ``radius``; the letter
    bound covers both.  Every move but cancellation lands within the cap,
    and a reduced word allows no cancellation.  So a v beyond the cap is
    reached only when it is u, and a u beyond it is left at its first move,
    which the ball around u makes first.
    """
    space = p if isinstance(p, SearchSpace) else SearchSpace(p)
    u, v = space._word(u), space._word(v)
    start = space.encode(u.reduce())
    goal = space.encode(v.reduce())
    if length_cap is None:
        length_cap = default_length_cap(len(u), len(v), radius)
    if len(goal) > length_cap:
        return Equal(0) if start == goal else NotWithinRadius()
    try:
        path = _meet(space, start, goal, radius, length_cap)
    except SearchLimitExceeded:
        return NotWithinRadius("max_search_letters")
    return NotWithinRadius() if path is None else Equal(len(path) - 1)


def _meet(
    space: SearchSpace, start: _State, goal: _State, radius: int, length_cap: int
) -> list[_State] | None:
    """A shortest chain of words from ``start`` to ``goal``, each one move
    from the next, if it takes at most ``radius`` moves, found by growing a
    ball around each end (see bfs_equal); None if the balls never meet.
    Raises SearchLimitExceeded once the two hold more than
    MAX_SEARCH_LETTERS letters."""
    if start == goal:
        return [start]
    # Each ball maps a word to the word it was reached from; its centre to None.
    balls: tuple[dict[_State, _State | None], ...] = ({start: None}, {goal: None})
    edges = [[start], [goal]]
    letters = len(start) + len(goal)
    radii = [0, 0]
    while radii[0] + radii[1] < radius and edges[0] and edges[1]:
        side = 1 if len(edges[1]) < len(edges[0]) else 0
        ball, other = balls[side], balls[1 - side]
        radii[side] += 1
        edge: list[_State] = []
        for state in edges[side]:
            for child, _ in space.moves(state, length_cap):
                if child in ball:
                    continue
                if child in other:
                    # The balls were apart, so every chain is longer than
                    # their radii before this layer: this one is shortest.
                    ball[child] = state
                    return _back(balls[0], child)[::-1] + _back(balls[1], child)[1:]
                letters += len(child)
                if letters > MAX_SEARCH_LETTERS:
                    raise SearchLimitExceeded(
                        f"the words searched hold more than {MAX_SEARCH_LETTERS} letters"
                    )
                ball[child] = state
                edge.append(child)
        edges[side] = edge
    return None


def _back(ball: dict[_State, _State | None], state: _State | None) -> list[_State]:
    """The words from ``state`` back to its ball's centre."""
    path: list[_State] = []
    while state is not None:
        path.append(state)
        state = ball[state]
    return path


def _search(
    space: SearchSpace, origin: _State, radius: int, length_cap: int
) -> Iterator[tuple[_State, int]]:
    """Breadth-first: each word within ``radius`` moves of ``origin``, once,
    with its distance, nearest first.  Raises SearchLimitExceeded once the
    words visited hold more than MAX_SEARCH_LETTERS letters."""
    yield origin, 0
    seen = {origin}
    letters = len(origin)
    frontier = [origin]
    for depth in range(1, radius + 1):
        next_frontier: list[_State] = []
        for state in frontier:
            for child, _ in space.moves(state, length_cap):
                if child not in seen:
                    letters += len(child)
                    if letters > MAX_SEARCH_LETTERS:
                        raise SearchLimitExceeded(
                            f"the words searched hold more than {MAX_SEARCH_LETTERS} letters"
                        )
                    seen.add(child)
                    next_frontier.append(child)
                    yield child, depth
        frontier = next_frontier
        if not frontier:
            break


# ------------------------------------------------------------- group tables


@dataclass(frozen=True)
class MultiplicationTable:
    """A finite group as an explicit table over element indices.

    Construction-time checks enforce closure, a two-sided identity,
    two-sided inverses, and full associativity, so holding an instance is
    already a proof that the data is a group.
    """

    size: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    def __post_init__(self):
        n = self.size
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise LawViolation(f"table is not {n}x{n}")
        for row in self.table:
            for x in row:
                if not (0 <= x < n):
                    raise LawViolation("table entry out of range: not closed")
        e = self.identity
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise LawViolation(f"element {e} is not a two-sided identity")
        if len(self.inverse) != n:
            raise LawViolation("inverse map has the wrong length")
        for i in range(n):
            j = self.inverse[i]
            if self.table[i][j] != e or self.table[j][i] != e:
                raise LawViolation(f"element {j} is not the inverse of {i}")
        # Light's test (Clifford and Preston, The Algebraic Theory of
        # Semigroups I, 1961): the elements a with (x·a)·y = x·(a·y) for all
        # x, y contain the identity and are closed under products, so checking
        # them on a set whose right products reach every element proves the
        # whole table associative.  The set is found here, greedily: each new
        # generator is the smallest element not yet reached.  In a group each
        # one at least doubles the subgroup reached, so there are at most
        # log2(n) of them and the audit is O(n² log n).
        t = self.table
        for a in _right_generators(t, e):
            row_a = t[a]
            for i in range(n):
                row_i = t[i]
                row_ia = tuple(t[row_i[a]])
                if tuple(map(row_i.__getitem__, row_a)) != row_ia:
                    k = next(k for k in range(n) if row_ia[k] != row_i[row_a[k]])
                    raise LawViolation(f"associativity fails at ({i}, {a}, {k})")


def _right_generators(t, identity: int) -> list[int]:
    """Elements whose right products, from the identity, reach every row of t."""
    reached = {identity}
    gens: list[int] = []
    while len(reached) < len(t):
        gens.append(min(x for x in range(len(t)) if x not in reached))
        _close(t, reached, gens)  # every reached element meets the new generator
    return gens


def _close(t, reached: set[int], steps: list[int]) -> set[int]:
    """Close ``reached`` under right multiplication by ``steps``, in place."""
    queue = list(reached)
    while queue:
        row = t[queue.pop()]
        for x in steps:
            if row[x] not in reached:
                reached.add(row[x])
                queue.append(row[x])
    return reached


def closure_generates(table: MultiplicationTable, subset) -> bool:
    """Does the subset generate the whole group?

    It does when the closure of the identity under right multiplication by
    the subset and its inverses, O(n·|subset|) lookups, is the whole table.
    """
    subset = list(dict.fromkeys(subset))
    if not subset:
        raise ValueError("the generating subset must be nonempty")
    for x in subset:
        if not (0 <= x < table.size):
            raise ValueError(f"index {x} is outside the table")
    steps = subset + [table.inverse[x] for x in subset]
    return len(_close(table.table, {table.identity}, steps)) == table.size


def table_from_normal_forms(system, cap: int = 10000) -> MultiplicationTable:
    """Multiplication table of the finite group a convergent system presents.

    Elements are the shortlex normal forms w_0 = 1, w_1, ..., and the table
    reads the system's memoized right action, which the Cayley graph shares:
    a letter's column normalizes at most n products, once per system.  Since
    w_j = w_parent(j) · x for its last letter x, right multiplication by w_j
    is that by w_parent(j), then x's column: the table is n² lookups.  The
    MultiplicationTable constructor then re-checks every group law, so a
    defective system cannot produce a quiet wrong answer.
    """
    action = system._action(cap)
    words = action.words
    times = [list(range(len(words)))]  # times[j][i]: the index of w_i · w_j
    for word in words[1:]:
        parent = times[action.index[word[:-1]]]
        times.append(list(map(action.column(word[-1]).__getitem__, parent)))
    table = tuple(zip(*times))
    identity = 0  # the empty word is shortlex-first
    inverse = []
    for i, row in enumerate(table):
        if row.count(identity) != 1:
            raise LawViolation(f"element {i} has {row.count(identity)} right inverses")
        inverse.append(row.index(identity))
    return MultiplicationTable(len(words), table, identity, tuple(inverse))
