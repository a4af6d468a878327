"""Brute-force ground truth for word equality and finite-group structure.

The search functions here decide nothing cleverly: ``bfs_equal`` explores raw
words under free cancellation, free insertion, and relation replacement, so
its verdicts depend only on the presentation itself.  They deliberately never
touch the rewriting engine — cross-validating that engine is their job.

``table_from_normal_forms`` is the one deliberate exception: it reads a
multiplication table off the right action of a proven-convergent system's
Cayley graph, then audits every group law on the result, turning engine
bugs into loud LawViolation errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import LawViolation, MultiObjectUnsupported, UnknownGenerator
from .model import Polygraph
from .words import Letter, Word

__all__ = [
    "Equal",
    "NotWithinRadius",
    "SearchSpace",
    "bfs_equal",
    "bfs_reach",
    "default_length_cap",
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
    """Honest unknown: no connection found inside radius and length cap."""


def default_length_cap(u_len: int, v_len: int, radius: int) -> int:
    """Word-length cap bounding the search space: 2·max(|u|,|v|) + 2·radius."""
    return 2 * max(u_len, v_len) + 2 * radius


# Internal state encoding: a word is a tuple of small ints, generator i
# positively as i and inverted as i + n.  Tuples hash fast and keep the
# visited set compact.
_State = tuple[int, ...]

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
        self._letters = tuple(Letter(g, sign) for sign in (1, -1) for g in p.gens)
        self._codes = {letter: i for i, letter in enumerate(self._letters)}
        self._mates = tuple(range(n, 2 * n)) + tuple(range(n))
        self._pairs = tuple((letter, self._mates[letter]) for letter in range(2 * n))
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
            return tuple(self._codes[letter] for letter in letters)
        except KeyError as exc:
            raise UnknownGenerator(f"unknown generator {exc.args[0].gen!r}") from None

    def decode(self, state: _State) -> Word:
        """The Word a state spells, at the presentation's one 0-cell."""
        cell = self.polygraph.cells0[0]
        return Word(tuple(self._letters[letter] for letter in state), cell, cell)

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
                for letter, pair in enumerate(self._pairs):
                    yield head + pair + tail, ("insert", i, self._letters[letter])
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
    distance in moves.  Keys are internal letter tuples; look up a target
    with a SearchSpace's ``encode`` of its ``Word.reduce``."""
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
    The search starts at the free reduction of u and succeeds when the free
    reduction of v appears.  ``Equal(k)`` reports the number of moves on the
    shortest such chain; NotWithinRadius means only that no chain exists
    within this radius and length cap.
    """
    space = p if isinstance(p, SearchSpace) else SearchSpace(p)
    u, v = space._word(u), space._word(v)
    start = space.encode(u.reduce())
    goal = space.encode(v.reduce())
    if length_cap is None:
        length_cap = default_length_cap(len(u), len(v), radius)
    for state, depth in _search(space, start, radius, length_cap):
        if state == goal:
            return Equal(depth)
    return NotWithinRadius()


def _search(
    space: SearchSpace, origin: _State, radius: int, length_cap: int
) -> Iterator[tuple[_State, int]]:
    """Breadth-first: each word within ``radius`` moves of ``origin``, once,
    with its distance, nearest first."""
    yield origin, 0
    seen = {origin}
    frontier = [origin]
    for depth in range(1, radius + 1):
        next_frontier: list[_State] = []
        for state in frontier:
            for child, _ in space.moves(state, length_cap):
                if child not in seen:
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
        t = self.table
        for i in range(n):
            for j in range(n):
                ij = t[i][j]
                for k in range(n):
                    if t[ij][k] != t[i][t[j][k]]:
                        raise LawViolation(
                            f"associativity fails at ({i}, {j}, {k})"
                        )


def closure_generates(table: MultiplicationTable, subset) -> bool:
    """Does the subset generate the whole group?

    Closes the subset under multiplication and inversion and compares the
    closure's size with the group order.
    """
    pending = list(dict.fromkeys(subset))
    if not pending:
        raise ValueError("the generating subset must be nonempty")
    for x in pending:
        if not (0 <= x < table.size):
            raise ValueError(f"index {x} is outside the table")
    closure = set(pending)
    while pending:
        x = pending.pop()
        candidates = [table.inverse[x]]
        candidates.extend(table.table[x][y] for y in closure)
        candidates.extend(table.table[y][x] for y in closure)
        for c in candidates:
            if c not in closure:
                closure.add(c)
                pending.append(c)
    return len(closure) == table.size


def table_from_normal_forms(system, cap: int = 10000) -> MultiplicationTable:
    """Multiplication table of the finite group a convergent system presents.

    Elements are the shortlex normal forms w_0 = 1, w_1, ..., and the rows
    are read off the Cayley graph's right action by every alphabet letter,
    which normalizes at most n·|alphabet| products.  Irreducible words are
    closed under prefixes, so w_j = w_parent(j) · x for its last letter x,
    and table[i][j] is the x-image of table[i][parent(j)]: the table itself
    is n² lookups.  The MultiplicationTable constructor then re-checks every
    group law, so a defective system cannot produce a quiet wrong answer.
    """
    from .cayley import _right_action

    words, action = _right_action(system, range(len(system.alphabet)), cap)
    index = {w: j for j, w in enumerate(words)}
    prefixes = [(index[w[:-1]], w[-1]) for w in words[1:]]
    identity = 0  # the empty word is shortlex-first
    n = len(words)
    table: list[tuple[int, ...]] = []
    for i in range(n):
        row = [i]
        for parent, x in prefixes:
            row.append(action[row[parent]][x])
        table.append(tuple(row))
    inverse = [0] * n
    for i in range(n):
        matches = [j for j in range(n) if table[i][j] == identity]
        if len(matches) != 1:
            raise LawViolation(f"element {i} has {len(matches)} right inverses")
        inverse[i] = matches[0]
    return MultiplicationTable(
        size=n, table=tuple(table), identity=identity, inverse=tuple(inverse)
    )
