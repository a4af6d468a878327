"""A fixed reference workload that measures how fast the machine is right now.

The machines this benchmark runs on are shared, and their speed for
single-threaded Python swings by up to 2x over seconds.  The reference unit
is pure Python owned by the benchmark and independent of polygraph: string
rewriting on bytes, a breadth-first search over tuples with a visited set,
and small-object churn, the same kinds of work the program does.  Running it
between jobs gives the machine's speed at that moment.
"""

from __future__ import annotations

from time import perf_counter

_RULES = ((b"\x01\x00", b"\x00\x01"), (b"\x01\x01\x01", b""), (b"\x00\x00\x00\x00", b"\x02"),
          (b"\x02\x01", b"\x01\x02"), (b"\x02\x02", b"\x00"))
_WORD = bytes((i * 7 + i // 3) % 3 for i in range(120))


def _normalize(word: bytes) -> bytes:
    pos = 0
    while pos < len(word):
        for lhs, rhs in _RULES:
            if word.startswith(lhs, pos):
                word = word[:pos] + rhs + word[pos + len(lhs):]
                pos = max(0, pos - 3)
                break
        else:
            pos += 1
    return word


def _search(radius: int) -> int:
    start = (0, 1, 2, 1, 0)
    seen = {start}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for state in frontier:
            for i in range(len(state)):
                for letter in range(3):
                    child = state[:i] + (letter,) + state[i + 1:]
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return len(seen)


def reference_unit() -> float:
    """Run the fixed reference work once; return its wall-clock seconds."""
    start = perf_counter()
    for _ in range(3):
        _normalize(_WORD)
        _search(3)
        table = {}
        for i in range(400):
            table[(i % 37, i % 11)] = [i, str(i)]
    return perf_counter() - start
