"""Exact integer linear algebra for cellular homology.

Invariant factors by Smith normal form over the integers, and the
invariants of finitely presented abelian groups built on them.  No kernel
computation lives here: ``cayley.homology`` reads cycle coordinates off a
spanning forest of the Cayley graph and hands this module only the relation
matrix of H1, as sparse rows: one {column: nonzero entry} dict per row.
All arithmetic uses Python's arbitrary-precision integers.  The public
functions take dense lists of row lists and hand them on as sparse rows.
Boundary matrices are sparse and nearly all their pivots are units, so
units go first, in Markowitz order (Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations", JSC 2001);
the same elimination takes a smallest entry as its pivot when no unit is
left.
"""

from __future__ import annotations

from math import gcd

from .errors import InternalError

__all__ = [
    "Matrix",
    "smith_normal_form",
    "quotient_invariants",
]

Matrix = list[list[int]]


def smith_normal_form(a: Matrix) -> list[int]:
    """Invariant factors of an integer matrix: the positive nonzero diagonal
    d_1 | d_2 | ... of its Smith normal form, whose length is the rank."""
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    return _invariant_factors([{j: x for j, x in enumerate(row) if x} for row in a])


def _invariant_factors(rows: list[dict[int, int]]) -> list[int]:
    """smith_normal_form of sparse rows, which the elimination consumes.
    ``_pivots`` diagonalizes the matrix; diag(x, y) ~ diag(gcd, lcm) turns
    the pivots above 1 into a divisibility chain.  No transform is tracked;
    nothing downstream needs one."""
    pivots = _pivots(rows)
    chain = [d for d in pivots if d != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    diagonal = [1] * (len(pivots) - len(chain)) + chain
    # The gcd/lcm sweep leaves each factor dividing the ones after it, so the
    # chain property holds by construction; re-check to be safe.
    for x, y in zip(diagonal, diagonal[1:]):
        if y % x != 0:
            raise InternalError(f"invariant factors out of order: {diagonal}")
    return diagonal


def _pivots(rows: list[dict[int, int]]) -> list[int]:
    """Magnitudes of the pivots of a sparse diagonalization of ``rows``,
    which it works on in place.

    The pivot is a ±1 entry while any is left, least fill-in first: a step
    writes at most (|column c| - 1)·(|row r| - 1) entries (the Markowitz
    count), and the cheapest unit goes first.  With no unit left it is a
    smallest-magnitude entry (``_smallest_entry``).  A pivot u at (r, c)
    clears its row by the column operations col_j -= (a[r][j] // u)·col_c,
    then its column by the row operations row_i -= (a[i][c] // u)·row_r.
    If u divides them all, as a unit always does, row r and column c drop
    out and leave the pivot |u|; otherwise a remainder smaller than |u|
    is left, and the next pivot is smaller than |u|.
    """
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    # Rows and columns bucketed by their entry count, for the search.
    rows_by_count: dict[int, set[int]] = {}
    cols_by_count: dict[int, set[int]] = {}

    def recount(buckets: dict[int, set[int]], key: int, old: int, new: int) -> None:
        if old:
            bucket = buckets[old]
            bucket.discard(key)
            if not bucket:
                del buckets[old]
        if new:
            buckets.setdefault(new, set()).add(key)

    for i, row in enumerate(rows):
        recount(rows_by_count, i, 0, len(row))
    for j, col in cols.items():
        recount(cols_by_count, j, 0, len(col))

    def cheapest() -> tuple[int, int] | None:
        # Markowitz search: scan the rows and the columns with k entries for
        # increasing k.  Every entry not scanned by the end of round k sits in
        # a row and a column with more than k entries and so costs at least
        # k², which a unit found by then cannot be beaten by.
        best = None
        for k in sorted(rows_by_count.keys() | cols_by_count.keys()):
            for i in rows_by_count.get(k, ()):
                for j, x in rows[i].items():
                    if x in (1, -1):
                        cost = (k - 1) * (len(cols[j]) - 1)
                        if best is None or cost < best[0]:
                            best = (cost, i, j)
            for j in cols_by_count.get(k, ()):
                for i in cols[j]:
                    if rows[i][j] in (1, -1):
                        cost = (k - 1) * (len(rows[i]) - 1)
                        if best is None or cost < best[0]:
                            best = (cost, i, j)
            if best is not None and best[0] <= k * k:
                break
        return best and best[1:]

    pivots = []
    while (best := cheapest() or _smallest_entry(rows)) is not None:
        r, c = best
        pivot_row = rows[r]
        u = pivot_row[c]
        pivot_col = {i: rows[i][c] for i in cols[c] if i != r}
        row_counts = {i: len(rows[i]) for i in cols[c]}
        col_counts = {j: len(cols[j]) for j in pivot_row}
        left = {c: u}  # row r after its column operations
        for j, x in pivot_row.items():
            if j == c:
                continue
            q = x // u
            col = cols[j]
            for i, y in pivot_col.items():
                row = rows[i]
                z = row.get(j, 0) - q * y
                if z:
                    row[j] = z
                    col.add(i)
                else:
                    del row[j]
                    col.discard(i)
            if x % u:
                left[j] = x % u
            else:
                col.discard(r)
        rows[r] = left
        for i, y in pivot_col.items():
            q = y // u
            row = rows[i]
            for j, x in left.items():
                z = row.get(j, 0) - q * x
                if z:
                    row[j] = z
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
        if len(left) == 1 and len(cols[c]) == 1:
            rows[r] = {}
            cols[c] = set()
            pivots.append(abs(u))
        for i, old in row_counts.items():
            recount(rows_by_count, i, old, len(rows[i]))
        for j, old in col_counts.items():
            recount(cols_by_count, j, old, len(cols[j]))
    return pivots


def _smallest_entry(rows: list[dict[int, int]]) -> tuple[int, int] | None:
    """The position of a smallest-magnitude entry, None with no entry left."""
    entries = ((abs(x), i, j) for i, row in enumerate(rows) for j, x in row.items())
    best = min(entries, default=None)
    return best and best[1:]


def quotient_invariants(free_rank: int, relations: Matrix) -> tuple[int, list[int]]:
    """Invariants of Z^free_rank modulo the columns of ``relations``.

    Returns (rank of the free part, nontrivial torsion divisors in a
    divisibility chain).
    """
    if relations and len(relations) != free_rank:
        raise ValueError("relation columns must live in Z^free_rank")
    if free_rank == 0 or not relations or not relations[0]:
        return (free_rank, [])
    diagonal = smith_normal_form(relations)
    return (free_rank - len(diagonal), [d for d in diagonal if d > 1])
