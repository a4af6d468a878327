"""Exact integer linear algebra for cellular homology.

Invariant factors by Smith normal form over the integers, and the
invariants of finitely presented abelian groups built on them.  No kernel
computation lives here: ``cayley.homology`` reads cycle coordinates off a
spanning forest of the Cayley graph and hands this module only the relation
matrix of H1.  All arithmetic uses Python's arbitrary-precision integers;
matrices come in as dense lists of row lists.  Boundary matrices are sparse
and nearly all their pivots are units, so those are eliminated sparsely in
Markowitz order first (Dumas, Saunders and Villard, "On efficient sparse
integer matrix Smith normal form computations", JSC 2001); a dense
elimination finishes whatever is left.
"""

from __future__ import annotations

from .errors import InternalError

__all__ = [
    "Matrix",
    "smith_normal_form",
    "quotient_invariants",
]

Matrix = list[list[int]]


def smith_normal_form(a: Matrix) -> list[int]:
    """Invariant factors of an integer matrix: the positive nonzero diagonal
    d_1 | d_2 | ... of its Smith normal form, whose length is the rank.

    Unit pivots go first and sparsely (``_eliminate_unit_pivots``); only the
    residue without a ±1 entry reaches the dense elimination.  No transform
    is tracked; nothing downstream needs one.
    """
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    units, residue = _eliminate_unit_pivots(a)
    diagonal = [1] * units + _dense_smith(residue)
    # The elimination keeps each pivot dividing the trailing submatrix, so
    # the chain property holds by construction; re-check to be safe.
    for x, y in zip(diagonal, diagonal[1:]):
        if y % x != 0:
            raise InternalError(f"invariant factors out of order: {diagonal}")
    return diagonal


def _eliminate_unit_pivots(a: Matrix) -> tuple[int, Matrix]:
    """Pivot on ±1 entries while any is left, least fill-in first.

    A pivot u = ±1 at (r, c) clears its row by the column operations
    col_j -= a[r][j]·u·col_c.  Row r is then u·e_c, so row operations would
    clear column c without touching any other entry: row r and column c drop
    out and leave one invariant factor 1.  The step writes at most
    (|column c| - 1)·(|row r| - 1) entries (the Markowitz count), and the
    cheapest unit goes first.  Returns the number of pivots and the residue,
    the rows and columns left with entries, as a dense matrix.
    """
    n = len(a[0]) if a else 0
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
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
    for j, col in enumerate(cols):
        recount(cols_by_count, j, 0, len(col))

    def cheapest() -> tuple[int, int, int] | None:
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
        return best

    pivots = 0
    while (best := cheapest()) is not None:
        _, r, c = best
        pivot_row = rows[r]
        u = pivot_row[c]
        pivot_col = {i: rows[i][c] for i in cols[c] if i != r}
        row_counts = {i: len(rows[i]) for i in pivot_col}
        col_counts = {j: len(cols[j]) for j in pivot_row}
        for j, x in pivot_row.items():
            if j == c:
                continue
            q = x * u
            col = cols[j]
            col.discard(r)
            for i, y in pivot_col.items():
                row = rows[i]
                z = row.get(j, 0) - q * y
                if z:
                    row[j] = z
                    col.add(i)
                else:
                    del row[j]
                    col.discard(i)
        for i in pivot_col:
            del rows[i][c]
        rows[r] = {}
        cols[c] = set()
        recount(rows_by_count, r, len(pivot_row), 0)
        for i, old in row_counts.items():
            recount(rows_by_count, i, old, len(rows[i]))
        for j, old in col_counts.items():
            recount(cols_by_count, j, old, len(cols[j]))
        pivots += 1
    live_rows = [row for row in rows if row]
    live_cols = sorted({j for row in live_rows for j in row})
    return pivots, [[row.get(j, 0) for j in live_cols] for row in live_rows]


def _dense_smith(a: Matrix) -> list[int]:
    """Invariant factors of a dense matrix, which is reduced in place.

    Standard pivot-and-reduce elimination: the pivot shrinks strictly through
    remainders, so the inner loops terminate; after a block is cleared, any
    submatrix entry not divisible by the pivot is folded in and the block is
    redone.
    """
    m = len(a)
    n = len(a[0]) if a else 0

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_col(dst: int, src: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]

    def add_row(dst: int, src: int, q: int) -> None:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Smallest-magnitude nonzero entry of the trailing submatrix.
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # Clear column t below the pivot.
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(t, i)
                    dirty = True
            if dirty:
                continue
            # Clear row t to the right of the pivot.
            for j in range(t + 1, n):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # Fold in a submatrix entry the pivot does not divide yet.
            d = a[t][t]
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
        t += 1

    return [abs(a[i][i]) for i in range(t)]


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
