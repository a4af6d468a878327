"""Exact integer linear algebra for cellular homology.

Invariant factors by Smith normal form over the integers, and the
invariants of finitely presented abelian groups built on them.  No kernel
computation lives here: ``cayley.homology`` reads cycle coordinates off a
spanning forest of the Cayley graph and hands this module only the relation
matrix of H1.  All arithmetic uses Python's arbitrary-precision integers;
matrices are dense lists of row lists.  Sizes in this package are
desk-scale (a few hundred cells), so the implementation favours clarity and
verifiability over asymptotics.
"""

from __future__ import annotations

from .errors import InternalError

__all__ = [
    "Matrix",
    "matmul",
    "smith_normal_form",
    "quotient_invariants",
]

Matrix = list[list[int]]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Plain matrix product (used by tests to check that d1 · d2 = 0)."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]


def smith_normal_form(a: Matrix) -> list[int]:
    """Invariant factors of an integer matrix: the positive nonzero diagonal
    d_1 | d_2 | ... of its Smith normal form, whose length is the rank.

    Standard pivot-and-reduce elimination: the pivot shrinks strictly through
    remainders, so the inner loops terminate; after a block is cleared, any
    submatrix entry not divisible by the pivot is folded in and the block is
    redone.  No transform is tracked; nothing downstream needs one.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    a = [row[:] for row in a]

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

    diagonal = [abs(a[i][i]) for i in range(t)]
    # The elimination keeps each pivot dividing the trailing submatrix, so
    # the chain property holds by construction; re-check to be safe.
    for x, y in zip(diagonal, diagonal[1:]):
        if y % x != 0:
            raise InternalError(f"invariant factors out of order: {diagonal}")
    return diagonal


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
