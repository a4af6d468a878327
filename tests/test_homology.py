"""Integer Smith normal form and quotient invariants."""

from __future__ import annotations

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from polygraph import homology
from polygraph.homology import quotient_invariants, smith_normal_form


def sympy_factors(a) -> list[int]:
    """Independent reference: sympy's Smith normal form over ZZ."""
    if not a or not a[0]:
        return []
    ref = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
    return [abs(ref[i, i]) for i in range(min(ref.shape)) if ref[i, i] != 0]


class TestSmithNormalForm:
    def test_two_by_two_invariant_factors(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]

    def test_diagonal_entries_form_divisibility_chain(self):
        diagonal = smith_normal_form([[6, 10], [15, 0], [0, 21]])
        assert all(d > 0 for d in diagonal)
        for prev, nxt in zip(diagonal, diagonal[1:]):
            assert nxt % prev == 0

    def test_zero_matrix_has_rank_zero(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == []

    def test_empty_and_column_free_matrices(self):
        assert smith_normal_form([]) == []
        assert smith_normal_form([[], []]) == []

    def test_ragged_input_is_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            smith_normal_form([[1, 2], [3]])

    def test_negative_entries_yield_positive_factors(self):
        assert smith_normal_form([[-3, 0], [0, -5]]) == [1, 15]


class TestQuotientInvariants:
    def test_cyclic_quotient(self):
        assert quotient_invariants(1, [[5]]) == (0, [5])

    def test_free_part_survives(self):
        # Z^2 modulo the single column (2, 0): one free rank, one Z/2.
        assert quotient_invariants(2, [[2], [0]]) == (1, [2])

    def test_torsion_chain(self):
        relations = [[2, 0], [0, 4]]
        assert quotient_invariants(2, relations) == (0, [2, 4])

    def test_unit_factors_are_dropped(self):
        assert quotient_invariants(2, [[1], [0]]) == (1, [])

    def test_no_relations_leaves_the_free_group(self):
        assert quotient_invariants(3, []) == (3, [])
        assert quotient_invariants(3, [[], [], []]) == (3, [])

    def test_rank_zero_group_is_trivial(self):
        assert quotient_invariants(0, []) == (0, [])

    def test_row_count_must_match_free_rank(self):
        with pytest.raises(ValueError, match="free_rank"):
            quotient_invariants(2, [[1], [0], [0]])


class TestAgainstSympy:
    def test_random_matrices_agree_with_sympy(self):
        rng = random.Random(71)
        trials = 0
        for _ in range(200):
            m = rng.randrange(0, 5)
            n = rng.randrange(0, 5)
            a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
            diagonal = smith_normal_form(a)
            assert diagonal == sympy_factors(a)
            trials += 1
        assert trials == 200


def planted(rng: random.Random) -> list[list[int]]:
    """Unit pivots and torsion on a diagonal, hidden by a few unimodular row
    and column operations and a shuffle, so the matrix stays sparse."""
    diagonal = [rng.choice((1, -1)) for _ in range(rng.randrange(0, 7))]
    diagonal += [rng.choice((0, 2, 3, 4, 6, 9)) for _ in range(rng.randrange(0, 4))]
    m = len(diagonal) + rng.randrange(0, 3)
    n = len(diagonal) + rng.randrange(0, 3)
    a = [[0] * n for _ in range(m)]
    for k, d in enumerate(diagonal):
        a[k][k] = d
    for _ in range(rng.randrange(0, 10)):
        q = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5 and m > 1:
            i, j = rng.sample(range(m), 2)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        elif n > 1:
            i, j = rng.sample(range(n), 2)
            for row in a:
                row[i] += q * row[j]
    rng.shuffle(a)
    order = list(range(n))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in a]


class TestSparseUnitElimination:
    def test_planted_units_and_torsion_agree_with_sympy(self):
        rng = random.Random(97)
        eliminated = 0
        for _ in range(150):
            a = planted(rng)
            before = [row[:] for row in a]
            expected = sympy_factors(a)
            assert smith_normal_form(a) == expected, a
            # The sparse pass leaves the input alone, takes out only factors
            # 1, and hands on a residue without a unit entry.
            pivots, residue = homology._eliminate_unit_pivots(a)
            assert a == before
            assert all(abs(x) != 1 for row in residue for x in row)
            assert [1] * pivots + sympy_factors(residue) == expected
            eliminated += pivots
        assert eliminated > 150

    def test_dense_units_with_fill_in_agree_with_sympy(self):
        # Dense enough that most pivots write fill-in entries.
        rng = random.Random(99)
        for _ in range(120):
            m, n = rng.randrange(2, 7), rng.randrange(2, 8)
            a = [[rng.choice((0, 1, -1, 1, -1, 2, 3)) for _ in range(n)] for _ in range(m)]
            assert smith_normal_form(a) == sympy_factors(a), a

    def test_the_cheapest_unit_goes_first(self):
        # The unit at (0, 1) is alone in its column and costs no fill-in; the
        # row-major first unit at (0, 0) costs two and would leave the unit-free
        # residue [[-2, -3]] behind for the dense pass.
        a = [[1, 1, 2], [2, 0, 1]]
        assert homology._eliminate_unit_pivots(a) == (2, [])
        assert smith_normal_form(a) == [1, 1]
        # A unit in a short row can still lose to one in a longer row with a
        # shorter column; stopping the search at the first entry count that
        # holds a unit would leave [[2, 5, 2, 3, -2]] here.
        a = [[0, 0, 0, 3, 3, 0, -1], [0, 1, -1, 2, 2, 1, -1], [2, 3, 2, 2, 3, 1, -1]]
        assert homology._eliminate_unit_pivots(a) == (3, [])
