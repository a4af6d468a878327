"""Integer Smith normal form and quotient invariants."""

from __future__ import annotations

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from polygraph.homology import quotient_invariants, smith_normal_form


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

            # Independent reference: sympy's Smith normal form over ZZ.
            if m and n:
                ref = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
                ref_diag = [
                    abs(ref[i, i]) for i in range(min(m, n)) if ref[i, i] != 0
                ]
            else:
                ref_diag = []
            assert diagonal == ref_diag
            trials += 1
        assert trials == 200
