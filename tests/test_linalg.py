"""Fraction-free solver: exact solutions or a rank-carrying failure."""

import random
from fractions import Fraction

import pytest

from qchain.linalg import SingularMatrixError, solve_linear_system


def test_identity_system():
    A = [[1, 0], [0, 1]]
    assert solve_linear_system(A, [Fraction(2), Fraction(-5, 3)]) == [
        Fraction(2),
        Fraction(-5, 3),
    ]


def test_one_by_one():
    assert solve_linear_system([[3]], [-3]) == [Fraction(-1)]


def test_rational_entries():
    systems = [
        (
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]],
            [Fraction(1), Fraction(2)],
        ),
        # rows swap for the pivot, and the last pivot (d in y = d x) is -1
        ([[0, 1], [-1, 0]], [Fraction(3, 4), Fraction(-2, 5)]),
    ]
    for A, b in systems:
        x = solve_linear_system(A, b)
        for row, rhs in zip(A, b):
            assert sum(a * v for a, v in zip(row, x)) == rhs


def test_random_systems_are_solved_exactly():
    rng = random.Random(20240815)
    for _ in range(10):
        n = rng.randint(2, 6)
        A = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        try:
            x = solve_linear_system(A, b)
        except SingularMatrixError:
            continue
        # residual must be exactly zero, not merely small
        for row, rhs in zip(A, b):
            assert sum(a * v for a, v in zip(row, x)) - rhs == 0


def test_singular_reports_rank():
    with pytest.raises(SingularMatrixError) as err:
        solve_linear_system([[1, 2], [2, 4]], [1, 2])
    assert err.value.rank == 1
    assert err.value.size == 2


def test_zero_matrix_rank_zero():
    with pytest.raises(SingularMatrixError) as err:
        solve_linear_system([[0, 0], [0, 0]], [0, 0])
    assert err.value.rank == 0


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_linear_system([[1, 2]], [1])
    with pytest.raises(ValueError):
        solve_linear_system([[1]], [1, 2])


def test_empty_system():
    assert solve_linear_system([], []) == []
