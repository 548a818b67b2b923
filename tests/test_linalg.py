"""Fraction-free solver: d and y = d x on augmented integer rows, or a rank-carrying failure."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qchain.linalg import SingularMatrixError, solve_linear_system


def _residual_is_zero(rows, d, y):
    """A y == d b exactly on the augmented rows [A | b]."""
    return all(sum(a * v for a, v in zip(row, y)) == d * row[-1] for row in rows)


def _determinant(matrix):
    """det A by Gaussian elimination over Fractions, independent of the solver."""
    a = [[Fraction(v) for v in row] for row in matrix]
    n, det = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    return det


def test_identity_system():
    assert solve_linear_system([[1, 0, 2], [0, 1, -5]]) == (1, [2, -5])


def test_one_by_one():
    # 3 x = -3: d is the only pivot, y = d x
    assert solve_linear_system([[3, -3]]) == (3, [-3])


def test_row_swap_and_negative_pivot():
    # rows swap for the pivot, and the last pivot (d in y = d x) is -1
    rows = [[0, 4, 3], [-5, 0, 2]]
    d, y = solve_linear_system(rows)
    assert d == -20
    assert [Fraction(v, d) for v in y] == [Fraction(-2, 5), Fraction(3, 4)]
    d, y = solve_linear_system([[0, 1, 3], [-1, 0, 2]])
    assert (d, y) == (-1, [2, -3])


def test_random_systems_are_solved_exactly():
    rng = random.Random(20240815)
    for _ in range(10):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)]
        try:
            d, y = solve_linear_system(rows)
        except SingularMatrixError:
            continue
        # residual must be exactly zero, not merely small
        assert _residual_is_zero(rows, d, y)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1),
            min_size=n,
            max_size=n,
        )
    )
)
def test_nonsingular_systems_give_cramer_form(rows):
    det = _determinant([row[:-1] for row in rows])
    assume(det != 0)
    d, y = solve_linear_system(rows)
    assert _residual_is_zero(rows, d, y)
    assert abs(d) == abs(det)


def test_singular_reports_rank():
    with pytest.raises(SingularMatrixError) as err:
        solve_linear_system([[1, 2, 1], [2, 4, 2]])
    assert err.value.rank == 1
    assert err.value.size == 2


def test_zero_matrix_rank_zero():
    with pytest.raises(SingularMatrixError) as err:
        solve_linear_system([[0, 0, 0], [0, 0, 0]])
    assert err.value.rank == 0
