"""Exact solver for square integer linear systems.

A system A x = b comes in as augmented integer rows [A | b] and is
eliminated with fraction-free (Bareiss) updates, so every intermediate entry
is an integer and the single division per update is exact.  The pivot in
each column is the nonzero candidate with the smallest bit size, which keeps
intermediate growth down on the binomial systems this package produces.
With d the last pivot, back-substitution computes y = d x in integers and
checks sum a y = d b on the input rows; the solution is returned as d and y,
never as Fractions.  Q's linear system and field inversion share it.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """Square system had no unique solution; carries the rank that was found."""

    def __init__(self, rank: int, size: int):
        super().__init__(f"singular system: rank {rank} < size {size}")
        self.rank = rank
        self.size = size


def _eliminate(rows: list[list[int]], ncols: int) -> int:
    """Fraction-free elimination of the first ncols columns in place; returns the rank.

    A column with no nonzero candidate is skipped, so on a full-rank square
    system the pivots sit on the diagonal and the rows are upper triangular.
    """
    rank = 0
    prev = 1
    col = 0
    n = len(rows)
    while rank < n and col < ncols:
        pivot = None
        for r in range(rank, n):
            if rows[r][col]:
                if pivot is None or abs(rows[r][col]).bit_length() < abs(
                    rows[pivot][col]
                ).bit_length():
                    pivot = r
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n):
            for c in range(col + 1, len(rows[r])):
                rows[r][c] = (rows[r][c] * rows[rank][col] - rows[r][col] * rows[rank][c]) // prev
            rows[r][col] = 0
        prev = rows[rank][col]
        rank += 1
        col += 1
    return rank


def solve_linear_system(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Solve the n x (n+1) augmented integer rows [A | b]; returns d and y = d x.

    d is the last pivot, y is an integer vector (Cramer's rule), so each
    division of the back-substitution is exact.  Raises SingularMatrixError
    when A is singular.
    """
    n = len(rows)
    upper = [row[:] for row in rows]
    rank = _eliminate(upper, n)
    if rank < n:
        raise SingularMatrixError(rank, n)

    d = upper[-1][n - 1]
    y = [0] * n
    for r in range(n - 1, -1, -1):
        acc = d * upper[r][n]
        for c in range(r + 1, n):
            acc -= upper[r][c] * y[c]
        y[r] = acc // upper[r][r]

    for row in rows:
        if sum(a * v for a, v in zip(row, y)) != d * row[n]:
            raise AssertionError("back-substitution check failed")
    return d, y
