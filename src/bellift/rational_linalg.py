"""Exact linear algebra over the rationals (fraction-free, deterministic).

One Bareiss fraction-free elimination serves both the rank and the unit
solves, so vertex matrices (entries +-1) never leave integer arithmetic until
the final back-substitution in ``Fraction``.  Pivots are chosen as the first
nonzero entry in column order, which makes the computation deterministic for
a given row order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _eliminate(m: list[list[int]], ncols: int) -> int:
    """Bareiss forward elimination of ``m`` in place; return the rank.

    Pivots are taken from the first ``ncols`` columns only; columns past them
    (an augmented right-hand side) are carried along.  Afterwards row i < rank
    holds the integer triangle: its pivot is the first nonzero entry.
    """
    nrows = len(m)
    width = len(m[0]) if m else 0
    rank = 0
    prev_pivot = 1
    for col in range(ncols):
        if rank >= nrows:
            break
        pivot_row = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        # Bareiss update: exact integer division keeps entries minor-sized.
        for i in range(rank + 1, nrows):
            f = m[i][col]
            row_i, row_r = m[i], m[rank]
            for k in range(col + 1, width):
                row_i[k] = (pivot * row_i[k] - f * row_r[k]) // prev_pivot
            row_i[col] = 0
        prev_pivot = pivot
        rank += 1
    return rank


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over Q of a matrix with integer entries."""
    m = [[int(x) for x in row] for row in rows]
    return _eliminate(m, len(m[0]) if m else 0)


def solve_unit_rhs(matrix: Sequence[Sequence[int]]) -> list[Fraction] | None:
    """Solve ``M x = (1, ..., 1)`` exactly, or return None if M is singular.

    M must be square with integer entries.  The augmented rows ``[M | 1]``
    are eliminated in integers; only the back-substitution uses Fractions.
    """
    n = len(matrix)
    aug = [[int(x) for x in row] + [1] for row in matrix]
    if any(len(row) != n + 1 for row in aug):
        raise ValueError("matrix must be square")
    if _eliminate(aug, n) < n:
        return None
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = Fraction(row[n])
        for k in range(i + 1, n):
            acc -= row[k] * x[k]
        x[i] = acc / row[i]
    return x
