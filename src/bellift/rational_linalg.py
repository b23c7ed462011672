"""Exact linear algebra over the rationals (fraction-free, deterministic).

One Bareiss fraction-free elimination serves both the rank and the kernel
vectors, so integer matrices (vertex rows of entries +-1) never leave
integer arithmetic: the kernel back-substitution scales instead of dividing.
Pivots are chosen as the first nonzero entry in column order, which makes
the computation deterministic for a given row order.
"""

from __future__ import annotations

import math
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


def integer_kernel_vector(rows: Sequence[Sequence[int]]) -> list[int]:
    """The primitive integer vector spanning the kernel of a corank-1 matrix.

    The matrix has integer entries and rank one less than its column count,
    so its kernel over Q is a line; the generator returned has coprime
    entries (its sign is left to the caller).  The back-substitution stays in
    integers by scaling the partial solution whenever a pivot does not
    divide.
    """
    m = [[int(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    rank = _eliminate(m, ncols)
    if rank != ncols - 1:
        raise ValueError(f"kernel is not a line: rank {rank} with {ncols} columns")
    pivots = [next(k for k, x in enumerate(m[i]) if x) for i in range(rank)]
    free = next(k for k in range(ncols) if k not in pivots)
    x = [0] * ncols
    x[free] = 1
    for i in range(rank - 1, -1, -1):
        col, row = pivots[i], m[i]
        s = sum(row[k] * x[k] for k in range(col + 1, ncols))
        g = math.gcd(s, row[col])
        scale = abs(row[col]) // g
        x = [xk * scale for xk in x]
        x[col] = -(s // g) * (1 if row[col] > 0 else -1)
    g = math.gcd(*x)
    return [xk // g for xk in x]
