"""Exact linear algebra over the rationals (fraction-free, deterministic).

One Bareiss fraction-free elimination is the only exact path: it serves the
kernel vectors and every rank that is not certified more cheaply.  Integer
matrices (vertex rows of entries +-1) never leave integer arithmetic: the
kernel back-substitution scales instead of dividing.  Pivots are chosen as
the first nonzero entry in column order, which makes the computation
deterministic for a given row order.

The rank of a matrix A of more than 16 columns is first certified on the
Gram matrix G of its short side (A^T A when A has more rows than columns,
A A^T otherwise), eliminated modulo the prime p = 2^31 - 1 in int64.  Over
Q, rank(G) = rank(A), and rank(G mod p) <= rank(G), so when G mod p reaches
full rank min(rows, columns) that is the exact rank of A; otherwise Bareiss
on A decides.  G is one float64 matmul while (long side) * max|a|^2 < 2^53:
every partial sum is then an integer below 2^53, so the product is exact in
any summation order.  Beyond that bound G is formed from Python ints.
Either way the rank returned is exact.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_P = 2**31 - 1  # prime; a product of two residues stays below 2^62
_BAREISS_MAX_COLS = 16  # up to this width Bareiss beats the numpy elimination
_FLOAT_EXACT = 2**53  # float64 holds every integer below this exactly


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


def _rank_mod_p(a: np.ndarray) -> int:
    """Rank over GF(p) of an int64 array of residues in [0, p), eliminated in place."""
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        pivot_row = rank + nonzero[0]
        a[[rank, pivot_row]] = a[[pivot_row, rank]]
        # a unit pivot keeps every update product of two residues (< 2^62)
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), -1, _P) % _P
        below = a[rank + 1 :, col:]
        below -= np.outer(below[:, 0], a[rank, col:])
        below %= _P
        rank += 1
    return rank


def _gram_mod_p(a: np.ndarray) -> np.ndarray:
    """Residues mod p of the short side's Gram matrix: a^T a if tall, a a^T if wide."""
    if a.shape[0] < a.shape[1]:
        a = a.T
    peak = int(np.abs(a).max(initial=0))
    if a.dtype == np.int64 and a.shape[0] * peak**2 < _FLOAT_EXACT:
        f = a.astype(np.float64)
        return (f.T @ f).astype(np.int64) % _P
    g = a.astype(object)
    return (g.T @ g % _P).astype(np.int64)


def _matrix(rows: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """The rows as a 2-D array of exact integers: int64 where every entry
    fits, Python ints otherwise.  Ragged rows are refused."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "i":
        return rows.astype(np.int64, copy=False)
    m = [[int(x) for x in row] for row in rows]
    lengths = sorted({len(row) for row in m})
    if len(lengths) > 1:
        raise ValueError(f"ragged matrix: row lengths {lengths}")
    shape = (len(m), lengths[0] if m else 0)
    try:
        return np.array(m, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(m, dtype=object).reshape(shape)


def integer_rank(rows: Sequence[Sequence[int]] | np.ndarray) -> int:
    """Exact rank over Q of a matrix with integer entries."""
    a = _matrix(rows)
    full = min(a.shape)
    if a.shape[1] > _BAREISS_MAX_COLS and _rank_mod_p(_gram_mod_p(a)) == full:
        return full
    return _eliminate(a.tolist(), a.shape[1])


def integer_kernel_vector(rows: Sequence[Sequence[int]] | np.ndarray) -> list[int]:
    """The primitive integer vector spanning the kernel of a corank-1 matrix.

    The matrix has integer entries and rank one less than its column count,
    so its kernel over Q is a line; the generator returned has coprime
    entries (its sign is left to the caller).  The back-substitution stays in
    integers by scaling the partial solution whenever a pivot does not
    divide.
    """
    a = _matrix(rows)
    m, ncols = a.tolist(), a.shape[1]
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
