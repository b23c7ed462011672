"""Exact linear algebra over the rationals (fraction-free, deterministic).

This module decides ranks, and nothing else.  One Bareiss fraction-free
elimination is the only exact path: it decides every rank that is not
certified more cheaply, and integer matrices never leave integer arithmetic.
Pivots are the first nonzero entry in column order, so the computation is
deterministic for a given row order.

Every matrix A is first tried for full rank on the Gram matrix G of its
short side (A^T A if A is tall, A A^T if wide): over Q, rank(G) = rank(A).
G is one float64 matmul while (long side) * max|a|^2 < 2^53, where every
partial sum is an integer that float64 holds exactly.  If G is strictly
diagonally dominant (2|g_ii| > sum_j |g_ij| on every row, exact integers),
it is nonsingular (Levy-Desplanques), so A has full rank.  Otherwise, and
only for A wider than 16 columns, the float inverse of G proposes a witness
X; int64 arithmetic alone proves G X, hence G, nonsingular
(``_full_rank_witness``).  Where G is past float64 or neither certificate
holds, Bareiss on A decides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# up to this width Bareiss beats the inverse witness; dominance is tried at every width
_BAREISS_MAX_COLS = 16
_FLOAT_EXACT = 2**53  # float64 holds every integer up to this exactly
_INT64_ROOM = 2**62  # int64 bound on the witness's entries: half its range


def _eliminate(m: list[list[int]]) -> int:
    """Bareiss forward elimination of ``m`` in place; return the rank."""
    nrows = len(m)
    width = len(m[0]) if m else 0
    rank = 0
    prev_pivot = 1
    for col in range(width):
        if rank >= nrows:
            break
        pivot_row = next((i for i in range(rank, nrows) if m[i][col]), None)
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


def _gram(a: np.ndarray) -> np.ndarray | None:
    """The short side's Gram matrix (a^T a if tall, a a^T if wide) in float64,
    or None where float64 might not hold every partial sum exactly."""
    if a.shape[0] < a.shape[1]:
        a = a.T
    peak = max(int(a.max(initial=0)), -int(a.min(initial=0)))  # np.abs(-2^63) < 0
    if a.dtype != np.int64 or a.shape[0] * peak**2 >= _FLOAT_EXACT:
        return None
    f = a.astype(np.float64)
    return f.T @ f


def _full_rank_witness(a: np.ndarray) -> bool:
    """Whether an exact certificate proves that ``a`` has full rank min(rows, cols).

    First strict diagonal dominance of the Gram matrix G, which makes G
    nonsingular.  Failing that, for ``a`` wider than ``_BAREISS_MAX_COLS``,
    the float inverse of G proposes X = round(2^k G^-1); the proof is integer
    arithmetic alone.  With R = 2^k I - G X computed exactly and
    max_i sum_j |R_ij| < 2^k, G X = 2^k (I - R / 2^k) is nonsingular, so G
    is, and rank(a) = rank(G) is full.  False means "not certified" only.
    """
    g = _gram(a)
    if g is None:
        return False
    mag = np.abs(g)
    # row sums of |G| stay exact, and each limb of X below gets 10 bits or more
    if len(g) * mag.max(initial=0) > _FLOAT_EXACT >> 10:
        return False
    sums = mag.sum(axis=1)
    if (2 * mag.diagonal() > sums).all():  # strictly dominant: nonsingular
        return True
    if a.shape[1] <= _BAREISS_MAX_COLS:
        return False
    n, norm = len(g), max(int(sums.max(initial=0)), 1)  # ||G||_inf
    scale = 1 << (norm << 10).bit_length()  # 2^k: rounding X moves G X by < 2^-11 of it
    try:
        x = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        return False
    # |(G X)_ij|, |R_ij| and a row sum of entries below 2^k stay below 2^62;
    # the roundoff of this float bound is far inside int64's other factor 2
    bound = norm * (float(np.abs(x).max(initial=0)) * scale + 1) + scale
    if n * scale > _INT64_ROOM or not bound < _INT64_ROOM:  # NaN fails too
        return False
    x = np.rint(x * scale).astype(np.int64)
    # G X over two limbs of X, at most 2^(bits-1) and 2^10: float64 partial sums stay exact
    bits = (_FLOAT_EXACT // norm).bit_length() - 1
    hi = (x + (1 << bits - 1)) >> bits
    gx = (g @ (x - (hi << bits)).astype(np.float64)).astype(np.int64)
    if hi.any():
        gx += (g @ hi.astype(np.float64)).astype(np.int64) << bits
    r = np.abs(scale * np.eye(n, dtype=np.int64) - gx)
    return bool(r.max(initial=0) < scale and r.sum(axis=1).max(initial=0) < scale)


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
    if _full_rank_witness(a):
        return min(a.shape)
    return _eliminate(a.tolist())
