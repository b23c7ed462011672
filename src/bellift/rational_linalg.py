"""Exact linear algebra over the rationals (fraction-free, deterministic).

This module decides ranks, and nothing else.  One Bareiss fraction-free
elimination is the only exact path: it decides every rank that is not
certified more cheaply, and integer matrices never leave integer arithmetic.
Pivots are the first nonzero entry in column order, so the computation is
deterministic for a given row order.

A matrix A comes as one 2-D array of integers that fit int64, and its rank
is decided in two steps.  First the Gram matrix G of its short side is formed
(A^T A if A is tall, A A^T if wide): over Q, rank(G) = rank(A).  Then G is
certified nonsingular, so that A has full rank (``_nonsingular``), or Bareiss
on A decides.  A caller that can form G without A's rows certifies its own
G: ``polytope.tightness`` contracts its saturating vertices party by party
and builds their +-1 rows only when Bareiss needs them.

One exactness rule covers every product on G's side: it is one float64
matmul whose entries and partial sums are integers below 2^53, which
float64 holds exactly.  G qualifies while (long side) * max|a|^2 < 2^53.
The certificates come in one order at every width.  If G is strictly
diagonally dominant (2|g_ii| > sum_j |g_ij| on every row), it is
nonsingular (Levy-Desplanques), so A has full rank.  Otherwise the float
inverse of G proposes an integer witness X, and one exact product G X
proves G nonsingular.  Where a product would break the rule or neither
certificate holds, Bareiss on A decides.
"""

from __future__ import annotations

import numpy as np

_FLOAT_EXACT = 2**53  # float64 holds every integer up to this exactly


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
    if a.shape[0] * peak**2 >= _FLOAT_EXACT:
        return None
    f = a.astype(np.float64)
    return f.T @ f


def _nonsingular(g: np.ndarray | None) -> bool:
    """Whether an exact certificate proves the float64 Gram matrix ``g`` nonsingular.

    ``g`` holds integers (None, from ``_gram``, is never certified).  First
    strict diagonal dominance, which makes G nonsingular.  Failing that, the
    float inverse of G proposes X = rint(2^k G^-1), and R = 2^k I - G X is one
    float64 product, exact under the module's rule or declined.  With
    max_i sum_j |R_ij| < 2^k, G X = 2^k (I - R / 2^k) is nonsingular, so G
    is.  False means "not certified" only.
    """
    if g is None:
        return False
    mag = np.abs(g)
    if len(g) * mag.max(initial=0) >= _FLOAT_EXACT:  # row sums of |G| stay exact
        return False
    sums = mag.sum(axis=1)
    if (2 * mag.diagonal() > sums).all():  # strictly dominant: nonsingular
        return True
    n, norm = len(g), max(int(sums.max(initial=0)), 1)  # ||G||_inf
    scale = 1 << (norm << 10).bit_length()  # 2^k: rounding X moves G X by < 2^-11 of it
    try:
        x = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        return False
    peak = float(np.abs(x).max(initial=0)) * scale  # 2^k max|G^-1|, exact; NaN fails too
    # ||G||_inf max|X| + 2^k bounds G X's partial sums and R's entries, n 2^k R's row sums
    if not peak < _FLOAT_EXACT or max(norm * (int(peak) + 1) + scale, n * scale) >= _FLOAT_EXACT:
        return False
    r = np.abs(scale * np.eye(n) - g @ np.rint(x * scale))
    return bool(r.sum(axis=1).max(initial=0) < scale)


def integer_rank(a: np.ndarray) -> int:
    """Exact rank over Q of a 2-D array of integers that fit int64."""
    a = a.astype(np.int64, copy=False)
    if _nonsingular(_gram(a)):  # a certificate of full rank min(rows, cols)
        return min(a.shape)
    return _eliminate(a.tolist())
