"""Exact rank decisions over the rationals (fraction-free, deterministic).

A rank is decided in two steps.  First the caller's Gram matrix G of the
rows' short side (A^T A if A is tall, A A^T if wide; over Q,
rank(G) = rank(A)), a float64 matrix of integers, gets one certificate of
nonsingularity (``certified_nonsingular``), which proves that A has full
rank.  Failing that, one Bareiss fraction-free elimination of the rows
decides (``bareiss_rank``): integer rows never leave integer arithmetic, and
pivots are the first nonzero entry in column order, so the computation is
deterministic for a given row order.  ``polytope.tightness`` is the one
caller: its rows are +-1 vertices, so G's entries and partial sums are
integers no larger than the row count.

One exactness rule covers every product the certificate forms: it is one
float64 matmul whose entries and partial sums are integers below 2^53,
which float64 holds exactly.  If G is strictly diagonally dominant
(2|g_ii| > sum_j |g_ij| on every row), it is nonsingular (Levy-Desplanques).
Otherwise the float inverse of G proposes an integer witness X, and one
exact product G X proves G nonsingular.  Where a product would break the
rule or neither certificate holds, the certificate declines.
"""

from __future__ import annotations

import numpy as np

_FLOAT_EXACT = 2**53  # float64 holds every integer up to this exactly


def bareiss_rank(rows: np.ndarray) -> int:
    """Exact rank over Q of a 2-D integer array, by Bareiss forward elimination."""
    m = rows.tolist()
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


def certified_nonsingular(g: np.ndarray) -> bool:
    """Whether an exact certificate proves the float64 Gram matrix ``g`` nonsingular.

    ``g`` holds integers.  First strict diagonal dominance, which makes G
    nonsingular.  Failing that, the float inverse of G proposes
    X = rint(2^k G^-1), and R = 2^k I - G X is one float64 product, exact
    under the module's rule or declined.  With max_i sum_j |R_ij| < 2^k,
    G X = 2^k (I - R / 2^k) is nonsingular, so G is.  False means "not
    certified" only.
    """
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
