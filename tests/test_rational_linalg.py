"""Fraction-free rank against a floating oracle, and the certificates of
full rank (Gram diagonal dominance, the integer inverse witness) against
Bareiss."""

import math
import warnings
from unittest import mock

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellift import rational_linalg
from bellift.expressions import Scenario
from bellift.lifting import four_party_19, mabk, wbz333
from bellift.polytope import distinct_vertices, enumerate_facets, tightness
from bellift.rational_linalg import _eliminate, integer_rank


def test_rank_simple_cases():
    assert integer_rank(np.zeros((0, 0), dtype=np.int64)) == 0
    assert integer_rank(np.array([[0, 0], [0, 0]])) == 0
    assert integer_rank(np.array([[1, 2], [2, 4]])) == 1
    assert integer_rank(np.array([[1, 0], [0, 1]])) == 2


def test_rank_matches_float_oracle_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows = rng.integers(1, 9)
        cols = rng.integers(1, 9)
        m = rng.integers(-5, 6, size=(rows, cols))
        if rng.random() < 0.5:  # force some rank deficiency
            m[rng.integers(rows)] = m[rng.integers(rows)] * int(rng.integers(-2, 3))
        assert integer_rank(m) == np.linalg.matrix_rank(m.astype(float))


# ---------------------------------------------------------------------------
# Gram dominance (every width), then the inverse witness (more than 16
# columns), then the Bareiss fallback
# ---------------------------------------------------------------------------


def _bareiss_rank(m) -> int:
    rows = [[int(x) for x in row] for row in m]
    return _eliminate(rows)


def _unreachable(m):
    raise AssertionError("Bareiss fallback taken")


def _no_inverse(g):
    raise AssertionError("float inverse proposed")


def test_full_rank_over_q_but_not_mod_p_falls_back():
    """Full-rank matrices that the witness declines still get their exact rank."""
    unimodular = np.eye(40, dtype=np.int64) + np.triu(np.full((40, 40), -2), 1)
    assert abs(np.linalg.inv(unimodular.astype(float))).max() > 3.0**38  # 2 * 3^38
    m = np.eye(17, dtype=np.int64)
    m[3, 3] = 2**31 - 1  # a p-entry: 17 * p^2 is past float64's exact range
    tall = np.vstack([m, np.zeros((1, 17), dtype=np.int64)])  # Gram entry (3, 3) is p^2
    for a, rank in ((unimodular, 40), (m, 17), (tall, 17)):
        assert not rational_linalg._full_rank_witness(a)
        assert integer_rank(a) == rank


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_rank_agrees_with_bareiss_on_both_sides_of_the_gate(
    nrows, ncols, deficient, seed
):
    rng = np.random.default_rng(seed)
    if deficient:  # a product through a narrower inner dimension
        inner = int(rng.integers(0, min(nrows, ncols)))
        left = rng.integers(-3, 4, size=(nrows, inner))
        m = left @ rng.integers(-3, 4, size=(inner, ncols))
    else:
        m = rng.integers(-5, 6, size=(nrows, ncols))
    rank = integer_rank(m)
    assert rank == _bareiss_rank(m)
    if deficient:
        assert rank < min(nrows, ncols)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(0, 12),
    st.booleans(),
    st.sampled_from(["under", "over"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(17, 0, True, "over", False, 0)  # 17 * peak^2 is odd: float64 would round it
@example(1, 2, False, "over", False, 0)
@example(17, 0, True, "under", True, 0)
def test_gram_route_agrees_with_bareiss(short, extra, tall, size, deficient, seed):
    """Tall and wide matrices wider than 16 columns, with a column of peak
    entries: long side * peak^2 just under 2^53 (float Gram) and just over
    it (Bareiss)."""
    long_side = max(short, 17) + extra + (not tall)  # a square matrix counts as tall
    if tall:
        short = max(short, 17)
    under = math.isqrt((2**53 - 1) // long_side)
    peak = {"under": under, "over": under + 1}[size]
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(long_side, short))
    a[:, 0] = peak * rng.choice([-1, 1], size=long_side)
    if deficient and short > 1:
        a[:, -1] = a[:, 0]
    rows = a if tall else a.T
    expected = _bareiss_rank(rows)
    assert integer_rank(rows) == expected
    if deficient and short > 1:
        assert expected < short
    gram = rational_linalg._gram(rows)
    assert (gram is not None) == (size == "under")  # formed only below 2^53
    if gram is not None:
        assert gram.tolist() == (a.T @ a).tolist()  # exact, with an entry near 2^53


@pytest.mark.parametrize("n, peak", [(17, 1), (17, 8), (18, 4)])
def test_the_witness_spans_several_limbs(n, peak):
    """peak * (I - strict upper ones) has a witness of ~2^47-2^50 entries,
    past its low float64 limb of at most 2^39-2^45: it is checked in two."""
    a = peak * (np.eye(n, dtype=np.int64) - np.triu(np.ones((n, n), dtype=np.int64), 1))
    assert rational_linalg._full_rank_witness(a)
    assert integer_rank(a) == n


def test_int64_min_is_not_a_small_entry():
    a = np.eye(17, dtype=np.int64)
    a[0, 0] = -(2**63)  # np.abs leaves it negative
    assert rational_linalg._gram(a) is None
    assert integer_rank(a) == 17


def test_narrow_matrices_stay_on_bareiss(monkeypatch):
    """No inverse at 16 columns or fewer: dominance certifies the identity,
    and Bareiss decides the full-rank but non-dominant I - strict upper ones."""
    eliminated = []

    def recorded(m):
        eliminated.append(len(m[0]))
        return _eliminate(m)

    monkeypatch.setattr(np.linalg, "inv", _no_inverse)
    monkeypatch.setattr(rational_linalg, "_eliminate", recorded)
    eye = np.eye(16, dtype=np.int64)
    assert rational_linalg._full_rank_witness(eye)
    assert integer_rank(eye) == 16
    a = eye - np.triu(np.ones((16, 16), dtype=np.int64), 1)
    assert not rational_linalg._full_rank_witness(a)
    assert integer_rank(a) == 16
    assert eliminated == [16]  # the identity never reached Bareiss


def test_dominance_is_strict():
    """[[1, 1], [1, 1]] has G = [[2, 2], [2, 2]]: each row meets the bound
    with equality, and G is singular.  So is a duplicated column at 17."""
    ones = np.ones((2, 2), dtype=np.int64)
    assert not rational_linalg._full_rank_witness(ones)
    assert integer_rank(ones) == 1
    dup = np.eye(17, dtype=np.int64)
    dup[:, 16] = dup[:, 0]  # G rows 0 and 16: 2 * 1 = 1 + 1
    assert not rational_linalg._full_rank_witness(dup)
    assert integer_rank(dup) == _bareiss_rank(dup) == 16


def test_facets_are_certified_by_dominance_alone(monkeypatch):
    """Every facet's saturating Gram matrix is diagonal: neither an inverse
    nor an elimination is needed to certify it."""
    exprs = [f for s in ((2, 2), (2, 3), (2, 2, 2), (3, 3)) for f in enumerate_facets(Scenario(s))]
    exprs += [wbz333(), four_party_19(), *(mabk(n) for n in range(3, 10))]
    monkeypatch.setattr(rational_linalg, "_eliminate", _unreachable)
    monkeypatch.setattr(np.linalg, "inv", _no_inverse)
    for expr in exprs:
        rep = tightness(expr)
        assert rep.is_tight and rep.rank == expr.scenario.dimension


def test_four_party_facet_is_certified_without_bareiss(monkeypatch):
    expr = four_party_19()
    shapes = []
    witness = rational_linalg._full_rank_witness

    def recorded(a):
        shapes.append(a.shape)
        return witness(a)

    monkeypatch.setattr(rational_linalg, "_eliminate", _unreachable)
    monkeypatch.setattr(rational_linalg, "_full_rank_witness", recorded)
    rep = tightness(expr)
    assert (rep.rank, rep.saturating_count, rep.is_tight) == (81, 256, True)
    assert shapes == [(256, 81)]  # one witness for the saturating rows


def test_mabk9_is_certified_without_bareiss(monkeypatch):
    monkeypatch.setattr(rational_linalg, "_eliminate", _unreachable)
    rep = tightness(mabk(9))
    assert (rep.rank, rep.saturating_count, rep.is_tight) == (512, 512, True)


def test_rank_deficient_saturating_rows_get_the_exact_rank():
    expr = four_party_19()
    verts = distinct_vertices(expr.scenario)
    sat = verts[verts @ np.array(expr.coeffs, dtype=object) == 1].copy()
    assert sat.shape == (256, 81)
    sat[:, 40] = 0
    assert integer_rank(sat) == _bareiss_rank(sat) == 80


@settings(max_examples=40, deadline=None)
@given(
    st.integers(17, 120),
    st.integers(0, 20),
    st.booleans(),
    st.sampled_from([None, "product", "duplicate", "zero"]),
    st.sampled_from([1, 5]),
    st.integers(0, 2**32 - 1),
)
@example(12, 8, False, "product", 1, 0)  # 12 x 20, rank below 12
@example(17, 0, True, "duplicate", 5, 0)
@example(120, 0, False, "zero", 5, 0)
def test_the_witness_never_certifies_a_deficient_rank(
    short, extra, tall, deficiency, peak, seed
):
    """Entries +-1 or +-peak: the witness stays silent on rank-deficient
    matrices, and on full-rank ones integer_rank agrees with Bareiss."""
    rng = np.random.default_rng(seed)
    shape = (short + extra, short)
    a = rng.choice([-peak, -1, 1, peak], size=shape)
    if deficiency == "product":  # through a narrower inner dimension
        inner = int(rng.integers(0, short))
        a = a[:, :inner] @ rng.choice([-peak, -1, 1, peak], size=(inner, short))
    elif deficiency == "duplicate":
        a[:, -1] = a[:, rng.integers(short - 1)]
    elif deficiency == "zero":
        a[:, rng.integers(short)] = 0
    a = a.astype(np.int64) if tall else a.T.astype(np.int64)
    if deficiency is None:
        assert integer_rank(a) == _bareiss_rank(a)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not rational_linalg._full_rank_witness(a)
        # nor with a modest, finite proposal: the integer check alone refuses it
        with mock.patch.object(np.linalg, "inv", np.linalg.pinv):
            assert not rational_linalg._full_rank_witness(a)
