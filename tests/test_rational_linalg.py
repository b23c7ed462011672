"""Fraction-free rank against a floating oracle, and the certificates of
full rank (Gram diagonal dominance, the integer inverse witness) against
Bareiss."""

import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellift import polytope, rational_linalg
from bellift.expressions import BellExpression, Scenario
from bellift.lifting import four_party_19, mabk, wbz333
from bellift.polytope import distinct_vertices, enumerate_facets, tightness
from bellift.rational_linalg import _eliminate, integer_rank


def _full_rank_witness(a: np.ndarray) -> bool:
    return rational_linalg._nonsingular(rational_linalg._gram(a))


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
# Gram dominance, then the inverse witness, then the Bareiss fallback, at
# every width
# ---------------------------------------------------------------------------


def _bareiss_rank(m) -> int:
    rows = [[int(x) for x in row] for row in m]
    return _eliminate(rows)


def _unreachable(m):
    raise AssertionError("Bareiss fallback taken")


def _no_inverse(g):
    raise AssertionError("float inverse proposed")


def _recorded(calls, fn):
    """``fn``, appending the row count of its argument to ``calls`` first."""

    def call(m):
        calls.append(len(m))
        return fn(m)

    return call


def test_full_rank_over_q_but_not_mod_p_falls_back():
    """Full-rank matrices that the witness declines still get their exact rank."""
    unimodular = np.eye(40, dtype=np.int64) + np.triu(np.full((40, 40), -2), 1)
    assert abs(np.linalg.inv(unimodular.astype(float))).max() > 3.0**38  # 2 * 3^38
    m = np.eye(17, dtype=np.int64)
    m[3, 3] = 2**31 - 1  # a p-entry: 17 * p^2 is past float64's exact range
    tall = np.vstack([m, np.zeros((1, 17), dtype=np.int64)])  # Gram entry (3, 3) is p^2
    for a, rank in ((unimodular, 40), (m, 17), (tall, 17)):
        assert not _full_rank_witness(a)
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


def _upper(n: int, peak: int = 1) -> np.ndarray:
    """peak * (I - strict upper ones): full rank, Gram matrix not dominant."""
    return peak * (np.eye(n, dtype=np.int64) - np.triu(np.ones((n, n), dtype=np.int64), 1))


@pytest.mark.parametrize("n, peak", [(17, 1), (17, 8), (18, 4)])
def test_the_witness_declines_products_past_2_53(n, peak, monkeypatch):
    """peak * (I - strict upper ones) has max|G^-1| between 2^24 and 2^31.
    With 2^k > 2^10 ||G||_inf, the bound ||G||_inf 2^k max|G^-1| on G X
    passes 2^53, so the witness declines before the product and Bareiss
    decides."""
    a = _upper(n, peak)
    g = (a.T @ a).astype(float)
    norm = np.abs(g).sum(axis=1).max()
    assert norm * (norm * 2**10) * np.abs(np.linalg.inv(g)).max() >= 2**53
    inverted = []
    monkeypatch.setattr(np.linalg, "inv", _recorded(inverted, np.linalg.inv))
    assert not _full_rank_witness(a)
    assert inverted == [n]  # reached the witness: dominance failed
    assert integer_rank(a) == _bareiss_rank(a) == n


def test_int64_min_is_not_a_small_entry():
    a = np.eye(17, dtype=np.int64)
    a[0, 0] = -(2**63)  # np.abs leaves it negative
    assert rational_linalg._gram(a) is None
    assert integer_rank(a) == 17


def test_narrow_matrices_stay_on_bareiss(monkeypatch):
    """Width no longer gates the witness.  Dominance certifies the identity
    with no inverse.  Two full-rank, non-dominant matrices reach the inverse
    witness, which certifies them: four +-1 columns whose Gram row 0 is
    (4, 2, 2, 2), and I - strict upper ones at 16 columns.  Twice the latter
    is declined there (G X would pass 2^53), so it stays on Bareiss."""
    eliminated, inverted = [], []
    monkeypatch.setattr(np.linalg, "inv", _recorded(inverted, np.linalg.inv))
    monkeypatch.setattr(rational_linalg, "_eliminate", _recorded(eliminated, _eliminate))
    eye = np.eye(16, dtype=np.int64)
    assert _full_rank_witness(eye)
    assert integer_rank(eye) == 16
    assert inverted == [] and eliminated == []
    signs = np.ones((4, 4), dtype=np.int64)
    signs[1, 3] = signs[2, 2] = signs[3, 1] = -1
    for a in (signs, _upper(16)):
        assert _full_rank_witness(a)
        assert integer_rank(a) == len(a)
    assert inverted == [4, 4, 16, 16] and eliminated == []
    assert not _full_rank_witness(_upper(16, 2))
    assert integer_rank(_upper(16, 2)) == 16
    assert eliminated == [16]


def test_dominance_is_strict():
    """[[1, 1], [1, 1]] has G = [[2, 2], [2, 2]]: each row meets the bound
    with equality, and G is singular.  So is a duplicated column at 17."""
    ones = np.ones((2, 2), dtype=np.int64)
    assert not _full_rank_witness(ones)
    assert integer_rank(ones) == 1
    dup = np.eye(17, dtype=np.int64)
    dup[:, 16] = dup[:, 0]  # G rows 0 and 16: 2 * 1 = 1 + 1
    assert not _full_rank_witness(dup)
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
    """One certificate on the contracted 81 x 81 Gram matrix decides: the
    256 saturating rows are never built, and Bareiss is never reached."""
    certified = []
    monkeypatch.setattr(rational_linalg, "_eliminate", _unreachable)
    monkeypatch.setattr(polytope, "_vertices", lambda rows, ids: _unreachable(ids))
    monkeypatch.setattr(
        rational_linalg, "_nonsingular", _recorded(certified, rational_linalg._nonsingular)
    )
    rep = tightness(four_party_19())
    assert (rep.rank, rep.saturating_count, rep.is_tight) == (81, 256, True)
    assert certified == [81]  # one certificate, on the 81 x 81 Gram matrix


@pytest.mark.parametrize(
    "settings, terms, count, rank",
    [
        ((5,), [((0,), "1/2"), ((1,), "1/2")], 8, 4),  # coordinates 0 and 1 agree
        ((2, 4), [((0, 0), "1/2"), ((0, 1), "1/2")], 8, 6),  # b0 = b1 = 1
    ],
)
def test_a_deficient_saturating_set_gets_one_certificate_then_bareiss(
    settings, terms, count, rank, monkeypatch
):
    """At least D saturating vertices of rank below D: the contracted Gram
    matrix gets one certificate, which fails, and Bareiss on the saturating
    rows decides at once, with no second certificate through integer_rank."""
    certified, eliminated = [], []
    monkeypatch.setattr(
        rational_linalg, "_nonsingular", _recorded(certified, rational_linalg._nonsingular)
    )
    monkeypatch.setattr(rational_linalg, "_eliminate", _recorded(eliminated, _eliminate))
    monkeypatch.setattr(rational_linalg, "integer_rank", _unreachable)
    scenario = Scenario(settings)
    rep = tightness(BellExpression.from_terms(scenario, terms))
    assert (rep.lr_max, rep.saturating_count, rep.rank, rep.is_tight) == (1, count, rank, False)
    assert count >= scenario.dimension
    assert certified == [scenario.dimension] and eliminated == [count]


def test_fewer_saturating_vertices_than_columns_take_the_rows(monkeypatch):
    """Below D saturating vertices, integer_rank certifies their rows through
    the short side's Gram matrix A A^T: no contraction and no Bareiss."""
    monkeypatch.setattr(polytope, "_saturating_gram", None)
    monkeypatch.setattr(rational_linalg, "_eliminate", _unreachable)
    half = [((0, 0), "1/2"), ((0, 1), "1/2")]  # a0 b0 = a0 b1 = 1
    rep = tightness(BellExpression.from_terms(Scenario((2, 2)), half))
    assert (rep.lr_max, rep.saturating_count, rep.rank, rep.is_tight) == (1, 2, 2, False)


def test_mabk9_is_certified_without_bareiss(monkeypatch):
    monkeypatch.setattr(rational_linalg, "_eliminate", _unreachable)
    rep = tightness(mabk(9))
    assert (rep.rank, rep.saturating_count, rep.is_tight) == (512, 512, True)


def _symmetric_section_facets() -> list[BellExpression]:
    """The facets of the party-symmetric section of (3,3,3) (Bancal, Gisin &
    Pironio 2010), each expanded to a full expression.

    One coordinate per multiset mu of three settings: sum over S3 of
    V[mu o pi].  The section's facets c . x <= t come from the double
    description's own steps, and c_mu 3! / |orbit mu| / t goes to every index
    that sorts to mu, so each expansion has local bound 1."""
    scenario = Scenario((3, 3, 3))
    verts = distinct_vertices(scenario).reshape(128, 3, 3, 3)
    multisets = list(itertools.combinations_with_replacement(range(3), 3))
    perms = list(itertools.permutations(range(3)))
    coords = [sum(verts[:, mu[p], mu[q], mu[r]] for p, q, r in perms) for mu in multisets]
    points = np.unique(np.stack(coords, axis=1), axis=0)
    assert points.shape == (40, 10)
    rays = polytope._double_description(np.hstack([points, -np.ones((40, 1), dtype=np.int64)]))
    assert len(rays) == 1874
    orbit = {mu: len(set(itertools.permutations(mu))) for mu in multisets}
    exprs = []
    for *c, t in rays.tolist():
        coeff = {mu: Fraction(6 * c_mu, orbit[mu] * t) for mu, c_mu in zip(multisets, c)}
        idx = itertools.product(range(3), repeat=3)
        exprs.append(BellExpression(scenario, [coeff[tuple(sorted(i))] for i in idx]))
    return exprs


def test_the_witness_certifies_the_symmetric_section_facets(monkeypatch):
    """The witness's real traffic: most tight (3,3,3) section facets are not
    Gram-dominant, and the inverse witness certifies them without Bareiss."""
    exprs = _symmetric_section_facets()
    sample = np.random.default_rng(2010).choice(len(exprs), size=200, replace=False)
    eliminated, inverted = [], []
    monkeypatch.setattr(np.linalg, "inv", _recorded(inverted, np.linalg.inv))
    monkeypatch.setattr(rational_linalg, "_eliminate", _recorded(eliminated, _eliminate))
    tight = dominant = 0
    for k in sample.tolist():
        eliminated.clear()
        inverted.clear()
        rep = tightness(exprs[k])
        assert rep.lr_max == 1
        if rep.is_tight:
            assert eliminated == []
            tight += 1
            dominant += inverted == []
    assert (tight, dominant) == (86, 3)  # 83 certified by the witness alone


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
        assert not _full_rank_witness(a)
        # nor with a modest, finite proposal: the integer check alone refuses it
        with mock.patch.object(np.linalg, "inv", np.linalg.pinv):
            assert not _full_rank_witness(a)
