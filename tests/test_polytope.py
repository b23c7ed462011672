"""Strategy enumeration, exact bounds, tightness, and the facet oracle."""

import importlib.util
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellift import (
    BellExpression,
    EnumerationCapExceeded,
    Scenario,
    SignedSettingMap,
    apply_signed_setting_map,
    distinct_vertices,
    enumerate_facets,
    evaluate,
    four_party_19,
    lift2,
    linear_combine,
    lr_max,
    lr_max_with_witness,
    mabk,
    polytope,
    tightness,
    wbz333,
)
from oracles import enumerate_strategies

TWO = Scenario((2, 2))
CHSH = mabk(2)


def expr(scenario, terms):
    return BellExpression.from_terms(scenario, terms)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_strategies(Scenario((1,)))) == 2
    assert sum(1 for _ in enumerate_strategies(TWO)) == 16
    assert sum(1 for _ in enumerate_strategies(Scenario((3, 3, 3, 3)))) == 4096


def test_enumeration_order_is_lexicographic_in_bits():
    strategies = list(enumerate_strategies(Scenario((2,))))
    assert [s.outcomes for s in strategies] == [
        ((1, 1),),
        ((1, -1),),
        ((-1, 1),),
        ((-1, -1),),
    ]


def test_enumeration_yields_unique_strategies():
    seen = {s.outcomes for s in enumerate_strategies(Scenario((2, 3)))}
    assert len(seen) == 2**5


def test_enumeration_cap(monkeypatch):
    # 2^25 strategies, over the 2^24 cap: refused before any outcome row exists
    monkeypatch.setattr(polytope, "_outcome_patterns", None)
    with pytest.raises(EnumerationCapExceeded):
        lr_max(expr(Scenario((25,)), [((0,), 1)]))


def test_outcome_row_table_is_sized_before_it_is_built(monkeypatch):
    # (20,) has 2^20 strategies, inside the cap, but 2^20 * 20 outcome entries
    def unreachable(m):
        raise AssertionError("outcome rows were built")

    monkeypatch.setattr(polytope, "_outcome_patterns", unreachable)
    with pytest.raises(EnumerationCapExceeded, match="20971520 outcome-row entries"):
        lr_max(expr(Scenario((20,)), [((0,), 1)]))


@pytest.mark.parametrize("settings", [(1,), (2, 3), (2, 2, 2), (3, 1, 2)], ids=str)
def test_cached_tables_are_read_only(settings):
    """The outcome rows are shared across calls, so no caller may write
    into them."""
    scenario = Scenario(settings)
    rows = polytope._canonical_rows(scenario)
    assert polytope._canonical_rows(scenario) is rows
    for table in rows:
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


# ---------------------------------------------------------------------------
# local-realistic bounds
# ---------------------------------------------------------------------------


def test_lr_max_reference_values():
    assert lr_max(CHSH) == 1
    uniform = expr(TWO, [((i, j), "1/2") for i in range(2) for j in range(2)])
    assert lr_max(uniform) == 2
    assert lr_max(BellExpression.zero(TWO)) == 0


def test_lr_max_witness_attains_the_bound():
    bound, witness = lr_max_with_witness(CHSH)
    assert evaluate(CHSH, witness) == bound == 1


def test_lr_max_matches_slow_oracle():
    # independent route: evaluate() strategy by strategy in pure Python; the
    # witness is the first maximizer in enumeration order
    rng = np.random.default_rng(3)
    shapes = [(3,), (2, 3), (1, 2, 2), (2, 1, 2, 2)]
    for scenario in [Scenario(s) for s in shapes for _ in range(10)]:
        coeffs = [
            Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            for _ in range(scenario.dimension)
        ]
        e = BellExpression(scenario, tuple(coeffs))
        values = [(evaluate(e, s), s) for s in enumerate_strategies(scenario)]
        slow = max(v for v, _ in values)
        assert lr_max_with_witness(e) == (slow, next(s for v, s in values if v == slow))


@settings(max_examples=30, deadline=None)
@given(
    st.permutations([0, 1]),
    st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
)
def test_lr_max_invariant_under_setting_relabelling(perm, signs):
    m = SignedSettingMap.uniform(TWO, tuple(perm), signs)
    e = expr(TWO, [((0, 0), "1/2"), ((0, 1), "-1/3"), ((1, 1), 2)])
    assert lr_max(apply_signed_setting_map(e, m)) == lr_max(e)
    assert lr_max(-e) == lr_max(e)  # inversion symmetry of the vertex set


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------


def _normalized_face(settings, i, j):
    """(2^70 + 1) f + g over its maximum, for facets f and g: numerators past
    2^62 that still reach exactly 1, on the vertices of f where g is largest."""
    f, g = (enumerate_facets(Scenario(settings))[k] for k in (i, j))
    e = linear_combine([(2**70 + 1, f), (1, g)])
    return e.scaled(1 / max(evaluate(e, s) for s in enumerate_strategies(e.scenario)))


def test_chsh_is_tight():
    rep = tightness(CHSH)
    assert rep.lr_max == 1
    assert rep.is_valid
    assert rep.rank == 4
    assert rep.is_tight


def test_single_correlation_is_tight():
    rep = tightness(expr(TWO, [((0, 0), 1)]))
    assert rep.rank == 4 and rep.is_tight


def test_valid_but_not_tight():
    rep = tightness(expr(TWO, [((0, 0), "1/2"), ((0, 1), "1/2")]))
    assert rep.is_valid
    assert rep.rank == 2
    assert not rep.is_tight
    # the face certified is {I = 1}: a facet scaled below its bound saturates nothing
    rep = tightness(CHSH.scaled(Fraction(1, 2)))
    assert rep.lr_max == Fraction(1, 2) and rep.saturating_count == 0
    assert rep.is_valid and not rep.is_tight


def test_invalid_expression_is_not_tight():
    rep = tightness(expr(TWO, [((0, 0), 2)]))
    assert not rep.is_valid and not rep.is_tight
    assert rep.lr_max == 2


def test_tightness_sizes_the_saturating_rows_before_building_them(monkeypatch):
    """A refusal comes before anything is built: neither the saturating rows
    nor their contracted Gram matrix.  At the caps, a dominant Gram matrix
    decides, so the rows are never built."""
    built = []
    gram = polytope._saturating_gram

    def record_rows(rows, ids):
        built.append(("rows", len(ids)))
        return np.zeros((len(ids), 1), dtype=np.int64)

    def record_gram(plan, mask):
        built.append(("gram", int(mask.sum())))
        return gram(plan, mask)

    monkeypatch.setattr(polytope, "_vertices", record_rows)
    monkeypatch.setattr(polytope, "_saturating_gram", record_gram)
    # 2^18 saturating vertices x 343 coordinates: refused, nothing built
    one_term = expr(Scenario((7, 7, 7)), [((0, 0, 0), 1)])
    with pytest.raises(EnumerationCapExceeded, match="262144 saturating vertices"):
        tightness(one_term)
    # 4096 x 4096 is at the entry cap, but its rank takes 2^36 > 2^30 steps
    with pytest.raises(EnumerationCapExceeded, match="4096 saturating vertices"):
        tightness(mabk(12))
    assert built == []
    # 2^18 saturating vertices x 64 coordinates sit exactly at both caps, and
    # mabk(10)'s 1024 x 1024 exactly at the work cap
    assert tightness(expr(Scenario((16, 4)), [((0, 0), 1)])).is_tight
    assert tightness(mabk(10)).is_tight
    assert built == [("gram", 2**18), ("gram", 1024)]


def test_pair_tables_past_the_cap_leave_the_rank_to_the_rows(monkeypatch):
    """(17,) would need 2^17 x 17^2 pair-table entries, past the 2^24 cap, so
    no table is built: the Gram matrix of the 2^16 saturating rows is formed
    from the rows and certified."""
    assert polytope._gram_plan(Scenario((17,))) is None
    monkeypatch.setattr(polytope, "_saturating_gram", None)
    rep = tightness(expr(Scenario((17,)), [((0,), 1)]))
    assert (rep.saturating_count, rep.rank, rep.is_tight) == (2**16, 17, True)


def test_contracted_gram_equals_the_explicit_product(product_sizes):
    """The Gram matrix contracted party by party is A^T A of the explicit
    rows A, exactly, and no intermediate holds more than max(vertex count,
    D^2) entries, nor one of the strategy values more than max(vertex count,
    D).  Each expression gives two vertex sets: its maximizers (the
    saturating set of every facet and built-in) and its vertices of value
    >= 0, which are not tight.  At (2, 5) the last party shrinks the tensor
    (32 strategies > 5^2 setting pairs), so the order matters."""
    exprs = [f for s in ((2, 2), (2, 3), (2, 2, 2), (3, 3)) for f in enumerate_facets(Scenario(s))]
    exprs += [wbz333(), four_party_19(), *(mabk(n) for n in range(2, 10))]
    rng = np.random.default_rng(29)
    for settings in ((5, 2), (2, 5), (2, 2, 2), (3, 2, 2), (1, 4)):
        scenario = Scenario(settings)
        for _ in range(10):
            c = rng.integers(-2, 3, size=scenario.dimension)
            exprs.append(BellExpression(scenario, [int(x) for x in c]))
    sets = 0
    for e in exprs:
        product_sizes.clear()
        rows, vals = polytope._vertex_values(e)
        vertices, d = vals.size, e.scenario.dimension
        assert len(product_sizes) == e.scenario.parties
        assert max(product_sizes) <= max(vertices, d)
        for mask in (vals == e.denominator, vals >= 0):
            a = polytope._vertices(rows, np.flatnonzero(mask))
            product_sizes.clear()
            gram = polytope._saturating_gram(polytope._gram_plan(e.scenario), mask)
            assert gram.tolist() == (a.T @ a).tolist()
            assert max(product_sizes) <= max(vertices, d * d)
            sets += 1
    assert sets == 2 * (16 + 36 + 256 + 90 + 2 + 8 + 50)


@pytest.mark.parametrize(
    "e",
    [
        CHSH,
        expr(TWO, [((0, 0), 1)]),
        expr(TWO, [((0, 0), "1/2"), ((0, 1), "1/2")]),
        wbz333(),
        mabk(3),
        mabk(4),
        enumerate_facets(Scenario((2, 2, 2)))[100],
        # numerators past 2^62: strategy values are Python ints in object arrays
        expr(Scenario((2, 2, 2)), [((0, 0, 0), 2**70 + 1), ((1, 1, 1), "1/3")]),
        expr(Scenario((3, 2)), [((0, 0), -(2**70) - 1), ((2, 1), "1/3"), ((1, 0), 5)]),
        _normalized_face((2, 2, 2), 0, 1),
        _normalized_face((2, 2, 2), 7, 200),
        _normalized_face((3, 3), 0, 5),
        # 4 saturating vertices of D = 6, rank 3: A A^T is not certified, Bareiss decides
        expr(Scenario((2, 3)), [((0, 2), "1/2"), ((1, 2), "-1/2")]),
    ],
    ids=[
        "chsh", "e00", "loose", "wbz333", "mabk3", "mabk4", "facet222",
        "big-one-third", "big-negative", "big-face222", "big-ridge222", "big-face33",
        "few-deficient",
    ],
)
def test_tightness_against_float_oracle(e):
    """Recollect saturating vertices independently and rank them in floats;
    the maximum and its witness are the first maximizer in enumeration order."""
    scenario = e.scenario
    values = [(evaluate(e, s), s) for s in enumerate_strategies(scenario)]
    best = max(v for v, _ in values)
    assert lr_max_with_witness(e) == (best, next(s for v, s in values if v == best))
    sat = [s.admissible_vector(scenario) for v, s in values if v == 1]
    sat = np.unique(np.array(sat, dtype=float), axis=0) if sat else np.empty((0, 0))
    rep = tightness(e)
    assert (rep.lr_max, rep.saturating_count) == (best, sat.shape[0])
    assert rep.rank == (np.linalg.matrix_rank(sat, tol=1e-9) if sat.size else 0)


# ---------------------------------------------------------------------------
# vertices and the facet oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "settings", [(1,), (2,), (1, 2), (2, 2), (3, 2), (2, 2, 2), (3, 3), (2, 2, 2, 2)], ids=str
)
def test_distinct_vertex_count(settings):
    scenario = Scenario(settings)
    verts = distinct_vertices(scenario)
    expected = 2 ** (sum(settings) - len(settings) + 1)
    assert verts.shape == (expected, scenario.dimension)
    # oracle: admissible vectors of all strategies, first occurrence kept
    vectors = (s.admissible_vector(scenario) for s in enumerate_strategies(scenario))
    assert verts.tolist() == [list(v) for v in dict.fromkeys(vectors)]


def test_distinct_vertices_sizes_the_table_before_building_it(monkeypatch):
    def unreachable(rows, ids):
        raise AssertionError("vertices were built")

    monkeypatch.setattr(polytope, "_vertices", unreachable)
    # 2^21 x 1296 entries (20 GiB as int64) and 2^17 x 625, both inside 2^24 strategies
    for m in (6, 5):
        with pytest.raises(EnumerationCapExceeded, match="coordinates"):
            distinct_vertices(Scenario((m,) * 4))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_initial_cone_against_a_float_rank_oracle(nrows, ncols, deficient, seed):
    """The elimination pass takes the rows that raise the rank, in order.  Ray
    j is primitive, row j is negative on it, and the other taken rows
    annihilate it, so its zero set is theirs."""
    rng = np.random.default_rng(seed)
    if deficient:  # a product through a narrower inner dimension
        inner = int(rng.integers(1, ncols + 1))
        rows = rng.integers(-3, 4, size=(nrows, inner)) @ rng.integers(-3, 4, size=(inner, ncols))
    else:
        rows = rng.integers(-3, 4, size=(nrows, ncols))
    basis, rays, masks = polytope._initial_cone(rows)
    rays = rays.reshape(len(basis), ncols)  # (0,) when every row is zero
    greedy = []
    for i in range(nrows):
        if np.linalg.matrix_rank(rows[greedy + [i]].astype(float)) > len(greedy):
            greedy.append(i)
    assert basis == greedy
    values = rows[basis].astype(object) @ rays.T.astype(object)  # row basis[k] on ray j
    assert (values != 0).tolist() == np.eye(len(basis), dtype=bool).tolist()
    assert all(values[j, j] < 0 for j in range(len(basis)))
    assert all(math.gcd(*ray) == 1 for ray in rays.tolist())
    full = sum(1 << k for k in basis)
    assert masks.tolist() == [full & ~(1 << k) for k in basis]


def _solve_unit_rhs(rows):
    """x with rows . x = (1, ..., 1) by Gauss-Jordan in Fractions, or None if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1)] for row in rows]
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def brute_force_facets(scenario):
    """Valid hyperplanes x . v = 1 through D independent vertices, as exact tuples.

    Floats only pick one spanning subset per hyperplane (integer matrices:
    nonzero determinants are >= 1); each pick is then solved and checked
    exactly.
    """
    verts = distinct_vertices(scenario)
    dim = scenario.dimension
    subsets = np.array(list(itertools.combinations(range(len(verts)), dim)))
    spanning = subsets[np.abs(np.linalg.det(verts[subsets].astype(float))) > 0.5]
    approx = np.linalg.solve(verts[spanning].astype(float), np.ones((len(spanning), dim, 1)))
    picks = {tuple(np.round(x[:, 0], 9)): subset for x, subset in zip(approx, spanning)}
    found = set()
    for subset in picks.values():
        x = _solve_unit_rhs(verts[subset].tolist())
        if all(sum(c * v for c, v in zip(x, row)) <= 1 for row in verts.tolist()):
            found.add(x)
    return found


@pytest.mark.parametrize("settings", [(2,), (2, 2), (2, 3), (3, 2), (2, 2, 2)], ids=str)
def test_facet_oracle_matches_brute_force(settings):
    scenario = Scenario(settings)
    keys = [f.coeffs for f in enumerate_facets(scenario)]
    assert keys == sorted(set(keys))  # canonical order, no duplicates
    assert set(keys) == brute_force_facets(scenario)


def test_facet_oracle_counts():
    assert len(enumerate_facets(Scenario((2,)))) == 4
    assert len(enumerate_facets(TWO)) == 16
    assert len(enumerate_facets(Scenario((2, 2, 2)))) == 256
    assert len(enumerate_facets(Scenario((3, 3)))) == 90


def _qhull_planes(scenario):
    """The supporting hyperplanes of the hull, a.x <= 1, rounded to 1e-9."""
    from scipy.spatial import ConvexHull

    equations = ConvexHull(np.asarray(distinct_vertices(scenario), dtype=float)).equations
    # qhull writes n.x + b <= 0 with b < 0 (the origin is interior)
    return {tuple(row) for row in np.round(equations[:, :-1] / -equations[:, -1:], 9)}


@pytest.mark.parametrize("settings", [(2, 2), (2, 3), (2, 2, 2), (3, 3)], ids=str)
def test_facet_oracle_matches_qhull(settings):
    pytest.importorskip("scipy")
    scenario = Scenario(settings)
    facets = {tuple(np.round([float(c) for c in f.coeffs], 9)) for f in enumerate_facets(scenario)}
    assert _qhull_planes(scenario) == facets


def _scaled(facets, scale):
    """Coefficients times ``scale`` as an int array, checked to be integers."""
    assert all(scale % f.denominator == 0 for f in facets)  # the lcm of the reduced ones
    return np.array([[n * (scale // f.denominator) for n in f.numerators] for f in facets])


def test_four_party_two_setting_facets_are_the_lift2_closure():
    """65,536 facets = every lift2 of two (2,2,2) facets (Werner & Wolf 2001).

    The closure is built from lift2's coefficient formula, new party first:
    blocks (f + g)/2 and (f - g)/2, here on integers scaled by 8.
    """
    three = enumerate_facets(Scenario((2, 2, 2)))
    facets = enumerate_facets(Scenario((2, 2, 2, 2)))
    assert len(facets) == 65536
    f3 = _scaled(three, 4)
    closure = np.concatenate(
        [f3[:, None, :] + f3[None, :, :], f3[:, None, :] - f3[None, :, :]], axis=2
    ).reshape(-1, 16)
    scaled = _scaled(facets, 8)
    assert np.array_equal(scaled, np.unique(scaled, axis=0))  # sorted, no duplicates
    assert np.array_equal(scaled, np.unique(closure, axis=0))
    rng = np.random.default_rng(0)
    for i, j in rng.integers(0, len(three), size=(20, 2)):
        lifted = lift2(three[i], three[j], diagnose=False)[0]
        assert [c * 8 for c in lifted.coeffs] == closure[i * len(three) + j].tolist()
    if importlib.util.find_spec("scipy"):
        assert _qhull_planes(Scenario((2, 2, 2, 2))) == {
            tuple(np.round(row / 8, 9)) for row in scaled
        }


def test_facet_oracle_output_is_certified():
    facets = enumerate_facets(TWO)
    assert len({f.coeffs for f in facets}) == 16  # no duplicates
    for f in facets:
        rep = tightness(f)
        assert rep.lr_max == 1 and rep.is_tight


def test_facet_oracle_refuses_over_64_vertices_before_any_work(monkeypatch):
    def unreachable(scenario):
        raise AssertionError("vertices were built")

    monkeypatch.setattr(polytope, "distinct_vertices", unreachable)
    monkeypatch.setattr(polytope, "_outcome_patterns", unreachable)
    with pytest.raises(EnumerationCapExceeded, match="64"):
        enumerate_facets(Scenario((3, 3, 3)))  # 128 distinct vertices
    with pytest.raises(EnumerationCapExceeded, match="64"):
        enumerate_facets(Scenario((24,)))  # 2^24 strategies, inside the cap


def test_facet_oracle_ray_bound(monkeypatch):
    monkeypatch.setattr(polytope, "FACET_RAY_CAP", 100)
    enumerate_facets.cache_clear()
    with pytest.raises(EnumerationCapExceeded, match="100 intermediate rays"):
        enumerate_facets(Scenario((2, 2, 2)))  # peaks at 256 rays


def test_facet_oracle_int64_guard(monkeypatch):
    monkeypatch.setattr(polytope, "_INT64_SAFE", 2)
    enumerate_facets.cache_clear()
    with pytest.raises(EnumerationCapExceeded, match="int64"):
        enumerate_facets(TWO)


def test_facet_oracle_int64_guard_counts_the_row_entries(monkeypatch):
    """The guard bounds 2 d max|row| max|ray|^2, not 2 d max|ray|^2: with the
    cap just above the +-1 bound, a +-1 row still fits and a +-6 row, such as
    a symmetric section's, is refused before any ray is formed."""
    rows = np.array(
        [[6, -6, 6, -1], [-6, 6, 6, -1], [6, 6, -6, -1], [-6, -6, -6, -1], [6, 6, 6, -1]]
    )
    basis, rays, masks = polytope._initial_cone(rows)
    assert basis == [0, 1, 2, 3]
    unit_bound = rays.shape[1] * int(np.abs(rays).max()) ** 2
    monkeypatch.setattr(polytope, "_INT64_SAFE", unit_bound + 2)
    polytope._insert_row(rays, masks, np.sign(rows[4]), 4)
    with pytest.raises(EnumerationCapExceeded, match="int64"):
        polytope._insert_row(rays, masks, rows[4], 4)
