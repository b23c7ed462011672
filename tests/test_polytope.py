"""Strategy enumeration, exact bounds, tightness, and the facet oracle."""

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
    enumerate_facets_brute,
    enumerate_strategies,
    evaluate,
    lr_max,
    lr_max_with_witness,
    mabk,
    tightness,
    wbz333,
)

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


def test_enumeration_cap():
    # 2^25 strategies, over the 2^24 cap: refused on the first next()
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_strategies(Scenario((25,))))


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
    # independent route: evaluate() strategy by strategy in pure Python
    rng = np.random.default_rng(3)
    scenario = Scenario((2, 3))
    for _ in range(10):
        terms = [
            ((int(i), int(j)), Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
            for i in range(2)
            for j in range(3)
        ]
        e = expr(scenario, terms)
        slow = max(evaluate(e, s) for s in enumerate_strategies(scenario))
        assert lr_max(e) == slow


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


def test_invalid_expression_is_not_tight():
    rep = tightness(expr(TWO, [((0, 0), 2)]))
    assert not rep.is_valid and not rep.is_tight
    assert rep.lr_max == 2


@pytest.mark.parametrize(
    "e",
    [
        CHSH,
        expr(TWO, [((0, 0), 1)]),
        expr(TWO, [((0, 0), "1/2"), ((0, 1), "1/2")]),
        wbz333(),
    ],
    ids=["chsh", "e00", "loose", "wbz333"],
)
def test_tightness_against_float_oracle(e):
    """Recollect saturating vertices independently and rank them in floats."""
    scenario = e.scenario
    sat = []
    for s in enumerate_strategies(scenario):
        if evaluate(e, s) == 1:
            sat.append(s.admissible_vector(scenario))
    sat = np.unique(np.array(sat, dtype=float), axis=0) if sat else np.empty((0, 0))
    rep = tightness(e)
    assert rep.saturating_count == sat.shape[0]
    assert rep.rank == (np.linalg.matrix_rank(sat, tol=1e-9) if sat.size else 0)


# ---------------------------------------------------------------------------
# vertices and the facet oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "settings", [(2,), (2, 2), (3, 2), (2, 2, 2), (3, 3)], ids=str
)
def test_distinct_vertex_count(settings):
    scenario = Scenario(settings)
    verts = distinct_vertices(scenario)
    expected = 2 ** (sum(settings) - len(settings) + 1)
    assert verts.shape == (expected, scenario.dimension)
    assert len({tuple(v) for v in verts}) == expected


def test_facet_oracle_counts():
    assert len(enumerate_facets_brute(Scenario((2,)))) == 4
    assert len(enumerate_facets_brute(TWO)) == 16
    assert len(enumerate_facets_brute(Scenario((2, 2, 2)))) == 256


@pytest.mark.parametrize("settings", [(2, 2), (2, 3), (2, 2, 2)], ids=str)
def test_facet_oracle_matches_qhull(settings):
    # independent oracle: the supporting hyperplanes of the hull, a.x <= 1
    pytest.importorskip("scipy")
    from scipy.spatial import ConvexHull

    scenario = Scenario(settings)
    equations = ConvexHull(np.asarray(distinct_vertices(scenario), dtype=float)).equations
    # qhull writes n.x + b <= 0 with b < 0 (the origin is interior)
    planes = {tuple(row) for row in np.round(equations[:, :-1] / -equations[:, -1:], 9)}
    facets = {
        tuple(np.round([float(c) for c in f.coeffs], 9)) for f in enumerate_facets_brute(scenario)
    }
    assert planes == facets


def test_facet_oracle_output_is_certified():
    facets = enumerate_facets_brute(TWO)
    assert len({f.coeffs for f in facets}) == 16  # no duplicates
    for f in facets:
        rep = tightness(f)
        assert rep.lr_max == 1 and rep.is_tight


def test_facet_oracle_caps():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_facets_brute(Scenario((3, 3)))  # dimension 9 > 8
    with pytest.raises(EnumerationCapExceeded):
        enumerate_facets_brute(Scenario((5,)))  # 32 distinct vertices > 20
