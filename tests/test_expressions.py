"""Core expression types: exactness, evaluation, and relabelling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellift import (
    ENUMERATION_CAP,
    BellExpression,
    DeterministicStrategy,
    EnumerationCapExceeded,
    Scenario,
    SignedSettingMap,
    apply_signed_setting_map,
    enumerate_strategies,
    evaluate,
    linear_combine,
    permute_parties,
)

TWO = Scenario((2, 2))
CHSH = BellExpression.from_terms(
    TWO,
    [((0, 0), "1/2"), ((0, 1), "1/2"), ((1, 0), "1/2"), ((1, 1), "-1/2")],
)


def test_scenario_basics():
    s = Scenario((3, 2))
    assert s.parties == 2
    assert s.dimension == 6
    tuples = list(s.index_tuples())
    assert tuples[0] == (0, 0)
    assert tuples[-1] == (2, 1)
    assert [s.flat_index(t) for t in tuples] == list(range(6))


def test_scenario_dimension_is_capped_before_allocation():
    assert Scenario((2,) * 24).dimension == ENUMERATION_CAP
    with pytest.raises(EnumerationCapExceeded, match="cap"):
        Scenario((2,) * 25)


def test_scenario_rejects_bad_settings():
    with pytest.raises(ValueError):
        Scenario((0, 2))
    with pytest.raises(ValueError):
        Scenario(())


def test_strategy_validation():
    with pytest.raises(ValueError):
        DeterministicStrategy(((1, 0),))
    s = DeterministicStrategy(((1, -1), (1, 1)))
    assert s.matches(TWO)
    assert not s.matches(Scenario((2, 2, 2)))


def test_admissible_vector_is_outer_product():
    s = DeterministicStrategy(((1, -1), (1, 1)))
    # components ordered like the scenario's index tuples: a_i * b_j
    assert list(s.admissible_vector(TWO)) == [1, 1, -1, -1]


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        BellExpression.from_terms(TWO, [((0, 0), 0.5)])


def test_from_terms_accumulates_duplicates():
    e = BellExpression.from_terms(TWO, [((0, 0), "1/3"), ((0, 0), "2/3")])
    assert e.coeff((0, 0)) == 1


def test_evaluate_chsh_examples():
    all_plus = DeterministicStrategy(((1, 1), (1, 1)))
    assert evaluate(CHSH, all_plus) == Fraction(1)
    assert evaluate(BellExpression.zero(TWO), all_plus) == 0
    single = BellExpression.from_terms(TWO, [((0, 0), 1)])
    assert evaluate(single, all_plus) == 1


def test_evaluate_requires_matching_strategy():
    with pytest.raises(ValueError):
        evaluate(CHSH, DeterministicStrategy(((1,), (1,))))


def test_evaluate_equals_coefficient_dot_vertex():
    # independent route: dot the flat coefficient vector with the
    # admissible vector instead of looping over setting tuples
    e = BellExpression.from_terms(
        Scenario((2, 3)), [((0, 0), "2/7"), ((1, 2), -3), ((0, 1), "5/2")]
    )
    for strat in enumerate_strategies(e.scenario):
        dot = sum(c * v for c, v in zip(e.coeffs, strat.admissible_vector(e.scenario)))
        assert evaluate(e, strat) == dot


def test_arithmetic():
    e = CHSH + CHSH
    assert e.coeff((0, 0)) == 1
    assert (e - CHSH) == CHSH
    assert (-CHSH).coeff((1, 1)) == Fraction(1, 2)
    assert CHSH.scaled(2).coeff((0, 1)) == 1
    with pytest.raises(TypeError):
        CHSH.scaled(0.5)


def test_linear_combine():
    zero = linear_combine([(1, CHSH), (-1, CHSH)])
    assert zero == BellExpression.zero(TWO)
    with pytest.raises(ValueError):
        linear_combine([(1, CHSH), (1, BellExpression.zero(Scenario((2,))))])
    with pytest.raises(ValueError):
        linear_combine([])


def test_permute_parties_transports_coefficients():
    e = BellExpression.from_terms(Scenario((2, 3)), [((1, 2), 1)])
    p = permute_parties(e, (1, 0))
    assert p.scenario == Scenario((3, 2))
    assert p.coeff((2, 1)) == 1
    assert permute_parties(p, (1, 0)) == e


def test_permute_parties_preserves_values():
    e = BellExpression.from_terms(
        Scenario((2, 2, 3)), [((0, 1, 2), "1/2"), ((1, 0, 0), -2)]
    )
    order = (2, 0, 1)  # new party k hosts old party order[k]
    p = permute_parties(e, order)
    for strat in enumerate_strategies(e.scenario):
        moved = DeterministicStrategy(tuple(strat.outcomes[q] for q in order))
        assert evaluate(p, moved) == evaluate(e, strat)


def inverse(m: SignedSettingMap) -> SignedSettingMap:
    """The map that undoes ``m``: setting perm[j] goes back to j with sign[j]."""
    perms, signs = [], []
    for perm, sgn in zip(m.permutations, m.signs):
        inv_p, inv_s = [0] * len(perm), [1] * len(perm)
        for j, pj in enumerate(perm):
            inv_p[pj], inv_s[pj] = j, sgn[j]
        perms.append(inv_p)
        signs.append(inv_s)
    return SignedSettingMap(perms, signs)


def test_signed_setting_map_roundtrip():
    m = SignedSettingMap(permutations=((1, 0), (0, 1)), signs=((1, -1), (-1, 1)))
    inv = inverse(m)
    e = CHSH
    assert apply_signed_setting_map(apply_signed_setting_map(e, m), inv) == e


def test_uniform_map_requires_equal_setting_counts():
    with pytest.raises(ValueError):
        SignedSettingMap.uniform(Scenario((2, 3)), (1, 0), (1, 1))


def test_signed_setting_map_matches_strategy_relabelling():
    """new[perm(i)] = sign(i) * old[i] means values transport through the
    corresponding outcome relabelling."""
    m = SignedSettingMap(permutations=((1, 0), (0, 1)), signs=((1, -1), (-1, 1)))
    e = BellExpression.from_terms(TWO, [((0, 0), 1), ((1, 1), "1/3"), ((1, 0), -1)])
    mapped = apply_signed_setting_map(e, m)
    for strat in enumerate_strategies(TWO):
        relabelled = DeterministicStrategy(
            tuple(
                tuple(
                    m.signs[p][i] * strat.outcomes[p][m.permutations[p][i]]
                    for i in range(len(strat.outcomes[p]))
                )
                for p in range(2)
            )
        )
        assert evaluate(mapped, strat) == evaluate(e, relabelled)


coeff_st = st.fractions(
    min_value=-3, max_value=3, max_denominator=8
).filter(lambda f: f != 0)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)), coeff_st, max_size=4
    ),
    st.permutations([0, 1]),
)
def test_permutation_preserves_coefficient_multiset(terms, order):
    e = BellExpression.from_terms(TWO, list(terms.items()))
    p = permute_parties(e, tuple(order))
    assert sorted(p.coeffs) == sorted(e.coeffs)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)), coeff_st, max_size=4
    ),
    coeff_st,
)
def test_evaluate_is_linear(terms, scale):
    e = BellExpression.from_terms(TWO, list(terms.items()))
    strat = DeterministicStrategy(((1, -1), (-1, 1)))
    assert evaluate(e.scaled(scale), strat) == scale * evaluate(e, strat)
    assert evaluate(e + e, strat) == 2 * evaluate(e, strat)
