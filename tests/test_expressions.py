"""Core expression types: exactness, evaluation, and relabelling."""

import copy
import math
import pickle
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellift import (
    ENUMERATION_CAP,
    EXACT_COEFFICIENT_CAP,
    BellExpression,
    DeterministicStrategy,
    EnumerationCapExceeded,
    Scenario,
    SignedSettingMap,
    apply_signed_setting_map,
    evaluate,
    linear_combine,
    permute_parties,
)
from oracles import enumerate_strategies

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


def test_exact_coefficients_are_capped_before_allocation():
    assert len(BellExpression.zero(Scenario((2,) * 16)).coeffs) == EXACT_COEFFICIENT_CAP
    wide = Scenario((2,) * 17)  # a valid scenario, but 2^17 exact coefficients
    builds = (
        lambda: BellExpression.zero(wide),
        lambda: BellExpression.from_terms(wide, []),
        lambda: BellExpression.from_product(wide, [(1, 0)] * 17),
        lambda: BellExpression(wide, (Fraction(0) for _ in range(wide.dimension))),
    )
    tracemalloc.start()
    try:
        for build in builds:
            with pytest.raises(EnumerationCapExceeded, match="exact coefficients"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # a list of 2^17 coefficients alone takes 1 MiB


def test_every_cap_refusal_goes_through_one_gate():
    src = Path(__file__).resolve().parents[1] / "src" / "bellift"
    raises = sum(p.read_text().count("raise EnumerationCapExceeded") for p in src.glob("*.py"))
    assert raises == 1


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


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: TWO.flat_index((0,)), "arity"),
        (lambda: TWO.flat_index((0, 2)), "out of range"),
        (lambda: BellExpression.from_product(TWO, [(1, 1), (1,)]), "one weight per setting"),
        (lambda: BellExpression(TWO, [1, 2, 3]), "expected 4 coefficients"),
        (lambda: permute_parties(CHSH, (0, 0)), "not a permutation of the parties"),
        (lambda: SignedSettingMap(((0, 1),), ()), "same parties"),
        (lambda: SignedSettingMap(((0, 0),), ((1, 1),)), "not a permutation"),
        (lambda: SignedSettingMap(((0, 1),), ((1, 2),)), "signs must be"),
        (
            lambda: apply_signed_setting_map(CHSH, SignedSettingMap(((1, 0),), ((1, 1),))),
            "map shape",
        ),
    ],
    ids=[
        "flat-index-arity", "flat-index-range", "product-factor-lengths", "coefficient-count",
        "non-permutation-order", "map-party-count", "map-non-permutation", "map-signs",
        "map-shape",
    ],
)
def test_malformed_arguments_are_refused(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


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


# ---------------------------------------------------------------------------
# the integer operations against per-coefficient Fraction oracles
# ---------------------------------------------------------------------------


def combine_oracle(terms):
    columns = zip(*(expr.coeffs for _, expr in terms))
    return [sum(Fraction(w) * c for (w, _), c in zip(terms, column)) for column in columns]


def product_oracle(scenario, factors, scale):
    return [
        Fraction(scale) * math.prod(Fraction(factors[p][j]) for p, j in enumerate(idx))
        for idx in scenario.index_tuples()
    ]


def permute_oracle(expr, order):
    scenario = expr.scenario
    new = Scenario(tuple(scenario.settings[p] for p in order))
    coeffs = [Fraction(0)] * new.dimension
    for idx, c in zip(scenario.index_tuples(), expr.coeffs):
        coeffs[new.flat_index(tuple(idx[p] for p in order))] = c
    return BellExpression(new, coeffs)


def signed_map_oracle(expr, mapping):
    scenario = expr.scenario
    coeffs = [Fraction(0)] * scenario.dimension
    for idx, c in zip(scenario.index_tuples(), expr.coeffs):
        sign = math.prod(mapping.signs[p][j] for p, j in enumerate(idx))
        new_idx = [mapping.permutations[p][j] for p, j in enumerate(idx)]
        coeffs[scenario.flat_index(new_idx)] = sign * c
    return BellExpression(scenario, coeffs)


# small rationals, numerators beyond int64 (the object-array fallback), ints,
# and 'p/q' strings with a common factor left in
rational_st = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
    st.integers(-5, 5),
    st.builds(
        lambda f, k: f"{f.numerator * k}/{f.denominator * k}",
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        st.integers(2, 6),
    ),
)


def test_the_stored_form_is_reduced():
    half = BellExpression(TWO, ["2/4", 0, 0, "-6/4"])
    assert (half.numerators, half.denominator) == ((1, 0, 0, -3), 2)
    assert half == BellExpression(TWO, [Fraction(1, 2), 0, 0, Fraction(-3, 2)])
    assert hash(half) == hash(BellExpression(TWO, ["1/2", 0, 0, "-3/2"]))
    assert (half + half).denominator == 1 and (half - half).numerators == (0,) * 4
    assert BellExpression.zero(TWO).denominator == 1
    assert pickle.loads(pickle.dumps(half)) == half == copy.deepcopy(half)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_operations_match_the_fraction_oracles(data):
    settings_ = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    scenario = Scenario(tuple(settings_))
    dim = scenario.dimension
    raws = [data.draw(st.lists(rational_st, min_size=dim, max_size=dim)) for _ in range(3)]
    exprs = [BellExpression(scenario, raw) for raw in raws]
    for raw, e in zip(raws, exprs):
        assert e.coeffs == tuple(Fraction(r) for r in raw)
        assert e.denominator > 0 and math.gcd(e.denominator, *e.numerators) == 1
    weights = data.draw(st.lists(rational_st, min_size=1, max_size=3))
    terms = list(zip(weights, exprs))
    a, b = exprs[:2]
    factors = [data.draw(st.lists(rational_st, min_size=m, max_size=m)) for m in settings_]
    scale = data.draw(rational_st)
    order = data.draw(st.permutations(range(len(settings_))))
    mapping = SignedSettingMap(
        [data.draw(st.permutations(range(m))) for m in settings_],
        [data.draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m)) for m in settings_],
    )
    cases = [
        (linear_combine(terms), BellExpression(scenario, combine_oracle(terms))),
        (a + b, BellExpression(scenario, combine_oracle([(1, a), (1, b)]))),
        (a - b, BellExpression(scenario, combine_oracle([(1, a), (-1, b)]))),
        (-a, BellExpression(scenario, combine_oracle([(-1, a)]))),
        (a.scaled(scale), BellExpression(scenario, combine_oracle([(scale, a)]))),
        (
            BellExpression.from_product(scenario, factors, scale),
            BellExpression(scenario, product_oracle(scenario, factors, scale)),
        ),
        (permute_parties(a, order), permute_oracle(a, order)),
        (apply_signed_setting_map(a, mapping), signed_map_oracle(a, mapping)),
    ]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        assert (got.scenario, got.coeffs) == (want.scenario, want.coeffs)
    strategy = DeterministicStrategy(
        [data.draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m)) for m in settings_]
    )
    vertex = strategy.admissible_vector(scenario)
    assert evaluate(a, strategy) == sum(c * v for c, v in zip(a.coeffs, vertex))
