"""Lifting constructions: two- and three-setting extensions and built-ins."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from bellift import (
    BellExpression,
    DeterministicStrategy,
    EnumerationCapExceeded,
    Scenario,
    compatibility_holds,
    enumerate_facets,
    evaluate,
    four_party_19,
    lift2,
    lift3,
    linear_combine,
    lr_max,
    mabk,
    permute_parties,
    symmetry_images,
    tightness,
    wbz333,
)
from oracles import enumerate_strategies

ONE = Scenario((2,))
DELTA0 = BellExpression.from_terms(ONE, [((0,), 1)])
DELTA1 = BellExpression.from_terms(ONE, [((1,), 1)])


def test_lift2_reproduces_chsh():
    out, diag = lift2(DELTA0, DELTA1)
    assert out == mabk(2)
    assert diag.inputs_tight == (True, True)
    assert diag.output_tight


def test_lift2_block_structure():
    """New-party setting 0 carries (f+g)/2 and setting 1 carries (f-g)/2."""
    f = BellExpression.from_terms(ONE, [((0,), "1/3"), ((1,), 1)])
    g = BellExpression.from_terms(ONE, [((0,), -1)])
    out, _ = lift2(f, g, diagnose=False)
    assert out.scenario == Scenario((2, 2))
    half = Fraction(1, 2)
    for (j,), c in ((f + g).scaled(half)).terms():
        assert out.coeff((0, j)) == c
    for (j,), c in ((f - g).scaled(half)).terms():
        assert out.coeff((1, j)) == c


def test_lift2_requires_shared_scenario():
    with pytest.raises(ValueError):
        lift2(DELTA0, mabk(2))


def test_lift2_theorem_sample_both_directions():
    facets = enumerate_facets(Scenario((2, 2)))
    f = next(e for e in facets if len(list(e.terms())) == 4)  # a CHSH variant
    g = next(e for e in facets if len(list(e.terms())) == 1)  # a single correlation
    assert tightness(lift2(f, g, diagnose=False)[0]).is_tight
    loose = BellExpression.from_terms(
        Scenario((2, 2)), [((0, 0), "1/2"), ((0, 1), "1/2")]
    )
    _, diag = lift2(f, loose)
    assert diag.inputs_tight == (True, False)
    assert not diag.output_tight
    # a valid expression that saturates nowhere is not tight either
    weak = f.scaled("1/2")
    assert not tightness(lift2(weak, g, diagnose=False)[0]).is_tight


def test_lift2_report_follows_from_its_inputs():
    """On (2, 2) facets and the valid, non-tight midpoints of facet pairs,
    lift2's report is fixed by its inputs' reports: the local bound is the
    larger one, and the saturating counts and ranks add up."""
    facets = enumerate_facets(Scenario((2, 2)))
    pool = [*facets, *((f + g).scaled("1/2") for f, g in combinations(facets, 2))]
    reports = [tightness(e) for e in pool]
    assert [r.is_valid and not r.is_tight for r in reports] == [False] * 16 + [True] * 120
    rng = random.Random(0)
    for _ in range(1500):
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        rep = tightness(lift2(pool[i], pool[j], diagnose=False)[0])
        a, b = reports[i], reports[j]
        assert rep.lr_max == max(a.lr_max, b.lr_max)
        assert rep.saturating_count == a.saturating_count + b.saturating_count
        assert rep.rank == a.rank + b.rank


def _random_inputs(count, seed, big=0):
    """``count`` random rational expressions on the (2, 3) scenario.  A nonzero
    ``big`` is added to the first coefficient and the second becomes 1/3, so
    2^70 puts the lift's integer product past int64."""
    rng = random.Random(seed)
    inputs = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        if big:
            coeffs[:2] = [big + coeffs[0], Fraction(1, 3)]
        inputs.append(BellExpression(Scenario((2, 3)), coeffs))
    return tuple(inputs)


def _flagship_triple():
    _, b2, b3 = symmetry_images()
    return wbz333(), b2, b3


@pytest.mark.parametrize(
    "make_inputs",
    [
        pytest.param(lambda: (DELTA0, DELTA1), id="lift2-deltas"),
        pytest.param(lambda: _random_inputs(2, seed=2), id="lift2-random"),
        pytest.param(_flagship_triple, id="lift3-wbz333"),
        pytest.param(lambda: _random_inputs(3, seed=3), id="lift3-random"),
        pytest.param(lambda: _random_inputs(2, seed=4, big=2**70), id="lift2-big"),
        pytest.param(lambda: _random_inputs(3, seed=5, big=2**70), id="lift3-big"),
    ],
)
def test_restriction_recovers_inputs(make_inputs):
    """Freezing the new party's outcomes restores the inputs: I+ at (+1,+1) and
    I- at (+1,-1) for lift2; I0, I2, I3 and the implied I1 for lift3."""
    inputs = make_inputs()
    if len(inputs) == 2:
        lifted, _ = lift2(*inputs, diagnose=False)
        recovered = dict(zip([(1, 1), (1, -1)], inputs))
    else:
        i0, i2, i3 = inputs
        lifted, _ = lift3(i0, i2, i3, diagnose=False)
        i1 = linear_combine([(1, i2), (1, i3), (-1, i0)])
        recovered = {(1, 1, 1): i0, (1, -1, 1): i2, (1, 1, -1): i3, (1, -1, -1): i1}
    strategies = list(enumerate_strategies(inputs[0].scenario))[:40]
    for new_outcomes, target in recovered.items():
        for s in strategies:
            combined = DeterministicStrategy((new_outcomes, *s.outcomes))
            assert evaluate(lifted, combined) == evaluate(target, s)


def test_lift3_diagnostics_on_the_flagship_triple():
    b, _, b2, b3 = (wbz333(), *symmetry_images())
    out, diag = lift3(b, b2, b3)
    assert diag.compatibility_valid
    assert diag.compatibility_witness is None
    assert diag.inputs_tight == (True, True, True)
    assert diag.output_tight
    assert sum(1 for _ in out.terms()) == 46


def test_lift3_zero_blocks_degenerate():
    zero = BellExpression.zero(ONE)
    out, diag = lift3(zero, zero, zero, diagnose=False)
    assert out == BellExpression.zero(Scenario((3, 2)))
    assert diag.compatibility_valid  # 0 <= 1 everywhere


def test_compatibility_failure_produces_witness():
    two = Scenario((2, 2))
    e00 = BellExpression.from_terms(two, [((0, 0), 1)])
    e01 = BellExpression.from_terms(two, [((0, 1), 1)])
    e10 = BellExpression.from_terms(two, [((1, 0), 1)])
    holds, witness = compatibility_holds(e00, e01, e10)
    assert not holds
    implied = linear_combine([(1, e01), (1, e10), (-1, e00)])
    assert evaluate(implied, witness) == lr_max(implied) == 3


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

QUARTER = Fraction(1, 4)
WBZ_EXPECTED = {
    # first product: setting 0 for the first party
    (0, 1, 1): QUARTER, (0, 1, 2): -QUARTER, (0, 2, 1): QUARTER, (0, 2, 2): -QUARTER,
    # second: setting 0 for the second party
    (1, 0, 1): QUARTER, (1, 0, 2): QUARTER, (2, 0, 1): -QUARTER, (2, 0, 2): -QUARTER,
    # third: setting 0 for the third party
    (1, 1, 0): QUARTER, (1, 2, 0): -QUARTER, (2, 1, 0): QUARTER, (2, 2, 0): -QUARTER,
    # the two eighth-weight products overlap on the 2x2x2 corner block
    (1, 1, 1): QUARTER, (1, 2, 2): QUARTER, (2, 1, 2): QUARTER, (2, 2, 1): QUARTER,
}


def test_lift3_of_facets_is_a_facet_iff_compatible():
    """For facets I0, I2, I3 the compatibility condition is also necessary:
    restricted to new-party outcomes (1, -1, -1) the lift is I1 itself."""
    facets = enumerate_facets(Scenario((3, 3)))
    rng = random.Random(0)
    seen = set()
    for _ in range(1000):
        out, diag = lift3(*rng.choices(facets, k=3), diagnose=False)
        assert tightness(out).is_tight == diag.compatibility_valid
        seen.add(diag.compatibility_valid)
    assert seen == {True, False}


def test_wbz333_coefficients_from_independent_expansion():
    """Expand the five defining products with plain loops and compare."""
    b = wbz333()
    assert b.scenario == Scenario((3, 3, 3))
    eighth = Fraction(1, 8)
    acc: dict[tuple[int, int, int], Fraction] = {}

    def add(weight, a_parts, b_parts, c_parts):
        for (i, wa), (j, wb), (k, wc) in product(a_parts, b_parts, c_parts):
            idx = (i, j, k)
            acc[idx] = acc.get(idx, Fraction(0)) + weight * wa * wb * wc

    add(QUARTER, [(0, 1)], [(1, 1), (2, 1)], [(1, 1), (2, -1)])
    add(QUARTER, [(1, 1), (2, -1)], [(0, 1)], [(1, 1), (2, 1)])
    add(QUARTER, [(1, 1), (2, 1)], [(1, 1), (2, -1)], [(0, 1)])
    add(eighth, [(1, 1), (2, 1)], [(1, 1), (2, 1)], [(1, 1), (2, 1)])
    add(eighth, [(1, 1), (2, -1)], [(1, 1), (2, -1)], [(1, 1), (2, -1)])
    acc = {k: v for k, v in acc.items() if v}

    assert dict(b.terms()) == acc == WBZ_EXPECTED


def test_symmetry_images_relabel_settings_on_every_party():
    b = wbz333()
    b1, b2, b3 = symmetry_images()
    for perm, image in (((1, 0, 2), b1), ((2, 1, 0), b2), ((2, 0, 1), b3)):
        for (i, j, k), c in b.terms():
            assert image.coeff((perm[i], perm[j], perm[k])) == c
    assert b + b1 == b2 + b3


def test_symmetry_images_are_facets():
    for img in symmetry_images():
        rep = tightness(img)
        assert rep.lr_max == 1 and rep.rank == 27 and rep.is_tight


def test_four_party_19_matches_lift_up_to_party_order():
    b, _, b2, b3 = (wbz333(), *symmetry_images())
    lifted, _ = lift3(b, b2, b3, diagnose=False)
    assert four_party_19() == permute_parties(lifted, (1, 2, 3, 0))


def test_four_party_19_shape():
    fp = four_party_19()
    assert fp.scenario == Scenario((3, 3, 3, 3))
    assert sum(1 for _ in fp.terms()) == 46
    denominators = {c.denominator for _, c in fp.terms()}
    assert denominators <= {4, 8}


def _four_party_spelled_out():
    """The four-party inequality transcribed term by term from its displayed
    form, prefactor 1/8: per-party setting weights, parties A, B, C, D."""
    a0, a1, a2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    terms = [
        # A0 block
        (a0, (-1, 0, 1), (1, 1, 0), (0, 1, -1)),
        (a0, (-1, 1, 0), (1, 0, 1), (1, -1, 0)),
        (a0, (0, 1, 1), (0, 1, -1), (0, 1, 1)),
        (a0, (1, 1, 0), (1, 1, 0), (1, 0, -1)),
        (a0, (1, -1, 0), (1, 0, 1), (1, 0, -1)),
        # A1 block
        (a1, (-1, 0, -1), (1, 0, -1), (0, 1, 1)),
        (a1, (0, 1, -1), (1, 1, 0), (0, 1, -1)),
        (a1, (1, -1, 0), (0, 1, 1), (0, 1, -1)),
        (a1, (1, 1, 0), (1, 0, -1), (1, 0, 1)),
        (a1, (1, 1, 0), (0, 1, 1), (1, 0, 1)),
        # A2 block
        (a2, (1, 1, 0), (1, -1, 0), (0, 1, -1)),
        (a2, (1, 0, -1), (1, -1, 0), (0, 1, 1)),
        (a2, (-1, 1, 0), (1, 0, 1), (0, 1, 1)),
    ]
    scenario = Scenario((3, 3, 3, 3))
    return linear_combine(
        [(1, BellExpression.from_product(scenario, t, Fraction(1, 8))) for t in terms]
    )


def test_four_party_comparison_is_clean():
    spelled = _four_party_spelled_out()
    assert four_party_19() == spelled
    assert sum(1 for _ in spelled.terms()) == 46


# ---------------------------------------------------------------------------
# the recursive two-setting family
# ---------------------------------------------------------------------------


def test_mabk_base_cases():
    assert mabk(1) == DELTA0
    assert mabk(2) == BellExpression.from_terms(
        Scenario((2, 2)),
        [((0, 0), "1/2"), ((0, 1), "1/2"), ((1, 0), "1/2"), ((1, 1), "-1/2")],
    )


def test_mabk_is_capped_before_allocation():
    with pytest.raises(EnumerationCapExceeded, match=r"mabk\(25\)"):
        mabk(25)


def test_mabk_three_party_form():
    m3 = mabk(3)
    assert m3.scenario == Scenario((2, 2, 2))
    terms = dict(m3.terms())
    assert len(terms) == 4
    assert sorted(terms.values()) == [Fraction(-1, 2)] + [Fraction(1, 2)] * 3


def test_mabk_is_tight():
    for n, rank in ((2, 4), (3, 8)):
        rep = tightness(mabk(n))
        assert rep.lr_max == 1 and rep.rank == rank and rep.is_tight


def test_mabk_rejects_nonpositive():
    with pytest.raises(ValueError):
        mabk(0)
