"""Build larger tight Bell inequalities out of smaller ones.

Two constructions are provided, both of which prepend a new party as party 0:

* a two-setting lift: from expressions ``I+`` and ``I-`` build
  ``a_0 (I+ + I-)/2 + a_1 (I+ - I-)/2``; the output is a facet exactly when
  both inputs are facets, and the diagnostics certify both directions by
  brute force;
* a three-setting lift: from ``I0, I2, I3`` build
  ``a_0 (I2 + I3)/2 + a_1 (I0 - I2)/2 + a_2 (I0 - I3)/2``; here tightness of
  the inputs is not enough -- the implied fourth expression
  ``I1 = I2 + I3 - I0`` must also be valid (local-realistic maximum <= 1).
  That compatibility condition is checked exactly and a violating strategy is
  returned as a witness when it fails.

Restricting the lifted expression to the new party's strategies (+1,+1,+1),
(+1,-1,+1), (+1,+1,-1) and (+1,-1,-1) recovers I0, I2, I3 and I1.

The module also ships concrete inputs and outputs of these constructions:
the MABK family from the two-setting lift, a known tight three-party
three-setting inequality (``wbz333``), its three signed-relabelling images,
and the four-party nineteen-term inequality obtained by three-setting
lifting of those images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .expressions import (
    EXACT_COEFFICIENT_CAP,
    BellExpression,
    DeterministicStrategy,
    EnumerationCapExceeded,
    Scenario,
    SignedSettingMap,
    _require_same_scenario,
    apply_signed_setting_map,
    linear_combine,
    permute_parties,
)
from .polytope import lr_max_with_witness, tightness


@dataclass(frozen=True)
class LiftDiagnostics:
    """What the lift verified, all by exact brute force.

    ``compatibility_*`` fields are None for the two-setting lift, which has
    no compatibility condition.  ``inputs_tight``/``output_tight`` are None
    when diagnosis was skipped.
    """

    inputs_tight: tuple[bool, ...] | None
    output_tight: bool | None
    compatibility_valid: bool | None = None
    compatibility_witness: DeterministicStrategy | None = None


def _prepend_party(
    blocks: tuple[BellExpression, ...],
) -> BellExpression:
    """New party 0 with len(blocks) settings; block j multiplies a_j."""
    scenario = blocks[0].scenario
    out_scenario = Scenario((len(blocks),) + scenario.settings)
    coeffs: tuple[Fraction, ...] = ()
    for block in blocks:
        coeffs = coeffs + block.coeffs
    return BellExpression(out_scenario, coeffs)


def lift2(
    i_plus: BellExpression,
    i_minus: BellExpression,
    diagnose: bool = True,
) -> tuple[BellExpression, LiftDiagnostics]:
    """Two-setting lift; tight output iff both inputs are tight."""
    _require_same_scenario(i_plus, i_minus)
    half = Fraction(1, 2)
    out = _prepend_party(
        (
            linear_combine([(half, i_plus), (half, i_minus)]),
            linear_combine([(half, i_plus), (-half, i_minus)]),
        )
    )
    if not diagnose:
        return out, LiftDiagnostics(inputs_tight=None, output_tight=None)
    diag = LiftDiagnostics(
        inputs_tight=(tightness(i_plus).is_tight, tightness(i_minus).is_tight),
        output_tight=tightness(out).is_tight,
    )
    return out, diag


def compatibility_holds(
    i0: BellExpression,
    i2: BellExpression,
    i3: BellExpression,
) -> tuple[bool, DeterministicStrategy | None]:
    """Check the implied expression I1 = I2 + I3 - I0 is valid.

    Returns ``(True, None)`` when its local-realistic maximum is <= 1,
    otherwise ``(False, witness)`` with a maximizing strategy.  This is a
    sufficient condition for the three-setting lift to be tight, not a
    characterization.
    """
    _require_same_scenario(i0, i2, i3)
    i1 = linear_combine([(1, i2), (1, i3), (-1, i0)])
    bound, witness = lr_max_with_witness(i1)
    if bound <= 1:
        return True, None
    return False, witness


def lift3(
    i0: BellExpression,
    i2: BellExpression,
    i3: BellExpression,
    diagnose: bool = True,
) -> tuple[BellExpression, LiftDiagnostics]:
    """Three-setting lift.  Compatibility is always checked exactly.

    The lifted expression is returned even when compatibility fails; the
    diagnostics then carry a violating witness strategy.
    """
    _require_same_scenario(i0, i2, i3)
    half = Fraction(1, 2)
    out = _prepend_party(
        (
            linear_combine([(half, i2), (half, i3)]),
            linear_combine([(half, i0), (-half, i2)]),
            linear_combine([(half, i0), (-half, i3)]),
        )
    )
    compatible, witness = compatibility_holds(i0, i2, i3)
    if not diagnose:
        return out, LiftDiagnostics(
            inputs_tight=None,
            output_tight=None,
            compatibility_valid=compatible,
            compatibility_witness=witness,
        )
    diag = LiftDiagnostics(
        inputs_tight=(
            tightness(i0).is_tight,
            tightness(i2).is_tight,
            tightness(i3).is_tight,
        ),
        output_tight=tightness(out).is_tight,
        compatibility_valid=compatible,
        compatibility_witness=witness,
    )
    return out, diag


# ---------------------------------------------------------------------------
# MABK family via the two-setting lift
# ---------------------------------------------------------------------------


def _swap_first_two_settings(expr: BellExpression) -> BellExpression:
    scenario = expr.scenario
    perms = []
    signs = []
    for m in scenario.settings:
        perm = list(range(m))
        perm[0], perm[1] = perm[1], perm[0]
        perms.append(tuple(perm))
        signs.append((1,) * m)
    return apply_signed_setting_map(expr, SignedSettingMap(tuple(perms), tuple(signs)))


@lru_cache(maxsize=32)
def mabk(n: int) -> BellExpression:
    """n-party MABK expression, normalized to local-realistic maximum 1.

    Built recursively with the two-setting lift: start from the one-party
    single-setting-0 expression, and at each step lift the previous
    expression together with its copy with settings 0 and 1 swapped on every
    party.  n = 2 gives the CHSH tensor (1/2, 1/2, 1/2, -1/2).
    """
    if n < 1:
        raise ValueError("mabk needs at least one party")
    if n >= EXACT_COEFFICIENT_CAP.bit_length():  # 2^n > cap, without building 2^n
        raise EnumerationCapExceeded(
            f"mabk({n}) has 2^{n} coefficients, over the cap of {EXACT_COEFFICIENT_CAP}"
        )
    expr = BellExpression(Scenario((2,)), (Fraction(1), Fraction(0)))
    for _ in range(n - 1):
        swapped = _swap_first_two_settings(expr)
        expr, _ = lift2(expr, swapped, diagnose=False)
    return expr


# ---------------------------------------------------------------------------
# Three-party, three-setting seed inequality and its four-party lift
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def wbz333() -> BellExpression:
    """Tight three-party inequality with three settings per party.

    In terms of per-party observables x_0, x_1, x_2 (x standing for each of
    the three parties A, B, C) the expression is

        1/4 * [ A0 (B1+B2) (C1-C2) + (A1-A2) B0 (C1+C2)
                + (A1+A2) (B1-B2) C0 ]
        + 1/8 * [ (A1+A2)(B1+B2)(C1+C2) + (A1-A2)(B1-B2)(C1-C2) ].
    """
    scenario = Scenario((3, 3, 3))
    e0 = (1, 0, 0)
    plus = (0, 1, 1)
    minus = (0, 1, -1)
    quarter = Fraction(1, 4)
    eighth = Fraction(1, 8)
    parts = [
        BellExpression.from_product(scenario, (e0, plus, minus), quarter),
        BellExpression.from_product(scenario, (minus, e0, plus), quarter),
        BellExpression.from_product(scenario, (plus, minus, e0), quarter),
        BellExpression.from_product(scenario, (plus, plus, plus), eighth),
        BellExpression.from_product(scenario, (minus, minus, minus), eighth),
    ]
    return linear_combine([(1, part) for part in parts])


@lru_cache(maxsize=1)
def symmetry_images() -> tuple[BellExpression, BellExpression, BellExpression]:
    """Three setting relabellings of wbz333, applied uniformly to every party.

    B1: swap settings 0 and 1.
    B2: swap settings 0 and 2.
    B3: cycle the settings, substituting x_0 -> x_2, x_1 -> x_0, x_2 -> x_1
        (the composition of the two swaps above).

    All three are again tight, and B + B1 = B2 + B3 exactly.  The identity
    pins B3 down uniquely among all uniform signed setting maps of wbz333,
    and it is also the choice under which the three-setting lift reproduces
    the spelled-out four-party form coefficient for coefficient (see
    ``four_party_comparison``).
    """
    b = wbz333()
    scenario = b.scenario
    b1 = apply_signed_setting_map(
        b, SignedSettingMap.uniform(scenario, (1, 0, 2), (1, 1, 1))
    )
    b2 = apply_signed_setting_map(
        b, SignedSettingMap.uniform(scenario, (2, 1, 0), (1, 1, 1))
    )
    b3 = apply_signed_setting_map(
        b, SignedSettingMap.uniform(scenario, (2, 0, 1), (1, 1, 1))
    )
    return b1, b2, b3


@lru_cache(maxsize=1)
def four_party_19() -> BellExpression:
    """Four-party, 19-term tight inequality from the three-setting lift.

    The lift of (wbz333, B2, B3) prepends the new three-setting party; the
    result is relabelled so that the new party sits last (parties A, B, C, D
    with D the new one, D's setting j playing the role of a_{j+1}).
    """
    b = wbz333()
    b1, b2, b3 = symmetry_images()
    del b1
    lifted, _ = lift3(b, b2, b3, diagnose=False)
    return permute_parties(lifted, (1, 2, 3, 0))


def _four_party_spelled_out() -> BellExpression:
    """The same inequality spelled out term by term with prefactor 1/8.

    Kept as an independent transcription of the long displayed form so the
    construction can be cross-checked; see ``four_party_comparison``.
    """
    scenario = Scenario((3, 3, 3, 3))
    eighth = Fraction(1, 8)

    def vec(*weights: int) -> tuple[int, int, int]:
        return weights  # weight per setting 0,1,2

    a0, a1, a2 = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
    terms = [
        # A0 block
        (a0, vec(-1, 0, 1), vec(1, 1, 0), vec(0, 1, -1)),
        (a0, vec(-1, 1, 0), vec(1, 0, 1), vec(1, -1, 0)),
        (a0, vec(0, 1, 1), vec(0, 1, -1), vec(0, 1, 1)),
        (a0, vec(1, 1, 0), vec(1, 1, 0), vec(1, 0, -1)),
        (a0, vec(1, -1, 0), vec(1, 0, 1), vec(1, 0, -1)),
        # A1 block
        (a1, vec(-1, 0, -1), vec(1, 0, -1), vec(0, 1, 1)),
        (a1, vec(0, 1, -1), vec(1, 1, 0), vec(0, 1, -1)),
        (a1, vec(1, -1, 0), vec(0, 1, 1), vec(0, 1, -1)),
        (a1, vec(1, 1, 0), vec(1, 0, -1), vec(1, 0, 1)),
        (a1, vec(1, 1, 0), vec(0, 1, 1), vec(1, 0, 1)),
        # A2 block
        (a2, vec(1, 1, 0), vec(1, -1, 0), vec(0, 1, -1)),
        (a2, vec(1, 0, -1), vec(1, -1, 0), vec(0, 1, 1)),
        (a2, vec(-1, 1, 0), vec(1, 0, 1), vec(0, 1, 1)),
    ]
    parts = [
        BellExpression.from_product(scenario, factors, eighth) for factors in terms
    ]
    return linear_combine([(1, part) for part in parts])


def four_party_comparison() -> dict:
    """Term-by-term comparison of the lift output with the spelled-out form.

    Returns a dict with the number of nonzero terms of each, and a list of
    ``(setting tuple, lifted coefficient, spelled-out coefficient)`` for every
    index where the two disagree (empty when the transcription matches).
    Discrepancies are reported, never silently patched.
    """
    lifted = four_party_19()
    spelled = _four_party_spelled_out()
    mismatches = []
    for idx in lifted.scenario.index_tuples():
        a, b = lifted.coeff(idx), spelled.coeff(idx)
        if a != b:
            mismatches.append((idx, a, b))
    return {
        "lifted_terms": sum(1 for _ in lifted.terms()),
        "spelled_out_terms": sum(1 for _ in spelled.terms()),
        "mismatches": mismatches,
    }
