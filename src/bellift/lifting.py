"""Build larger tight Bell inequalities out of smaller ones.

Both lifts prepend a new party 0 whose setting-j block is a fixed weighted
sum of the inputs, and one builder serves both weight tables:

* two-setting, over ``(I+, I-)``: rows (1/2, 1/2) and (1/2, -1/2).  The
  output is a facet exactly when both inputs are facets, and the
  diagnostics certify both directions by brute force;
* three-setting, over ``(I0, I2, I3)``: rows (0, 1/2, 1/2), (1/2, -1/2, 0)
  and (1/2, 0, -1/2).  Tight inputs are not enough: the implied fourth
  expression ``I1 = I2 + I3 - I0`` must also be valid (local-realistic
  maximum <= 1).  That compatibility condition is checked exactly, and a
  violating strategy is returned as a witness when it fails.

Restricting a lift to the new party's strategies (+1,+1) and (+1,-1)
recovers I+ and I-; (+1,+1,+1), (+1,-1,+1), (+1,+1,-1) and (+1,-1,-1)
recover I0, I2, I3 and I1.

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
from typing import Callable

from .expressions import (
    EXACT_COEFFICIENT_CAP,
    BellExpression,
    DeterministicStrategy,
    Scenario,
    SignedSettingMap,
    _combine,
    _exact,
    _refuse_over_cap,
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


# Row j weighs the inputs into block j: (I+, I-) for lift2, (I0, I2, I3) for lift3.
# The blocks, flat one after another, are the C-order coefficients of the output,
# so one integer matrix product over a common denominator builds all of them.
_HALF, _ZERO = Fraction(1, 2), Fraction(0)
_LIFT2 = ((_HALF, _HALF), (_HALF, -_HALF))
_LIFT3 = ((_ZERO, _HALF, _HALF), (_HALF, -_HALF, _ZERO), (_HALF, _ZERO, -_HALF))


def _lift(
    weights: tuple[tuple[Fraction, ...], ...],
    inputs: tuple[BellExpression, ...],
    diagnose: bool,
    compatibility: Callable | None = None,
) -> tuple[BellExpression, LiftDiagnostics]:
    """Prepend a party whose block j is sum_k weights[j][k] * inputs[k].

    ``compatibility(*inputs)``, if given, runs whether or not ``diagnose`` is
    set, and only once the output is built, so the output's size cap is met first.
    """
    scenario = Scenario((len(weights),) + inputs[0].scenario.settings)
    out = _exact(scenario, *_combine(weights, inputs))
    valid, witness = compatibility(*inputs) if compatibility else (None, None)
    inputs_tight = output_tight = None
    if diagnose:
        inputs_tight = tuple(tightness(e).is_tight for e in inputs)
        output_tight = tightness(out).is_tight
    return out, LiftDiagnostics(inputs_tight, output_tight, valid, witness)


def lift2(
    i_plus: BellExpression,
    i_minus: BellExpression,
    diagnose: bool = True,
) -> tuple[BellExpression, LiftDiagnostics]:
    """Two-setting lift; tight output iff both inputs are tight."""
    return _lift(_LIFT2, (i_plus, i_minus), diagnose)


def compatibility_holds(
    i0: BellExpression,
    i2: BellExpression,
    i3: BellExpression,
) -> tuple[bool, DeterministicStrategy | None]:
    """Check the implied expression I1 = I2 + I3 - I0 is valid.

    Returns ``(True, None)`` when its local-realistic maximum is <= 1,
    otherwise ``(False, witness)`` with a maximizing strategy.  For facets
    I0, I2, I3 the condition characterizes the lift: it is a facet iff I1 is
    valid, since the lift restricted to the new party's outcomes (1, -1, -1)
    is I1, so an invalid I1 makes the lift invalid.
    """
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
    return _lift(_LIFT3, (i0, i2, i3), diagnose, compatibility_holds)


# ---------------------------------------------------------------------------
# MABK family via the two-setting lift
# ---------------------------------------------------------------------------


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
    message = "mabk({exponent}) has 2^{exponent} coefficients"
    _refuse_over_cap(2, EXACT_COEFFICIENT_CAP, message, exponent=n)
    expr = BellExpression(Scenario((2,)), (Fraction(1), Fraction(0)))
    for _ in range(n - 1):
        swap = SignedSettingMap.uniform(expr.scenario, (1, 0), (1, 1))
        expr, _ = lift2(expr, apply_signed_setting_map(expr, swap), diagnose=False)
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
    the spelled-out four-party form coefficient for coefficient.
    """
    b = wbz333()
    b1, b2, b3 = (
        apply_signed_setting_map(b, SignedSettingMap.uniform(b.scenario, perm, (1, 1, 1)))
        for perm in ((1, 0, 2), (2, 1, 0), (2, 0, 1))
    )
    return b1, b2, b3


@lru_cache(maxsize=1)
def four_party_19() -> BellExpression:
    """Four-party, 19-term tight inequality from the three-setting lift.

    The lift of (wbz333, B2, B3) prepends the new three-setting party; the
    result is relabelled so that the new party sits last (parties A, B, C, D
    with D the new one, D's setting j playing the role of a_{j+1}).
    """
    _, b2, b3 = symmetry_images()
    lifted, _ = lift3(wbz333(), b2, b3, diagnose=False)
    return permute_parties(lifted, (1, 2, 3, 0))
