"""Core types for full-correlation Bell expressions with exact coefficients.

Data conventions used throughout the package:

* A *scenario* is a tuple of per-party setting counts ``(m_1, ..., m_n)``.
  Parties and settings are zero-indexed everywhere.
* A *Bell expression* is a real linear form on correlation space,
  ``I = sum_idx c[idx] * E[idx]``, where ``idx`` runs over joint setting
  tuples and ``E[idx]`` is the full n-party correlator.
* Every input rule is defined here once.  An integer field (a setting count
  or index, outcome, sign, party order or qubit count) is read by ``_index``,
  which refuses a bool, a float and a string; a setting tuple, its arity and
  range too, by ``Scenario.flat_index`` alone.  A coefficient is read by
  ``_as_fraction``: an int, a Fraction or rational text ("1/2", "1e-3"), but
  never a float or a bool, so that saturation and bound checks can use exact
  equality; a decimal exponent past Python's int digit limit is refused.
* Coefficients are stored as gcd-reduced integer numerators over one positive
  denominator, flat in C (row-major) order over the setting tuples, and only
  this module builds them.  ``Scenario.flat_index`` maps a tuple to its position.
* A *deterministic strategy* assigns one outcome in {-1, +1} per party per
  setting.  Its *admissible vector* is the outer product of the per-party
  outcome vectors, i.e. ``v[idx] = prod_p outcomes[p][idx_p]``; these are
  the vertices of the local-realistic correlation polytope.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

RationalLike = Fraction | int | str

ENUMERATION_CAP = 2**24
# Exact coefficients are Python ints, built one object at a time, so
# expressions get a far smaller cap than the float arrays of the quantum layer.
EXACT_COEFFICIENT_CAP = 2**16
_INT64_SAFE = 2**62  # int64 arrays are exact while every entry and sum stays below


class EnumerationCapExceeded(Exception):
    """Raised when an enumeration or an exact tensor would exceed a configured cap."""


def _refuse_over_cap(
    size: int, cap: int, message: str, *, exponent: int = 1, **fields: object
) -> None:
    """Raise ``EnumerationCapExceeded`` when ``size ** exponent`` exceeds ``cap``.

    Every cap refusal of the package comes through here.  A power is compared
    by its exponent: any base of 2 or more is over the cap once the exponent
    reaches ``cap.bit_length()``, so no integer much larger than the cap is
    built.  Only a refusal formats ``message`` (with ``size``, ``exponent``,
    ``cap`` and ``fields``) and appends ", over the cap of <cap>" to it.
    """
    if (size if exponent == 1 else size ** min(exponent, cap.bit_length())) > cap:
        text = message.format(size=size, exponent=exponent, cap=cap, **fields)
        raise EnumerationCapExceeded(f"{text}, over the cap of {cap}")


def _require_exact_size(scenario: Scenario) -> None:
    """Refuse, before any coefficient is built, an expression over the cap."""
    message = "an expression on scenario {s} has {size} exact coefficients"
    _refuse_over_cap(scenario.dimension, EXACT_COEFFICIENT_CAP, message, s=scenario)


def _index(value: object) -> int:
    """An integer field's value by its ``__index__``; a bool, an int subclass, is refused."""
    if type(value) is int:  # the common case, returned at once
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got the bool {value!r}")
    return operator.index(value)


# A decimal's mantissa (no '/', no trailing space) and exponent, as Fraction spells them;
# 10**exponent past Python's digit limit on int literals is refused before it is built
_DECIMAL_EXPONENT = re.compile(r"([^/]*[^/\s])e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE)


def _as_fraction(value: RationalLike) -> Fraction:
    """The one coefficient reader: an exact rational, never a float or a bool."""
    if type(value) is Fraction:  # immutable, so it is shared rather than copied
        return value
    if isinstance(value, (float, bool, np.floating, np.bool_)):
        kind = type(value).__name__
        raise TypeError(f"coefficient {value!r} is a {kind}; use an exact rational like 3 or '1/2'")
    try:
        if isinstance(value, str) and (decimal := _DECIMAL_EXPONENT.fullmatch(value)):
            Fraction(decimal[1])  # a malformed mantissa is still reported as malformed
            limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
            message = "coefficient {raw!r} has a decimal exponent of {size}"
            _refuse_over_cap(abs(int(decimal[2])), limit, message, raw=value)
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {value!r} ({exc})") from None


def _integers(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over the lcm of their denominators."""
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    return _over_one_denominator([_as_fraction(v) for v in values])


def _over_one_denominator(fracs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Fractions, already read, as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _sparse(
    scenario: Scenario, places: Iterable[int], numerators: Iterable[int], den: int
) -> BellExpression:
    """An expression from flat places and their numerators over ``den``: each is
    written straight into place, and repeated places add up."""
    nums = [0] * scenario.dimension
    for place, n in zip(places, numerators):
        nums[place] += n
    return _exact(scenario, nums, den)


@dataclass(frozen=True)
class Scenario:
    """Per-party setting counts for a full-correlation Bell scenario."""

    settings: tuple[int, ...]

    def __post_init__(self) -> None:
        settings = tuple(map(_index, self.settings))
        if not settings:
            raise ValueError("scenario needs at least one party")
        if any(m < 1 for m in settings):
            raise ValueError(f"setting counts must be positive integers, got {settings}")
        object.__setattr__(self, "settings", settings)
        message = "scenario {s} has {size} joint settings"
        _refuse_over_cap(self.dimension, ENUMERATION_CAP, message, s=self)

    @property
    def parties(self) -> int:
        return len(self.settings)

    @functools.cached_property
    def dimension(self) -> int:
        """Number of joint setting tuples, i.e. the correlation-space dimension."""
        return math.prod(self.settings)

    def index_tuples(self) -> Iterator[tuple[int, ...]]:
        """All joint setting tuples in C (row-major) order."""
        return itertools.product(*(range(m) for m in self.settings))

    def flat_index(self, idx: Sequence[int]) -> int:
        if len(idx) != self.parties:
            raise ValueError(f"index {tuple(idx)} has wrong arity for {self}")
        flat = 0
        for j, m in zip(map(_index, idx), self.settings):
            if not 0 <= j < m:
                raise ValueError(f"setting index {tuple(idx)} out of range for {self}")
            flat = flat * m + j
        return flat

    def __str__(self) -> str:
        return "x".join(str(m) for m in self.settings)


@dataclass(frozen=True)
class DeterministicStrategy:
    """One local-realistic assignment: an outcome in {-1,+1} per party per setting."""

    outcomes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        outcomes = tuple(tuple(map(_index, party)) for party in self.outcomes)
        for party in outcomes:
            if any(o not in (-1, 1) for o in party):
                raise ValueError(f"outcomes must be +-1, got {outcomes}")
        object.__setattr__(self, "outcomes", outcomes)

    def matches(self, scenario: Scenario) -> bool:
        return tuple(len(p) for p in self.outcomes) == scenario.settings

    def admissible_vector(self, scenario: Scenario) -> tuple[int, ...]:
        """Outer product of the outcome vectors, flat in C order (a polytope vertex)."""
        if not self.matches(scenario):
            raise ValueError(f"strategy shape does not match scenario {scenario}")
        vec = [1]
        for party in self.outcomes:
            vec = [v * o for v in vec for o in party]
        return tuple(vec)


@dataclass(frozen=True, init=False)
class BellExpression:
    """A full-correlation Bell expression with exact rational coefficients, stored
    as reduced ``numerators`` over ``denominator``, so ``==`` and ``hash`` are exact."""

    scenario: Scenario
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, scenario: Scenario, coeffs: Iterable[RationalLike]) -> None:
        _require_exact_size(scenario)  # before the coefficients are consumed
        nums, den = _integers(coeffs)
        if len(nums) != (d := scenario.dimension):
            raise ValueError(f"expected {d} coefficients for scenario {scenario}, got {len(nums)}")
        vars(self).update(vars(_exact(scenario, nums, den)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, scenario: Scenario) -> BellExpression:
        return cls.from_terms(scenario, ())

    @classmethod
    def from_terms(
        cls,
        scenario: Scenario,
        terms: Iterable[tuple[Sequence[int], RationalLike]],
    ) -> BellExpression:
        """Build from sparse ``(setting tuple, coefficient)`` pairs; repeats add up."""
        _require_exact_size(scenario)  # before the terms are consumed
        placed = [(scenario.flat_index(idx), c) for idx, c in terms]
        return _sparse(scenario, [p for p, _ in placed], *_integers(c for _, c in placed))

    @classmethod
    def from_product(
        cls,
        scenario: Scenario,
        factors: Sequence[Sequence[RationalLike]],
        scale: RationalLike = 1,
    ) -> BellExpression:
        """Outer product of per-party setting weights, times an overall scale.

        ``factors[p][j]`` is the weight of party p's setting j, so e.g.
        weights ``(0, 1, -1)`` encode "setting 1 minus setting 2".
        """
        if tuple(len(f) for f in factors) != scenario.settings:
            raise ValueError("one weight per setting of each party required")
        _require_exact_size(scenario)
        parts = [_integers(weights) for weights in ([scale], *factors)]
        nums = functools.reduce(np.multiply.outer, [np.array(n, dtype=object) for n, _ in parts])
        return _exact(scenario, nums.ravel().tolist(), math.prod(d for _, d in parts))

    # -- accessors ---------------------------------------------------------

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, flat in C order."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def coeff(self, idx: Sequence[int]) -> Fraction:
        return Fraction(self.numerators[self.scenario.flat_index(idx)], self.denominator)

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Nonzero ``(setting tuple, coefficient)`` pairs in C order."""
        for idx, n in zip(self.scenario.index_tuples(), self.numerators):
            if n:
                yield idx, Fraction(n, self.denominator)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: BellExpression) -> BellExpression:
        return linear_combine([(1, self), (1, other)])

    def __sub__(self, other: BellExpression) -> BellExpression:
        return linear_combine([(1, self), (-1, other)])

    def __neg__(self) -> BellExpression:
        return linear_combine([(-1, self)])

    def scaled(self, factor: RationalLike) -> BellExpression:
        return linear_combine([(factor, self)])


def _exact(scenario: Scenario, numerators: Sequence[int], denominator: int) -> BellExpression:
    """Every expression's constructor: Python-int ``numerators`` in C order over
    a positive ``denominator``, both divided by their gcd.  The caller has
    sized the scenario and supplies one numerator per joint setting."""
    g = math.gcd(denominator, *numerators)
    expr = object.__new__(BellExpression)
    object.__setattr__(expr, "scenario", scenario)
    object.__setattr__(
        expr, "numerators", tuple(numerators if g == 1 else (n // g for n in numerators))
    )
    object.__setattr__(expr, "denominator", denominator // g)
    return expr


def _strategy(outcomes: tuple[tuple[int, ...], ...]) -> DeterministicStrategy:
    """A strategy from tuples of Python-int outcomes +-1 that bellift built
    itself, so they are not checked again."""
    strategy = object.__new__(DeterministicStrategy)
    object.__setattr__(strategy, "outcomes", outcomes)
    return strategy


def _require_same_scenario(*exprs: BellExpression) -> None:
    scenario = exprs[0].scenario
    for e in exprs[1:]:
        if e.scenario != scenario:
            raise ValueError(f"scenario mismatch: {scenario} vs {e.scenario}")


def evaluate(expr: BellExpression, strategy: DeterministicStrategy) -> Fraction:
    """Exact value of the expression on one deterministic strategy."""
    vertex = strategy.admissible_vector(expr.scenario)
    return Fraction(sum(n * v for n, v in zip(expr.numerators, vertex)), expr.denominator)


def _combine(
    weight_rows: Sequence[Sequence[int]], den: int, exprs: Sequence[BellExpression]
) -> tuple[list[int], int]:
    """Numerators of sum_k row[k] / den * exprs[k] for every integer row, flat
    one row after another, over one common denominator: a single integer
    matrix product."""
    _require_same_scenario(*exprs)
    lcm = math.lcm(*(e.denominator for e in exprs))
    scales = [[w * (lcm // e.denominator) for w, e in zip(row, exprs)] for row in weight_rows]
    rows = [e.numerators for e in exprs]
    try:  # the peak |numerator| in one pass; as uint64, |-2^63| = 2^63 stays exact
        nums = np.array(rows, dtype=np.int64)
        peak = int(np.abs(nums).view(np.uint64).max())
    except OverflowError:
        peak = _INT64_SAFE
    # bounds every scale, every numerator and every sum of products
    if max(1, *(sum(map(abs, row)) for row in scales)) * max(peak, 1) < _INT64_SAFE:
        out = np.array(scales, dtype=np.int64) @ nums
    else:
        out = np.array(scales, dtype=object) @ np.array(rows, dtype=object)
    return out.ravel().tolist(), den * lcm


def _contract(t: np.ndarray, mats: Sequence[np.ndarray], order: Iterable[int]) -> np.ndarray:
    """``t``, read in C order, with axis p replaced by the leading axis of
    ``mats[p]`` (out_p x in_p): one matmul per party in ``order``,
    ``mats[p] @ t.reshape(done, in_p, rest)``, or a 2-D product when rest is 1.
    The axes stay in place, so the result has shape (out_0, ..., out_n-1).
    Callers put shrinking parties first, so no intermediate outgrows both the
    input and the output.
    """
    dims = [m.shape[1] for m in mats]
    for p in order:
        mat, size = mats[p], dims[p]
        done = math.prod(dims[:p])
        rest = t.size // (done * size)
        t = t.reshape(done, size) @ mat.T if rest == 1 else mat @ t.reshape(done, size, rest)
        dims[p] = mat.shape[0]
    return t.reshape(dims)


def linear_combine(
    terms: Sequence[tuple[RationalLike, BellExpression]],
) -> BellExpression:
    """Exact rational linear combination of same-scenario expressions, as one
    integer matrix product over a common denominator."""
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    weights, exprs = zip(*terms)
    numerators, den = _integers(weights)
    return _exact(exprs[0].scenario, *_combine([numerators], den, exprs))


def permute_parties(expr: BellExpression, order: Sequence[int]) -> BellExpression:
    """Relabel parties: new party k is old party ``order[k]``.  This is one
    gather of the numerators by a compiled source index, every sign +1."""
    settings, order = expr.scenario.settings, tuple(map(_index, order))
    if sorted(order) != list(range(len(settings))):
        raise ValueError(f"order {order} is not a permutation of the parties")
    identity = tuple(map(range, settings)), tuple((1,) * m for m in settings)
    return _relabel(expr, Scenario(tuple(settings[q] for q in order)), order, *identity)


@dataclass(frozen=True)
class SignedSettingMap:
    """Per-party setting relabelling with signs.

    Applying the map substitutes, for party p, the observable of setting j by
    ``signs[p][j]`` times the observable of setting ``permutations[p][j]``.
    """

    permutations: tuple[tuple[int, ...], ...]
    signs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        perms = tuple(tuple(map(_index, p)) for p in self.permutations)
        signs = tuple(tuple(map(_index, p)) for p in self.signs)
        if len(perms) != len(signs):
            raise ValueError("permutations and signs must cover the same parties")
        for perm, sgn in zip(perms, signs):
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"{perm} is not a permutation")
            if len(sgn) != len(perm) or any(s not in (-1, 1) for s in sgn):
                raise ValueError(f"signs must be +-1, one per setting, got {sgn}")
        object.__setattr__(self, "permutations", perms)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def uniform(
        cls,
        scenario: Scenario,
        permutation: Sequence[int],
        signs: Sequence[int],
    ) -> SignedSettingMap:
        """The same single-party map applied to every party of the scenario."""
        if any(m != len(permutation) for m in scenario.settings):
            raise ValueError("uniform map requires equal setting counts")
        return cls(
            (tuple(permutation),) * scenario.parties,
            (tuple(signs),) * scenario.parties,
        )


def apply_signed_setting_map(
    expr: BellExpression, mapping: SignedSettingMap
) -> BellExpression:
    """Substitute settings according to the map.

    The coefficient at the image index picks up the product of the applied
    signs: ``new[perm(idx)] = prod_p signs[p][idx_p] * old[idx]``.  The map is
    compiled to one (source index, sign) pair, so applying it is one gather
    of the numerators and one multiply.
    """
    scenario = expr.scenario
    if tuple(len(p) for p in mapping.permutations) != scenario.settings:
        raise ValueError(f"map shape does not match scenario {scenario}")
    return _relabel(expr, scenario, range(scenario.parties), mapping.permutations, mapping.signs)


@functools.lru_cache(maxsize=64)
def _gather(
    settings: tuple[int, ...], order: Sequence[int], permutations: tuple, signs: tuple
) -> tuple[memoryview, memoryview]:
    """A relabelling of ``settings`` compiled to one flat (source index, sign)
    pair: ``new[j] = sign[j] * old[index[j]]`` over the C-order numerators.

    New party k is old party ``q = order[k]``, whose old setting i becomes
    setting ``permutations[q][i]`` with sign ``signs[q][i]``.  The pair is
    stored read-only as 8-byte and 1-byte machine integers, 9 bytes per
    coefficient; an expression has at most 2^16 coefficients, so the cache
    holds at most 64 x 2^16 x 9 bytes = 36 MiB.
    """
    strides = [math.prod(settings[q + 1 :]) for q in range(len(settings))]
    index, sign = [0], [1]
    for q in order:
        perm, flips, stride = permutations[q], signs[q], strides[q]
        source = sorted(range(len(perm)), key=perm.__getitem__)  # new j is old source[j]
        index = [a + stride * i for a in index for i in source]
        sign = [b * flips[i] for b in sign for i in source]
    return (
        memoryview(array.array("q", index)).toreadonly(),
        memoryview(array.array("b", sign)).toreadonly(),
    )


def _relabel(expr: BellExpression, scenario: Scenario, *relabelling: Sequence) -> BellExpression:
    """``expr`` relabelled onto ``scenario``: one gather of its numerators by
    the pair that ``_gather`` compiles from ``relabelling``, one multiply each."""
    index, sign = _gather(expr.scenario.settings, *relabelling)
    nums = expr.numerators
    return _exact(scenario, [nums[i] * s for i, s in zip(index, sign)], expr.denominator)
