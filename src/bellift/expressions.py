"""Core types for full-correlation Bell expressions with exact coefficients.

Data conventions used throughout the package:

* A *scenario* is a tuple of per-party setting counts ``(m_1, ..., m_n)``.
  Parties and settings are zero-indexed everywhere.
* A *Bell expression* is a real linear form on correlation space,
  ``I = sum_idx c[idx] * E[idx]``, where ``idx`` runs over joint setting
  tuples and ``E[idx]`` is the full n-party correlator.  Coefficients are
  exact rationals (`fractions.Fraction`); floats are rejected so that
  saturation and bound checks can use exact equality.
* Coefficient tensors are stored flat in C (row-major) order over the
  setting tuples.  ``Scenario.flat_index`` maps a tuple to its position.
* A *deterministic strategy* assigns one outcome in {-1, +1} per party per
  setting.  Its *admissible vector* is the outer product of the per-party
  outcome vectors, i.e. ``v[idx] = prod_p outcomes[p][idx_p]``; these are
  the vertices of the local-realistic correlation polytope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

RationalLike = Fraction | int | str

ENUMERATION_CAP = 2**24
# Exact coefficients are Python Fractions, built one object at a time, so
# expressions get a far smaller cap than the float arrays of the quantum layer.
EXACT_COEFFICIENT_CAP = 2**16


class EnumerationCapExceeded(Exception):
    """Raised when an enumeration or an exact tensor would exceed a configured cap."""


def _require_exact_size(scenario: Scenario) -> None:
    """Refuse, before any coefficient is built, an expression over the cap."""
    if scenario.dimension > EXACT_COEFFICIENT_CAP:
        raise EnumerationCapExceeded(
            f"an expression on scenario {scenario} has {scenario.dimension} exact "
            f"coefficients, over the cap of {EXACT_COEFFICIENT_CAP}"
        )


def _as_fraction(value: RationalLike) -> Fraction:
    if type(value) is Fraction:  # immutable, so it is shared rather than copied
        return value
    if isinstance(value, float):
        raise TypeError(
            f"coefficients must be exact rationals, got float {value!r}; "
            "pass a Fraction, int, or 'p/q' string instead"
        )
    return Fraction(value)


@dataclass(frozen=True)
class Scenario:
    """Per-party setting counts for a full-correlation Bell scenario."""

    settings: tuple[int, ...]

    def __post_init__(self) -> None:
        settings = tuple(int(m) for m in self.settings)
        if not settings:
            raise ValueError("scenario needs at least one party")
        if any(m < 1 for m in settings):
            raise ValueError(f"setting counts must be >= 1, got {settings}")
        object.__setattr__(self, "settings", settings)
        if self.dimension > ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"scenario {self} has {self.dimension} joint settings, "
                f"over the cap of {ENUMERATION_CAP}"
            )

    @property
    def parties(self) -> int:
        return len(self.settings)

    @property
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
        for j, m in zip(idx, self.settings):
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
        outcomes = tuple(tuple(int(o) for o in party) for party in self.outcomes)
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


@dataclass(frozen=True)
class BellExpression:
    """A full-correlation Bell expression with exact rational coefficients."""

    scenario: Scenario
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _require_exact_size(self.scenario)
        coeffs = tuple(_as_fraction(c) for c in self.coeffs)
        if len(coeffs) != self.scenario.dimension:
            raise ValueError(
                f"expected {self.scenario.dimension} coefficients for scenario "
                f"{self.scenario}, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, scenario: Scenario) -> BellExpression:
        _require_exact_size(scenario)
        return cls(scenario, (Fraction(0),) * scenario.dimension)

    @classmethod
    def from_terms(
        cls,
        scenario: Scenario,
        terms: Iterable[tuple[Sequence[int], RationalLike]],
    ) -> BellExpression:
        """Build from sparse ``(setting tuple, coefficient)`` pairs."""
        _require_exact_size(scenario)
        coeffs = [Fraction(0)] * scenario.dimension
        for idx, c in terms:
            coeffs[scenario.flat_index(idx)] += _as_fraction(c)
        return cls(scenario, tuple(coeffs))

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
        if len(factors) != scenario.parties:
            raise ValueError("one weight vector per party required")
        _require_exact_size(scenario)
        s = _as_fraction(scale)
        coeffs = []
        for idx in scenario.index_tuples():
            c = s
            for p, j in enumerate(idx):
                c *= _as_fraction(factors[p][j])
            coeffs.append(c)
        return cls(scenario, tuple(coeffs))

    # -- accessors ---------------------------------------------------------

    def coeff(self, idx: Sequence[int]) -> Fraction:
        return self.coeffs[self.scenario.flat_index(idx)]

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Nonzero ``(setting tuple, coefficient)`` pairs in C order."""
        for idx, c in zip(self.scenario.index_tuples(), self.coeffs):
            if c:
                yield idx, c

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: BellExpression) -> BellExpression:
        _require_same_scenario(self, other)
        return BellExpression(
            self.scenario, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: BellExpression) -> BellExpression:
        _require_same_scenario(self, other)
        return BellExpression(
            self.scenario, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> BellExpression:
        return BellExpression(self.scenario, tuple(-c for c in self.coeffs))

    def scaled(self, factor: RationalLike) -> BellExpression:
        f = _as_fraction(factor)
        return BellExpression(self.scenario, tuple(f * c for c in self.coeffs))


def _require_same_scenario(*exprs: BellExpression) -> None:
    scenario = exprs[0].scenario
    for e in exprs[1:]:
        if e.scenario != scenario:
            raise ValueError(f"scenario mismatch: {scenario} vs {e.scenario}")


def evaluate(expr: BellExpression, strategy: DeterministicStrategy) -> Fraction:
    """Exact value of the expression on one deterministic strategy."""
    if not strategy.matches(expr.scenario):
        raise ValueError(
            f"strategy shape {tuple(len(p) for p in strategy.outcomes)} does not "
            f"match scenario {expr.scenario}"
        )
    total = Fraction(0)
    outcomes = strategy.outcomes
    for idx, c in expr.terms():
        sign = 1
        for p, j in enumerate(idx):
            sign *= outcomes[p][j]
        total += c if sign > 0 else -c
    return total


def linear_combine(
    terms: Sequence[tuple[RationalLike, BellExpression]],
) -> BellExpression:
    """Exact rational linear combination of same-scenario expressions."""
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    acc = BellExpression.zero(terms[0][1].scenario)
    for weight, expr in terms:
        acc = acc + expr.scaled(weight)
    return acc


def permute_parties(expr: BellExpression, order: Sequence[int]) -> BellExpression:
    """Relabel parties: new party k is old party ``order[k]``."""
    scenario = expr.scenario
    if sorted(order) != list(range(scenario.parties)):
        raise ValueError(f"order {tuple(order)} is not a permutation of the parties")
    new_scenario = Scenario(tuple(scenario.settings[p] for p in order))
    coeffs = [Fraction(0)] * new_scenario.dimension
    for idx, c in zip(scenario.index_tuples(), expr.coeffs):
        new_idx = tuple(idx[p] for p in order)
        coeffs[new_scenario.flat_index(new_idx)] = c
    return BellExpression(new_scenario, tuple(coeffs))


@dataclass(frozen=True)
class SignedSettingMap:
    """Per-party setting relabelling with signs.

    Applying the map substitutes, for party p, the observable of setting j by
    ``signs[p][j]`` times the observable of setting ``permutations[p][j]``.
    """

    permutations: tuple[tuple[int, ...], ...]
    signs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        perms = tuple(tuple(int(j) for j in p) for p in self.permutations)
        signs = tuple(tuple(int(s) for s in p) for p in self.signs)
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
    signs: ``new[perm(idx)] = prod_p signs[p][idx_p] * old[idx]``.
    """
    scenario = expr.scenario
    if tuple(len(p) for p in mapping.permutations) != scenario.settings:
        raise ValueError(f"map shape does not match scenario {scenario}")
    coeffs = [Fraction(0)] * scenario.dimension
    for idx, c in zip(scenario.index_tuples(), expr.coeffs):
        sign = 1
        new_idx = []
        for p, j in enumerate(idx):
            new_idx.append(mapping.permutations[p][j])
            sign *= mapping.signs[p][j]
        coeffs[scenario.flat_index(new_idx)] = sign * c
    return BellExpression(scenario, tuple(coeffs))
