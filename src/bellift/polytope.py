"""Brute-force certificates on the local-realistic correlation polytope.

The polytope for a scenario is the convex hull of the admissible vectors of
all deterministic strategies.  Everything here is exact and stays in
``int``/``Fraction`` arithmetic: strategy values are integers after clearing
coefficient denominators, the local-realistic maximum is returned as a
Fraction, saturation means value exactly 1, and both the ranks and the facet
oracle's hyperplane solves use the one fraction-free elimination of
``rational_linalg``.

Strategies are ordered lexicographically by their concatenated outcome bits
(party-major, setting-major; bit 0 encodes outcome +1), so maximizers and
witnesses are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .expressions import (  # the caps are re-exported from here
    ENUMERATION_CAP,
    BellExpression,
    DeterministicStrategy,
    EnumerationCapExceeded,
    Scenario,
)
from .rational_linalg import integer_rank, solve_unit_rhs

FACET_DIMENSION_CAP = 8
FACET_VERTEX_CAP = 20


def _check_cap(scenario: Scenario) -> None:
    total_bits = sum(scenario.settings)
    if 2**total_bits > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"scenario {scenario} has 2^{total_bits} strategies, "
            f"over the cap of {ENUMERATION_CAP}"
        )


def _strategy_from_bits(scenario: Scenario, bits: int) -> DeterministicStrategy:
    total = sum(scenario.settings)
    outcomes = []
    pos = 0
    for m in scenario.settings:
        party = []
        for _ in range(m):
            bit = (bits >> (total - 1 - pos)) & 1
            party.append(1 - 2 * bit)
            pos += 1
        outcomes.append(tuple(party))
    return DeterministicStrategy(tuple(outcomes))


def enumerate_strategies(scenario: Scenario):
    """Yield every deterministic strategy in lexicographic bit order."""
    _check_cap(scenario)
    for bits in range(2 ** sum(scenario.settings)):
        yield _strategy_from_bits(scenario, bits)


def _outcome_patterns(m: int) -> np.ndarray:
    """All 2^m outcome rows for one party, lexicographic, entries +-1."""
    rows = np.array(
        [[1 - 2 * ((r >> (m - 1 - j)) & 1) for j in range(m)] for r in range(2**m)],
        dtype=np.int64,
    )
    return rows


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the lcm L of their denominators, plus L."""
    lcm = math.lcm(*(v.denominator for v in values))
    return [int(v * lcm) for v in values], lcm


def _all_strategy_values(expr: BellExpression) -> tuple[np.ndarray, int]:
    """Integer values L*I(s) for every strategy, flat in strategy bit order."""
    scenario = expr.scenario
    _check_cap(scenario)
    ints, lcm = _clear_denominators(expr.coeffs)
    bound = sum(abs(c) for c in ints)
    # int64 is exact while the largest possible |value| fits; otherwise fall
    # back to Python big ints in an object array.
    dtype = np.int64 if bound < 2**62 else object
    vals = np.array(ints, dtype=dtype).reshape(scenario.settings)
    for m in scenario.settings:
        patterns = _outcome_patterns(m).astype(dtype)
        # contract the leading party axis; its strategy axis lands at the end,
        # so after one pass per party the axes are in party order again
        vals = np.tensordot(vals, patterns, axes=([0], [1]))
    return vals.reshape(-1), lcm


def lr_max_with_witness(expr: BellExpression) -> tuple[Fraction, DeterministicStrategy]:
    """Exact local-realistic maximum and the first maximizing strategy."""
    vals, lcm = _all_strategy_values(expr)
    best = int(np.argmax(vals))
    return Fraction(int(vals[best]), lcm), _strategy_from_bits(expr.scenario, best)


@lru_cache(maxsize=1024)
def lr_max(expr: BellExpression) -> Fraction:
    """Exact maximum of the expression over all deterministic strategies."""
    return lr_max_with_witness(expr)[0]


def _vectors_for_strategy_ids(scenario: Scenario, ids: np.ndarray) -> np.ndarray:
    """Admissible vectors (rows) for the given flat strategy indices."""
    if ids.size == 0:
        return np.zeros((0, scenario.dimension), dtype=np.int64)
    per_party_rows = []
    rest = ids.astype(np.int64)
    for m in reversed(scenario.settings):
        per_party_rows.append(rest % (2**m))
        rest //= 2**m
    per_party_rows.reverse()
    operands = []
    subscripts = []
    n = scenario.parties
    for p, m in enumerate(scenario.settings):
        operands.append(_outcome_patterns(m)[per_party_rows[p]])
        subscripts.append([0, p + 1])  # axis 0 = strategy row, axis p+1 = setting
    out = list(range(n + 1))
    vecs = np.einsum(*itertools.chain(*zip(operands, subscripts)), out)
    return vecs.reshape(ids.size, scenario.dimension)


def _dedupe_rows(rows: np.ndarray) -> np.ndarray:
    """Unique rows, keeping the first occurrence order."""
    # a dict keeps each key where it was first inserted; equal keys are equal rows
    return rows[list({row.tobytes(): i for i, row in enumerate(rows)}.values())]


@lru_cache(maxsize=64)
def distinct_vertices(scenario: Scenario) -> np.ndarray:
    """All distinct polytope vertices, first-occurrence order, rows of +-1.

    Distinct means as vectors: flipping all outcomes of an even number of
    parties fixes the vector, so there are 2^(sum(m_p) - n + 1) of them.
    For n >= 2 only strategies whose party-0 setting-0 outcome is +1 are
    scanned (the most significant bit is 0); every vertex class contains such
    a representative.  For a single party the vector is the outcome vector
    itself, so all strategies are scanned.
    """
    _check_cap(scenario)
    total = sum(scenario.settings)
    scan = total - 1 if scenario.parties > 1 else total
    ids = np.arange(2**scan, dtype=np.int64)
    vecs = _vectors_for_strategy_ids(scenario, ids)
    out = _dedupe_rows(vecs)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TightnessReport:
    """Facet certificate for one expression.

    ``saturating_count`` counts distinct vertices with value exactly 1, and
    ``rank`` is their exact rank over Q, so ``is_tight`` certifies a facet of
    the (inversion-symmetric, full-dimensional) correlation polytope.
    """

    lr_max: Fraction
    saturating_count: int
    rank: int
    is_valid: bool
    is_tight: bool


@lru_cache(maxsize=1024)
def tightness(expr: BellExpression) -> TightnessReport:
    """Exact facet test: validity (lr_max <= 1) plus full-rank saturation."""
    scenario = expr.scenario
    vals, lcm = _all_strategy_values(expr)
    lr = Fraction(int(max(vals)), lcm)
    sat_ids = np.nonzero(vals == lcm)[0]  # value exactly 1
    vecs = _dedupe_rows(_vectors_for_strategy_ids(scenario, sat_ids))
    dim = scenario.dimension
    rank = integer_rank(vecs.tolist())
    valid = lr <= 1
    return TightnessReport(
        lr_max=lr,
        saturating_count=vecs.shape[0],
        rank=rank,
        is_valid=valid,
        is_tight=valid and rank == dim,
    )


@lru_cache(maxsize=16)
def enumerate_facets_brute(scenario: Scenario) -> tuple[BellExpression, ...]:
    """All facets of the correlation polytope, normalized to right-hand side 1.

    Brute force over D-subsets of distinct vertices: solve the exact linear
    system for a hyperplane with RHS 1 and keep solutions valid for every
    vertex, checked in integers after clearing denominators.  Deduplication
    is by exact coefficient tuple; output order follows the first
    discovering subset.  Hyperplanes through the origin cannot occur
    here (RHS is pinned to 1), and inversion symmetry makes RHS 1 a complete
    normalization.
    """
    dim = scenario.dimension
    if dim > FACET_DIMENSION_CAP:
        raise EnumerationCapExceeded(
            f"facet enumeration supports dimension <= {FACET_DIMENSION_CAP}, "
            f"scenario {scenario} has {dim}"
        )
    verts = distinct_vertices(scenario)
    nverts = verts.shape[0]
    if nverts > FACET_VERTEX_CAP:
        raise EnumerationCapExceeded(
            f"facet enumeration supports <= {FACET_VERTEX_CAP} vertices, "
            f"scenario {scenario} has {nverts}"
        )
    found: dict[tuple[Fraction, ...], BellExpression] = {}
    for subset in itertools.combinations(range(nverts), dim):
        solution = solve_unit_rhs(verts[list(subset)].tolist())
        if solution is None:
            continue
        key = tuple(solution)
        if key in found:
            continue
        # valid iff L*x . v <= L for every vertex v; entries stay far inside
        # int64 (|det| <= 8^4 for +-1 matrices under the dimension cap)
        ints, lcm = _clear_denominators(key)
        if (verts @ np.array(ints, dtype=np.int64)).max() <= lcm:
            found[key] = BellExpression(scenario, key)
    return tuple(found.values())
