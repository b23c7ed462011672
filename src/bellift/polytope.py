"""Exact certificates on the local-realistic correlation polytope.

The polytope for a scenario is the convex hull of the admissible vectors of
all deterministic strategies.  Everything here is exact and stays in
``int``/``Fraction`` arithmetic: strategy values are integers after clearing
coefficient denominators, the local-realistic maximum is returned as a
Fraction, saturation means value exactly 1, ranks use the fraction-free
elimination of ``rational_linalg``, and the facet enumeration is an integer
double description whose rays never leave int64.

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
from .rational_linalg import integer_kernel_vector, integer_rank

FACET_RAY_CAP = 2**20  # intermediate rays of the facet enumeration
_MASK_BITS = 64  # one uint64 zero-set mask per ray
_INT64_SAFE = 2**62
_CHUNK = 2**16  # array entries per vectorised adjacency step


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


def _initial_cone(rows: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The first d independent rows (in order), plus the simplicial cone's rays.

    Ray j spans the kernel of the chosen rows other than j, signed so that
    row j is strictly negative on it; its zero set is the other chosen rows.
    """
    d = rows.shape[1]
    basis: list[int] = []
    for i in range(rows.shape[0]):
        if integer_rank(rows[basis + [i]].tolist()) > len(basis):
            basis.append(i)
            if len(basis) == d:
                break
    rays = []
    for j in basis:
        ray = np.array(integer_kernel_vector(rows[[k for k in basis if k != j]].tolist()))
        rays.append(ray if rows[j] @ ray < 0 else -ray)
    full = sum(1 << k for k in basis)
    masks = np.array([full & ~(1 << j) for j in basis], dtype=np.uint64)
    return basis, np.array(rays, dtype=np.int64), masks


def _adjacent_pairs(
    masks: np.ndarray, plus: np.ndarray, minus: np.ndarray, need: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (p, n) of adjacent rays, by the combinatorial test.

    A pair is adjacent iff its common zero set has at least ``need`` = d - 2
    rows and no third ray's zero set contains it.  One ray p is taken at a
    time: only rays sharing ``need`` zeros with p can be its partners or hold
    a common zero set, so the containment test runs on those alone, in
    blocks of about ``_CHUNK`` entries.  More than ``budget`` pairs is
    refused.
    """
    minus_masks, not_masks = masks[minus], ~masks
    firsts, seconds = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    found = 0
    for p in plus:
        partners = np.flatnonzero(np.bitwise_count(minus_masks & masks[p]) >= need)
        common = minus_masks[partners] & masks[p]
        near = not_masks[np.bitwise_count(masks & masks[p]) >= need]
        holders = np.empty(common.size, dtype=np.int64)
        step = max(1, _CHUNK // near.shape[0])
        for k in range(0, common.size, step):
            block = common[k : k + step, None] & near
            holders[k : k + step] = np.count_nonzero(block == 0, axis=1)
        partners = partners[holders == 2]  # p and its partner; no third ray may
        found += partners.size
        if found > budget:
            raise EnumerationCapExceeded(
                f"facet enumeration exceeded {FACET_RAY_CAP} intermediate rays"
            )
        firsts.append(np.full(partners.size, p))
        seconds.append(minus[partners])
    return np.concatenate(firsts), np.concatenate(seconds)


def _insert_row(
    rays: np.ndarray, masks: np.ndarray, row: np.ndarray, bit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Intersect the cone with {y : row . y <= 0}, one double-description step."""
    # row entries are +-1, so |s| <= d max|r| and |s+ r- - s- r+| <= 2 d max|r|^2
    if rays.shape[1] * int(np.abs(rays).max()) ** 2 >= _INT64_SAFE:
        raise EnumerationCapExceeded("facet enumeration outgrew int64 ray entries")
    s = rays @ row
    plus, minus = np.flatnonzero(s > 0), np.flatnonzero(s < 0)
    kept = s <= 0
    kept_masks = masks[kept] | np.where(s[kept] == 0, np.uint64(1 << bit), np.uint64(0))
    if plus.size == 0 or minus.size == 0:
        return rays[kept], kept_masks
    budget = FACET_RAY_CAP - int(np.count_nonzero(kept))
    p, n = _adjacent_pairs(masks, plus, minus, rays.shape[1] - 2, budget)
    new = s[p, None] * rays[n] - s[n, None] * rays[p]
    new //= np.gcd.reduce(new, axis=1)[:, None]
    new_masks = (masks[p] & masks[n]) | np.uint64(1 << bit)
    return np.concatenate([rays[kept], new]), np.concatenate([kept_masks, new_masks])


@lru_cache(maxsize=16)
def enumerate_facets(scenario: Scenario) -> tuple[BellExpression, ...]:
    """All facets of the correlation polytope, normalized to right-hand side 1.

    Exact integer double description (Motzkin et al. 1953; Fukuda & Prodon
    1996) of the polar cone {(a, t) : v . a <= t for every distinct vertex
    v}: start from the simplicial cone of the first D + 1 independent vertex
    rows, then intersect with the remaining rows in ``distinct_vertices``
    order.  Rays are gcd-normalized int64 vectors, each with its zero set as
    one uint64 bitmask over the vertex rows, and adjacency is tested
    combinatorially.  Every extreme ray has t > 0 (the vertex set is
    inversion symmetric and spans the space), so ray (a, t) is the facet
    (a / t) . x <= 1.

    Facets are returned sorted by their exact coefficient tuples.  Refused
    with ``EnumerationCapExceeded`` before any work when there are more than
    64 distinct vertices (the bitmask width), and mid-way when the rays
    would exceed ``FACET_RAY_CAP`` or int64.
    """
    nverts = 2 ** (sum(scenario.settings) - scenario.parties + 1)
    if nverts > _MASK_BITS:
        raise EnumerationCapExceeded(
            f"facet enumeration supports <= {_MASK_BITS} distinct vertices, "
            f"scenario {scenario} has {nverts}"
        )
    verts = distinct_vertices(scenario)
    rows = np.hstack([verts, -np.ones((verts.shape[0], 1), dtype=np.int64)])
    basis, rays, masks = _initial_cone(rows)
    for i in range(rows.shape[0]):
        if i not in basis:
            rays, masks = _insert_row(rays, masks, rows[i], i)
    # sort exactly: a / t scaled by the common lcm of the t is an integer tuple
    a, t = rays[:, :-1].tolist(), rays[:, -1].tolist()
    lcm = math.lcm(*t)
    keys = sorted(tuple(x * (lcm // tk) for x in row) for row, tk in zip(a, t))
    fractions = {x: Fraction(x, lcm) for x in set().union(*keys)}
    return tuple(BellExpression(scenario, tuple(map(fractions.__getitem__, k))) for k in keys)


# perfbench/workloads.py still calls the old name; the alias is the same
# object, so its tracer reports this function under that name.
enumerate_facets_brute = enumerate_facets
