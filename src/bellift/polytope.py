"""Exact certificates on the local-realistic correlation polytope.

The polytope for a scenario is the convex hull of the admissible vectors of
all deterministic strategies.  Everything here is exact and stays in
``int``/``Fraction`` arithmetic: strategy values are integers over the
expression's one denominator, the local-realistic maximum is returned as a
Fraction, saturation means value exactly 1, ranks come from
``rational_linalg`` in two steps (one certificate of the saturating Gram
matrix, then Bareiss on the saturating rows if it fails), and the facet
enumeration is an integer double description whose rays never leave int64.

Strategies are taken in *bit order*: strategy k is the one whose
concatenated outcome bits (party-major, setting-major; bit 0 encodes
outcome +1) are the binary digits of k, most significant first.  Flipping the
outcomes of an even number of parties keeps the admissible vector, so each
vertex has exactly one *canonical* strategy: outcome +1 at setting 0 for
every party but the last.  It is the first strategy of its class in bit
order.  Vertices are enumerated once each, as their canonical strategies in
bit order, so vertex lists, maximizers and witnesses are deterministic.

Each party's canonical outcome rows, and its pair table of their products
r[i] r[j], are built once per scenario and kept read-only.  One matmul per
party (``expressions._contract``) against the rows turns the coefficients
into every canonical strategy's value, and one against the pair tables turns
the saturating mask into ``tightness``' Gram matrix, without the saturating
rows: a float64 matrix of integers no larger than the saturating count.

bellift caches only what its callers ask for again: these per-scenario
tables, the facet lists of ``enumerate_facets``, the compiled relabellings of
``expressions``, the built-in expressions of ``lifting``, and the see-saw's
initial directions in ``quantum`` (one entry of restarts x settings x 3
floats, no larger than the capped batch of the call that drew them).
Certificates of one expression (``lr_max``, ``tightness``) are recomputed on
every call: a search or census feeds them a stream of distinct expressions,
so a cache would pin them without being hit.  ``distinct_vertices`` is rebuilt too; its
one library caller, ``enumerate_facets``, is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .expressions import (
    ENUMERATION_CAP,
    _INT64_SAFE,
    BellExpression,
    DeterministicStrategy,
    Scenario,
    _contract,
    _exact,
    _refuse_over_cap,
    _strategy,
)
from . import rational_linalg

FACET_RAY_CAP = 2**20  # intermediate rays of the facet enumeration
RANK_WORK_CAP = 2**30  # rows * cols * min(rows, cols) of a saturating-row rank
_MASK_BITS = 64  # one uint64 zero-set mask per ray
_CHUNK = 2**16  # array entries per vectorised adjacency step


def _outcome_patterns(m: int) -> np.ndarray:
    """All 2^m outcome rows for one party, lexicographic, entries +-1."""
    bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.int64)


def _canonical_counts(scenario: Scenario) -> list[int]:
    """Each party's number of canonical outcome rows; their product, the
    vertex count 2^(sum(m_p) - n + 1), is known before any row is built.
    Scenarios with more than ``ENUMERATION_CAP`` strategies are refused."""
    message = "scenario {s} has 2^{exponent} strategies"
    _refuse_over_cap(2, ENUMERATION_CAP, message, exponent=sum(scenario.settings), s=scenario)
    *first, last = scenario.settings
    return [2 ** (m - 1) for m in first] + [2**last]


@lru_cache(maxsize=64)
def _canonical_rows(scenario: Scenario) -> tuple[np.ndarray, ...]:
    """Each party's outcome rows over the canonical strategies, in bit order.

    Flat canonical id k is the C-order index into the grid of these rows,
    one id per vertex.  The rows are built once per scenario and returned
    read-only.  A table of more than ``ENUMERATION_CAP`` outcome entries
    (sum over parties of 2^m_p * m_p) is refused unbuilt.
    """
    counts = _canonical_counts(scenario)
    size = sum(2**m * m for m in scenario.settings)
    message = "scenario {s} has {size} outcome-row entries"
    _refuse_over_cap(size, ENUMERATION_CAP, message, s=scenario)
    rows = tuple(_outcome_patterns(m)[:k] for m, k in zip(scenario.settings, counts))
    for party in rows:
        party.setflags(write=False)
    return rows


@lru_cache(maxsize=4)
def _gram_plan(scenario: Scenario) -> tuple | None:
    """How ``_saturating_gram`` contracts the scenario, or None past
    ``ENUMERATION_CAP`` table entries (sum over parties of k_p * m_p^2).

    The plan holds the party order: the parties that shrink the tensor
    (k_p > m_p^2) first, then the others from the last back, which keeps
    each matmul's batch small.  It holds each party's read-only float64 pair
    table Q[(i, j), k] = r_k[i] r_k[j], and the read-only index that takes G,
    every i before every j, out of the flat contracted tensor.  The index has
    D^2 <= 2^20 entries: a plan serves at least D saturating vertices whose
    rank is within ``RANK_WORK_CAP``, so D^3 <= 2^30.  With 2^24 float64 table
    entries a plan holds at most 136 MiB, the four cached at most 544 MiB
    ((16, 4)'s tables take 64 MiB, mabk(10)'s index 8 MiB).  Four cover a
    lift's inputs and output, or the facet-oracle benchmark's three scenarios.
    """
    rows, settings = _canonical_rows(scenario), scenario.settings
    if sum(r.size * r.shape[1] for r in rows) > ENUMERATION_CAP:
        return None
    shrinking = [p for p in range(len(rows)) if len(rows[p]) > settings[p] ** 2]
    order = shrinking + [p for p in reversed(range(len(rows))) if p not in shrinking]
    tables = tuple((r.T[:, None] * r.T).reshape(-1, len(r)).astype(np.float64) for r in rows)
    d, axes = scenario.dimension, 2 * len(settings)
    index = np.arange(d * d).reshape([m for m in settings for _ in range(2)])
    index = index.transpose([*range(0, axes, 2), *range(1, axes, 2)]).reshape(d, d)
    for table in (*tables, index):
        table.setflags(write=False)
    return order, tables, index


def _saturating_gram(plan: tuple, mask: np.ndarray) -> np.ndarray:
    """G = A^T A in float64 for the admissible vectors A of the canonical
    strategies set in the bool ``mask``, without building A.

    G[(i_p), (j_p)] = sum over k in the mask of prod_p r_{k_p}[i_p] r_{k_p}[j_p]:
    the 0/1 mask contracted with the pair tables in the plan's order, read out
    by one take through its index.  No intermediate holds more than max(vertex
    count, D^2) entries, and every entry and partial sum is an integer no
    larger than the mask's count, which float64 holds exactly.
    """
    order, tables, index = plan
    return _contract(mask.astype(np.float64), tables, order).ravel()[index]


def _vertices(rows: tuple[np.ndarray, ...], ids: np.ndarray) -> np.ndarray:
    """Admissible vectors (rows) of the canonical strategies with flat ids ``ids``."""
    vecs = np.ones((len(ids), 1), dtype=np.int64)
    picks = np.unravel_index(ids, [len(r) for r in rows])
    # last party first, so the broadcast's inner axis is the growing block
    for party, pick in zip(reversed(rows), reversed(picks)):
        width = party.shape[1] * vecs.shape[1]
        vecs = (party[pick][:, :, None] * vecs[:, None, :]).reshape(len(ids), width)
    return vecs


def _vertex_values(expr: BellExpression) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Canonical rows and the integer values denominator * I(v), over the grid
    of the parties' canonical rows, so flat canonical id k is C-order index k."""
    rows = _canonical_rows(expr.scenario)
    # int64 is exact while the largest possible |value| fits; otherwise fall
    # back to Python big ints in an object array.
    dtype = np.int64 if sum(map(abs, expr.numerators)) < _INT64_SAFE else object
    mats = rows if dtype is np.int64 else [party.astype(object) for party in rows]
    return rows, _contract(np.array(expr.numerators, dtype=dtype), mats, range(len(rows)))


def lr_max_with_witness(expr: BellExpression) -> tuple[Fraction, DeterministicStrategy]:
    """Exact local-realistic maximum and the first maximizing strategy."""
    rows, vals = _vertex_values(expr)
    picks = np.unravel_index(int(np.argmax(vals)), vals.shape)
    witness = _strategy(tuple(tuple(party[i].tolist()) for party, i in zip(rows, picks)))
    return Fraction(int(vals[picks]), expr.denominator), witness


def lr_max(expr: BellExpression) -> Fraction:
    """Exact maximum of the expression over all deterministic strategies."""
    return Fraction(int(_vertex_values(expr)[1].max()), expr.denominator)


def distinct_vertices(scenario: Scenario) -> np.ndarray:
    """All 2^(sum(m_p) - n + 1) polytope vertices, rows of +-1.

    Row k is the admissible vector of canonical strategy k, so the rows come
    in the bit order of their canonical strategies: each vertex appears where
    it first occurs when every strategy is listed in bit order.  A table of
    more than ``ENUMERATION_CAP`` entries is refused unbuilt.
    """
    rows = _canonical_rows(scenario)
    count, cols = math.prod(len(r) for r in rows), scenario.dimension
    message = "scenario {s} has {count} vertices x {cols} coordinates = {size} entries"
    _refuse_over_cap(count * cols, ENUMERATION_CAP, message, s=scenario, count=count, cols=cols)
    return _vertices(rows, np.arange(count))


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


def tightness(expr: BellExpression) -> TightnessReport:
    """Exact facet test: validity (lr_max <= 1) plus full-rank saturation.

    Saturating rows of more than ``ENUMERATION_CAP`` entries, or whose rank
    takes more than ``RANK_WORK_CAP`` elimination steps, are refused unbuilt.
    The rank takes two steps.  The Gram matrix G of the +-1 saturating rows'
    short side gets one certificate of full rank, and if it fails, Bareiss
    on the rows decides.  With at least D saturating vertices, G = A^T A is
    contracted from the pair tables, and the rows A are built only for
    Bareiss.  With fewer (G = A A^T), or past the pair tables' cap, G is
    formed from the rows in float64, which holds it exactly.
    """
    rows, vals = _vertex_values(expr)
    lr = Fraction(int(vals.max()), expr.denominator)
    mask = vals == expr.denominator  # value exactly 1
    saturating = np.flatnonzero(mask)
    count, cols = len(saturating), expr.scenario.dimension
    message = "{count} saturating vertices x {cols} coordinates need {size} {unit}"
    for size, cap, unit in (
        (count * cols, ENUMERATION_CAP, "entries"),
        (count * cols * min(count, cols), RANK_WORK_CAP, "elimination steps"),
    ):
        _refuse_over_cap(size, cap, message, count=count, cols=cols, unit=unit)
    plan = _gram_plan(expr.scenario) if count >= cols else None
    if plan is None:
        a = _vertices(rows, saturating)
        f = a.astype(np.float64)  # +-1 entries: every partial sum is at most the count
        gram = f @ f.T if count < cols else f.T @ f
    else:
        a, gram = None, _saturating_gram(plan, mask)
    if rational_linalg.certified_nonsingular(gram):
        rank = min(count, cols)
    else:  # the certificate had its one try on G: Bareiss on the saturating rows decides
        rank = rational_linalg.bareiss_rank(_vertices(rows, saturating) if a is None else a)
    valid = lr <= 1
    return TightnessReport(lr, count, rank, valid, is_tight=valid and rank == cols)


def _move(v: list[int], p: list[int], a: list[int], s: int) -> list[int]:
    """``v`` moved along ``p`` onto the hyperplane a . y = 0 (s = a . p < 0), made primitive."""
    t = sum(x * y for x, y in zip(a, v))
    w = [-s * x + t * y for x, y in zip(v, p)]  # a . w = -s t + t s = 0
    g = math.gcd(*w)
    return [x // g for x in w]


def _initial_cone(rows: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The first d independent rows (in order), plus the simplicial cone's rays.

    The double description's first phase, in Python ints: ``free`` spans the
    directions that no taken row constrains yet, from the d unit vectors on.
    A row is taken when a free direction does not annihilate it.  The first
    such direction p, signed so that the row is negative on it, becomes its
    ray, and every other free direction and ray moves along p onto the row's
    hyperplane.  So ray j spans the kernel of the other taken rows (its zero
    set), and row j is strictly negative on it.  d rows are taken because the
    rows span: the vertex set is full-dimensional and inversion symmetric.
    """
    d = rows.shape[1]
    free = [[int(i == k) for k in range(d)] for i in range(d)]
    basis: list[int] = []
    rays: list[list[int]] = []
    for i, a in enumerate(rows.tolist()):
        dots = [sum(x * y for x, y in zip(a, v)) for v in free]
        j = next((j for j, s in enumerate(dots) if s), None)
        if j is None:
            continue
        p, s = free.pop(j), -abs(dots[j])
        p = p if dots[j] < 0 else [-x for x in p]
        free = [_move(v, p, a, s) for v in free]
        rays = [_move(r, p, a, s) for r in rays] + [p]
        basis.append(i)
        if not free:
            break
    full = sum(1 << k for k in basis)
    masks = np.array([full & ~(1 << j) for j in basis], dtype=np.uint64)
    return basis, np.array(rays, dtype=np.int64), masks


def _adjacent_pairs(
    masks: np.ndarray, plus: np.ndarray, minus: np.ndarray, need: int, kept: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (p, n) of adjacent rays, by the combinatorial test.

    A pair is adjacent iff its common zero set has at least ``need`` = d - 2
    rows and no third ray's zero set contains it.  One ray p is taken at a
    time: only rays sharing ``need`` zeros with p can be its partners or hold
    a common zero set, so the containment test runs on those alone, in
    blocks of about ``_CHUNK`` entries.  Refused once the ``kept`` rays and
    one new ray per pair exceed ``FACET_RAY_CAP``.
    """
    minus_masks, not_masks = masks[minus], ~masks
    firsts, seconds = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    rays = kept
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
        rays += partners.size
        _refuse_over_cap(rays, FACET_RAY_CAP, "facet enumeration exceeded {cap} intermediate rays")
        firsts.append(np.full(partners.size, p))
        seconds.append(minus[partners])
    return np.concatenate(firsts), np.concatenate(seconds)


def _insert_row(
    rays: np.ndarray, masks: np.ndarray, row: np.ndarray, bit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Intersect the cone with {y : row . y <= 0}, one double-description step."""
    # |s| <= d max|row| max|r|, so |s+ r- - s- r+| <= 2 d max|row| max|r|^2
    bound = rays.shape[1] * int(np.abs(row).max()) * int(np.abs(rays).max()) ** 2
    _refuse_over_cap(bound, _INT64_SAFE - 1, "facet enumeration's int64 ray sums reach {size}")
    s = rays @ row
    plus, minus = np.flatnonzero(s > 0), np.flatnonzero(s < 0)
    kept = s <= 0
    kept_masks = masks[kept] | np.where(s[kept] == 0, np.uint64(1 << bit), np.uint64(0))
    p, n = _adjacent_pairs(masks, plus, minus, rays.shape[1] - 2, int(np.count_nonzero(kept)))
    new = s[p, None] * rays[n] - s[n, None] * rays[p]
    new //= np.gcd.reduce(new, axis=1)[:, None]
    new_masks = (masks[p] & masks[n]) | np.uint64(1 << bit)
    return np.concatenate([rays[kept], new]), np.concatenate([kept_masks, new_masks])


def _double_description(rows: np.ndarray) -> np.ndarray:
    """The extreme rays of the pointed cone {y : rows @ y <= 0}, for int64
    ``rows`` that span their columns, at most ``_MASK_BITS`` of them."""
    basis, rays, masks = _initial_cone(rows)
    for i in range(rows.shape[0]):
        if i not in basis:
            rays, masks = _insert_row(rays, masks, rows[i], i)
    return rays


@lru_cache(maxsize=16)
def enumerate_facets(scenario: Scenario) -> tuple[BellExpression, ...]:
    """All facets of the correlation polytope, normalized to right-hand side 1.

    Exact integer double description (Motzkin et al. 1953; Fukuda & Prodon
    1996) of the polar cone {(a, t) : v . a <= t for every distinct vertex
    v}: one elimination pass over the vertex rows builds the simplicial cone
    of the first D + 1 independent ones, then the cone is intersected with
    the remaining rows in ``distinct_vertices`` order (``_double_description``).
    Rays are gcd-normalized int64 vectors, each with its zero set as one
    uint64 bitmask over the vertex rows, and adjacency is tested
    combinatorially.  Every extreme ray has t > 0 (the vertex set is
    inversion symmetric and spans the space), so ray (a, t) is the facet
    (a / t) . x <= 1.

    Facets are returned sorted by their exact coefficient tuples.  Refused
    with ``EnumerationCapExceeded`` before any work when there are more than
    64 distinct vertices (the bitmask width), and mid-way when the rays
    would exceed ``FACET_RAY_CAP`` or int64.
    """
    message = "facet enumeration: scenario {s} has {size} distinct vertices"
    _refuse_over_cap(math.prod(_canonical_counts(scenario)), _MASK_BITS, message, s=scenario)
    verts = distinct_vertices(scenario)
    rays = _double_description(np.hstack([verts, -np.ones((len(verts), 1), dtype=np.int64)]))
    # sort exactly: a / t scaled by the common lcm of the t is an integer tuple
    a, t = rays[:, :-1].tolist(), rays[:, -1].tolist()
    lcm = math.lcm(*t)
    keys = sorted([x * (lcm // tk) for x in row] for row, tk in zip(a, t))
    return tuple(_exact(scenario, k, lcm) for k in keys)


# perfbench/workloads.py still calls the old name; the alias is the same
# object, so its tracer reports this function under that name.
enumerate_facets_brute = enumerate_facets
