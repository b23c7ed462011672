"""Quantum side: Bell operators, spectra, correlation tensors, see-saw search.

Conventions:

* Qubit p is party p and is the p-th tensor factor; basis kets are labelled
  ``|b_0 b_1 ... b_{n-1}>`` with qubit 0 the most significant bit.
* Measurement directions are real unit 3-vectors; the observable for
  direction v is ``v . (sigma_x, sigma_y, sigma_z)``.
* The correlation tensor of an n-qubit state holds the 3^n expectation
  values of products of one Pauli x/y/z observable per party.  The sum of
  its squared entries is invariant under local unitaries.
* Violation factors are Bell expectation values divided by the
  local-realistic bound; expressions are rescaled to lr_max = 1 before any
  quantum analysis (the scale, if not 1, is logged and reported).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .expressions import (
    ENUMERATION_CAP,
    BellExpression,
    Scenario,
    _contract,
    _index,
    _refuse_over_cap,
)
from .lifting import mabk
from .polytope import lr_max

logger = logging.getLogger(__name__)

PAULIS = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [0 + 1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

_HERMITICITY_TOL = 1e-10
_STATE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10
DEGENERACY_TOL = 1e-6
_CRITICAL_LAMBDA_RESOLUTION_DEG = 2e-3
_SEESAW_TIE_ROUNDOFF = 1e-12  # restart values this close to the best one tie
# n-qubit states and Bell operators are refused when 4^n exceeds ENUMERATION_CAP
_QUBIT_MATRIX = "a {exponent}-qubit matrix has 4^{exponent} entries"


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumState:
    """An n-qubit density matrix (validated Hermitian, unit trace, PSD)."""

    n: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _index(self.n))
        _refuse_over_cap(4, ENUMERATION_CAP, _QUBIT_MATRIX, exponent=self.n)
        rho = np.asarray(self.rho, dtype=np.complex128)
        if not np.isfinite(rho).all():  # NaN would pass every comparison below
            raise ValueError("density matrix has a non-finite entry")
        dim = 2**self.n
        if rho.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix for {self.n} qubits")
        if np.abs(rho - rho.conj().T).max() > _STATE_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > _STATE_TOL:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(rho).min() < _EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_ket(cls, amplitudes: Sequence[complex]) -> QuantumState:
        ket = np.asarray(amplitudes, dtype=np.complex128)
        n = ket.size.bit_length() - 1  # -1 for an empty ket, which the check below refuses
        if ket.ndim != 1 or 2**n != ket.size:
            raise ValueError(f"a ket must be 1-D, its length a power of two, got shape {ket.shape}")
        _refuse_over_cap(4, ENUMERATION_CAP, _QUBIT_MATRIX, exponent=n)
        norm = np.linalg.norm(ket)
        if not (np.isfinite(ket).all() and norm >= 1e-12):  # refused before dividing
            raise ValueError("cannot normalize a zero or non-finite ket")
        ket = ket / norm
        return cls(n, np.outer(ket, ket.conj()))


_QUBIT_KETS = {
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
    "+": np.array([1.0, 1.0]) / math.sqrt(2),
    "-": np.array([1.0, -1.0]) / math.sqrt(2),
}

# Each named pure state as {label: amplitude}, one label character per qubit
# from _QUBIT_KETS, before normalization.
_KETS: dict[str, dict[str, float]] = {
    "ghz4": {"0000": 1, "1111": 1},
    "w4": dict.fromkeys(["0001", "0010", "0100", "1000"], 1),
    "pdc": {"0011": 2, "1100": 2, "0101": -1, "0110": 1, "1001": 1, "1010": -1},
    "chi": {
        "0000": 1, "0011": -1, "0101": -1, "0110": 1,
        "1001": 1, "1010": 1, "1100": 1, "1111": 1,
    },
    "cluster4": dict.fromkeys(["+0+0", "+0-1", "-1-0", "-1+1"], 1),
    "bell-pair": {"00": 1, "11": 1},
}

STATE_NAMES = (*_KETS, "ghz", "product-zeros", "generalized-ghz")


def _ket_state(table: dict[str, float]) -> QuantumState:
    """The normalized sum of amplitude x product ket over a label table.

    All terms grow together, one qubit at a time, by an outer product.
    """
    factors = np.array([[_QUBIT_KETS[qubit] for qubit in label] for label in table])
    terms = np.array(list(table.values()), dtype=np.complex128)[:, None]
    for factor in factors.transpose(1, 0, 2):  # (terms, 2) per qubit
        terms = (terms[:, :, None] * factor[:, None, :]).reshape(len(terms), -1)
    return QuantumState.from_ket(terms.sum(axis=0))


def make_state(
    name: str,
    param: float | int | None = None,
    rho: np.ndarray | None = None,
) -> QuantumState:
    """Named states used throughout the analysis.

    The names are ``STATE_NAMES``.  ``ghz`` and ``product-zeros`` take the
    integer qubit count as ``param``; ``generalized-ghz`` takes the angle
    lambda in radians, restricted to [0, pi/4]; ``custom`` takes a density
    matrix via ``rho``.
    """
    if name == "custom":
        if rho is None:
            raise ValueError("custom state needs a density matrix")
        mat = np.asarray(rho, dtype=np.complex128)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError(f"density matrix must be a non-empty 2-D array, got shape {mat.shape}")
        return QuantumState(int(round(math.log2(mat.shape[0]))), mat)
    if name in _KETS:
        return _ket_state(_KETS[name])
    if name in ("ghz", "product-zeros"):
        n = None if param is None else _index(param)
        if n is None or n < 1:
            raise ValueError(f"{name} needs a positive qubit count")
        _refuse_over_cap(4, ENUMERATION_CAP, _QUBIT_MATRIX, exponent=n)  # before the labels exist
        labels = ["0" * n, "1" * n] if name == "ghz" else ["0" * n]
        return _ket_state(dict.fromkeys(labels, 1))
    if name == "generalized-ghz":
        if param is None:
            raise ValueError("generalized-ghz needs the angle lambda in radians")
        lam = float(param)
        if not 0.0 <= lam <= math.pi / 4 + 1e-15:
            raise ValueError("lambda must lie in [0, pi/4]")
        return _ket_state({"0000": math.cos(lam), "1111": math.sin(lam)})
    raise ValueError(f"unknown state name {name!r}")


# ---------------------------------------------------------------------------
# Measurement settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementSettings:
    """One unit direction per party per setting: arrays of shape (m_p, 3)."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        vecs = []
        for party in self.vectors:
            arr = np.asarray(party, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError("each party needs an (m, 3) array of directions")
            norms = np.linalg.norm(arr, axis=1)
            if not np.isfinite(arr).all() or np.abs(norms - 1.0).max() > 1e-9:
                raise ValueError("measurement directions must be unit vectors")
            arr.setflags(write=False)
            vecs.append(arr)
        object.__setattr__(self, "vectors", tuple(vecs))

    @classmethod
    def from_angles(cls, angles: Sequence[tuple[float, float, float]]) -> MeasurementSettings:
        """Three settings per party from angles (chi, theta, phi).

        Settings 0 and 1 are ``cos(chi) x +- sin(chi) y`` and setting 2 is
        the arbitrary direction ``sin(theta) sin(phi) x +
        sin(theta) cos(phi) y + cos(theta) z`` in the coordinate axes
        x, y, z.  Any pair of unit directions is brought to the settings-0/1
        form by a local rotation, which conjugates the Bell operator by a
        local unitary, so up to local unitaries this parametrization loses
        nothing.
        """
        vectors = []
        for chi, theta, phi in angles:
            c, s = math.cos(chi), math.sin(chi)
            a2 = [math.sin(theta) * math.sin(phi), math.sin(theta) * math.cos(phi), math.cos(theta)]
            vectors.append(np.array([[c, s, 0.0], [c, -s, 0.0], a2]))
        return cls(tuple(vectors))

    def matches(self, scenario: Scenario) -> bool:
        return tuple(v.shape[0] for v in self.vectors) == scenario.settings


# ---------------------------------------------------------------------------
# Operators and spectra
# ---------------------------------------------------------------------------


def bell_operator(expr: BellExpression, settings: MeasurementSettings) -> np.ndarray:
    """The Hermitian operator of the expression at the given directions.

    B = sum over Pauli indices x of alpha-tilde[x] sigma_x0 (x) ... (x) sigma_xn-1:
    ``_contract`` expands alpha-tilde on each party's Paulis, a (4, 3)
    matrix, and one transpose puts every row bit before every column bit.
    """
    n = expr.scenario.parties
    _refuse_over_cap(4, ENUMERATION_CAP, _QUBIT_MATRIX, exponent=n)
    paulis = [PAULIS.reshape(3, 4).T] * n
    op = _contract(contract_coefficients(expr, settings), paulis, range(n))
    rows_first = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return op.reshape((2,) * (2 * n)).transpose(rows_first).reshape((2**n,) * 2)


def expectation(
    expr: BellExpression, settings: MeasurementSettings, state: QuantumState
) -> float:
    """Tr(rho B) for the Bell operator at the given settings."""
    _require_one_qubit_per_party(expr.scenario, state)
    return float(np.vdot(bell_operator(expr, settings), state.rho).real)  # B is Hermitian


def _require_one_qubit_per_party(scenario: Scenario, state: QuantumState) -> None:
    if scenario.parties != state.n:
        raise ValueError(
            f"state has {state.n} qubits but the scenario has {scenario.parties} parties"
        )


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, plus degeneracy groups.

    ``groups`` holds (representative eigenvalue, multiplicity) pairs, where
    eigenvalues closer than the degeneracy tolerance are merged.
    """

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]


def spectrum(operator: np.ndarray, degeneracy_tol: float = DEGENERACY_TOL) -> Spectrum:
    """Eigenvalues of a Hermitian operator, grouped by near-degeneracy."""
    if not (math.isfinite(degeneracy_tol) and degeneracy_tol >= 0):
        raise ValueError(f"degeneracy_tol must be finite and non-negative, got {degeneracy_tol}")
    op = np.asarray(operator, dtype=np.complex128)
    if not np.isfinite(op).all():
        raise ValueError("operator has a non-finite entry")
    if np.abs(op - op.conj().T).max() > _HERMITICITY_TOL:
        raise ValueError("operator is not Hermitian")
    eigs = np.linalg.eigvalsh(op)[::-1]
    groups: list[tuple[float, int]] = []
    for value in eigs:
        if groups and abs(groups[-1][0] - value) <= degeneracy_tol:
            rep, count = groups[-1]
            groups[-1] = (rep, count + 1)
        else:
            groups.append((float(value), 1))
    return Spectrum(tuple(float(v) for v in eigs), tuple(groups))


# ---------------------------------------------------------------------------
# Correlation tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationTensor:
    """All 3^n products of one local basis observable per party."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _index(self.n))
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (3,) * self.n:
            raise ValueError(f"expected shape {(3,) * self.n}")
        if np.abs(values).max() > 1.0 + 1e-9:
            raise ValueError("correlation tensor entries must lie in [-1, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def correlation_tensor(state: QuantumState) -> CorrelationTensor:
    """Expectation values Tr(rho sigma_i1 ... sigma_in) over the Paulis."""
    n = state.n
    # one axis of length 4 per party: its (row, column) bits of rho
    bits = [a for p in range(n) for a in (p, n + p)]
    rho = state.rho.reshape((2,) * (2 * n)).transpose(bits).reshape((4,) * n)
    # Tr(rho X) contracts rho[a, b] with X[b, a]
    values = _contract(rho, [PAULIS.transpose(0, 2, 1).reshape(3, 4)] * n, range(n))
    if np.abs(values.imag).max() > 1e-10:
        raise ValueError("correlation tensor came out complex; state invalid?")
    return CorrelationTensor(n, values.real)


def sum_squared_correlations(state: QuantumState) -> float:
    """Sum of squared correlation-tensor entries (local-unitary invariant)."""
    return float(np.sum(correlation_tensor(state).values ** 2))


def _coefficient_tensor(expr: BellExpression) -> np.ndarray:
    """The coefficients over the setting axes, each rounded once like ``float(Fraction)``.

    A coefficient past float64's range is refused with ``ValueError``, which
    names its settings.
    """
    values = []
    for k, c in enumerate(expr.numerators):
        try:
            values.append(c / expr.denominator)
        except OverflowError:
            s = [int(i) for i in np.unravel_index(k, expr.scenario.settings)]
            raise ValueError(f"coefficient at settings {s} is past float64's range") from None
    return np.reshape(values, expr.scenario.settings)


def contract_coefficients(expr: BellExpression, settings: MeasurementSettings) -> np.ndarray:
    """Coefficients of the expression as a tensor over the Pauli axes.

    The returned alpha-tilde satisfies ``<T, alpha-tilde> = Tr(rho B)`` for
    every state, where T is the correlation tensor.
    """
    if not settings.matches(expr.scenario):
        raise ValueError(f"settings shape does not match scenario {expr.scenario}")
    message = "alpha-tilde of {exponent} parties has 3^{exponent} entries"
    _refuse_over_cap(3, ENUMERATION_CAP, message, exponent=expr.scenario.parties)
    mats = [vecs.T for vecs in settings.vectors]  # (3, m_p): the widest shrink most
    order = sorted(range(len(mats)), key=lambda p: -mats[p].shape[1])
    return _contract(_coefficient_tensor(expr), mats, order)


# ---------------------------------------------------------------------------
# See-saw maximization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 50
    max_sweeps: int = 500
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "max_sweeps", "seed"):
            object.__setattr__(self, name, _index(getattr(self, name)))
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_sweeps < 0:
            raise ValueError(f"max_sweeps must be non-negative, got {self.max_sweeps}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")


@dataclass(frozen=True)
class SeesawResult:
    """Best value found, the directions achieving it, and bookkeeping.

    ``scale`` is the factor the expression was multiplied by to normalize its
    local-realistic maximum to 1 (so the value is a violation factor);
    ``converged`` refers to the restart that produced the best value;
    ``trace`` holds that restart's per-sweep values (non-decreasing);
    ``restarts`` holds every restart's ``(value, sweeps, converged)`` in
    restart order.
    """

    value: float
    settings: MeasurementSettings
    converged: bool
    scale: Fraction
    trace: tuple[float, ...]
    restarts: tuple[tuple[float, int, bool], ...]


@lru_cache(maxsize=1)
def _initial_directions(seed: int, restarts: int, settings_total: int) -> np.ndarray:
    """Every restart's random unit directions, read-only, shape (restarts, settings_total, 3).

    Restart r draws from its own RNG, the r-th child of ``SeedSequence(seed)``.
    The one entry kept holds restarts x settings_total x 3 floats, no more than
    the capped see-saw batch of the call that asked for it.
    """
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(restarts)]
    draws = np.stack([rng.normal(size=(settings_total, 3)) for rng in rngs])
    directions = draws / np.linalg.norm(draws, axis=2, keepdims=True)
    directions.setflags(write=False)
    return directions


def seesaw_maximize(
    expr: BellExpression,
    state: QuantumState,
    config: SeesawConfig | None = None,
) -> SeesawResult:
    """Alternating maximization of Tr(rho B) over measurement directions.

    For fixed directions of all other parties the expectation is linear in
    each of party p's direction vectors, with gradient W; the update replaces
    the direction by W/|W| (kept unchanged when W = 0).  A restart sweeps
    until its improvement drops below ``tol`` or ``max_sweeps`` is hit; the
    search starts ``restarts`` times from random directions, each drawn from
    its own RNG split from the master seed (``_initial_directions``).  The
    restarts run as one batch over the kernel ``coeffs x T``, each party's
    setting and Pauli axes fused into one.  A sweep takes the parties in
    pairs (p, p + 1), an odd last party alone.  Each pair keeps its kernel as
    one matrix, the other parties' axes as rows and the pair's as columns;
    the outer product v of the other parties' directions, one elementwise
    product per further party, then gives every restart's pair matrix M by
    one GEMM, v @ K.  W_p = M u_{p+1} updates party p, then W_{p+1} = M^T u_p,
    from the new u_p, updates party p + 1, so the parties update in order as
    if one at a time.  The value is <W, u> of a gradient and its party's
    directions (party 0 before the first sweep, the last party after each);
    a restart leaves the batch once it stops, and only then are the views of
    the batch rebuilt.  The earliest restart within ``_SEESAW_TIE_ROUNDOFF``
    of the best value wins.  This is a heuristic for the true quantum
    maximum: values are certified lower bounds only.
    """
    cfg = config or SeesawConfig()
    scenario = expr.scenario
    _require_one_qubit_per_party(scenario, state)
    n = scenario.parties
    dims = [3 * m for m in scenario.settings]
    entries = math.prod(dims)
    message = "see-saw batch of {restarts} restarts x {entries} kernel entries is {size}"
    batch = cfg.restarts * entries
    _refuse_over_cap(batch, ENUMERATION_CAP, message, restarts=cfg.restarts, entries=entries)
    bound = lr_max(expr)
    if bound <= 0:
        raise ValueError("expression has non-positive local-realistic maximum")
    scale = Fraction(1) / bound
    if scale != 1:
        logger.info("rescaling expression by %s to normalize lr_max to 1", scale)
    coeffs = _coefficient_tensor(expr.scaled(scale))
    corr = correlation_tensor(state).values
    # kernel[(j_0, i_0), ..., (j_n-1, i_n-1)] = coeffs[j_0, ...] * corr[i_0, ...]
    fused = [ax for p in range(n) for ax in (p, n + p)]
    kernel = np.multiply.outer(coeffs, corr).transpose(fused).reshape(dims)
    plans = []  # (pair, the other parties, the pair's kernel matrix)
    for p in range(0, n, 2):
        pair = tuple(range(p, min(p + 2, n)))
        others = [q for q in range(n) if q not in pair]
        k = kernel.transpose([*others, *pair])
        if others:
            k = k.reshape(-1, math.prod(dims[q] for q in pair))
        plans.append((pair, others, np.ascontiguousarray(k)))

    restarts = cfg.restarts
    cuts = np.cumsum(scenario.settings)[:-1]
    # final[r] holds restart r's directions party after party, as of its last sweep
    final = _initial_directions(cfg.seed, restarts, sum(scenario.settings)).copy()
    # the batch: units[p] holds party p's (m_p, 3) directions of every live restart
    units = [d.copy() for d in np.split(final, cuts, axis=1)]

    def views(units: list[np.ndarray]) -> tuple[list, list, list]:
        """Each party's directions as (b, 3m_p), (b, 3m_p, 1) and (b, 1, 3m_p) views."""
        flat = [d.reshape(len(d), dim) for d, dim in zip(units, dims)]
        return flat, [f[:, :, None] for f in flat], [f[:, None, :] for f in flat]

    def pair_matrix(others: list[int], k: np.ndarray) -> np.ndarray:
        """Every restart's pair matrix M, flat: v of the other parties' directions, times K."""
        if not others:
            return k
        first, *rest = others
        v = flat[first]
        for q in rest:
            v = (v[:, :, None] * cols[q]).reshape(len(v), -1)
        return v @ k

    def turn(p: int, w: np.ndarray) -> None:
        """Point party p's directions along its gradient W."""
        w = w.reshape(-1, scenario.settings[p], 3)
        norms = np.sqrt(np.vecdot(w, w, keepdims=True))
        np.divide(w, norms, out=units[p], where=norms != 0)  # W = 0 keeps the direction

    flat, rows, cols = views(units)
    pair, others, k = plans[0]
    w = pair_matrix(others, k)
    if len(pair) == 2:
        w = np.matmul(w.reshape(-1, dims[0], dims[1]), rows[1])
    # history[s][r] is restart r's value after s sweeps
    history = [np.vecdot(w.reshape(-1, dims[0]), flat[0])]
    sweeps = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for sweep in range(1, cfg.max_sweeps + 1):
        if not active.size:
            break
        for pair, others, k in plans:
            w = pair_matrix(others, k)
            if len(pair) == 2:
                p, q = pair
                m = w.reshape(-1, dims[p], dims[q])
                turn(p, np.matmul(m, rows[q]))
                w = np.matmul(cols[p], m)
            turn(pair[-1], w)
        now = np.vecdot(w.reshape(-1, dims[-1]), flat[-1])  # <W, u>, last party
        done = now - history[-1][active] < cfg.tol
        history.append(history[-1].copy())
        history[-1][active] = now
        stop = done | (sweep == cfg.max_sweeps)
        if stop.any():
            converged[active[done]] = True
            sweeps[active[stop]] = sweep
            final[active[stop]] = np.concatenate([d[stop] for d in units], axis=1)
            units = [d[~stop] for d in units]
            flat, rows, cols = views(units)
            active = active[~stop]

    values = history[-1]
    best = int(np.flatnonzero(values >= values.max() - _SEESAW_TIE_ROUNDOFF)[0])
    return SeesawResult(
        value=float(values[best]),
        settings=MeasurementSettings(tuple(np.split(final[best], cuts))),
        converged=bool(converged[best]),
        scale=scale,
        trace=tuple(float(h[best]) for h in history[: sweeps[best] + 1]),
        restarts=tuple(
            (float(v), int(s), bool(c)) for v, s, c in zip(values, sweeps, converged)
        ),
    )


# ---------------------------------------------------------------------------
# MABK specifics
# ---------------------------------------------------------------------------


def mabk_optimal_settings(n: int) -> MeasurementSettings:
    """Closed-form optimal directions for the n-party MABK expression.

    All directions lie in the x-y plane; party p uses angles
    ``(phi_p, phi_p - pi/2)``.  On the n-qubit GHZ state the correlator of
    in-plane directions is ``cos(sum of angles)``, which turns the expression
    into the real part of a fixed complex number times a global phase; the
    optimal global phase is carried by party 0.  At these settings the Bell
    operator reaches the quantum maximum (sqrt 2)^(n-1).
    """
    n = _index(n)
    if n < 1:
        raise ValueError("mabk needs at least one party")
    g = 1 + 0j
    for k in range(2, n + 1):
        swapped = (-1j) ** (k - 1) * g.conjugate()
        g = g * (1 - 1j) / 2 + swapped * (1 + 1j) / 2
    phase = -np.angle(g)
    vectors = []
    for p in range(n):
        phi = phase if p == 0 else 0.0
        vectors.append([[math.cos(a), math.sin(a), 0.0] for a in (phi, phi - math.pi / 2)])
    return MeasurementSettings(tuple(vectors))


def mabk_critical_lambda(config: SeesawConfig | None = None) -> float:
    """Angle (degrees) where generalized GHZ states start violating 4-party MABK.

    Bisection on the see-saw violation factor of the four-party MABK
    expression over ``cos(lambda)|0000> + sin(lambda)|1111>``.  The result
    satisfies sin(2 lambda) = 1/sqrt(8).
    """
    expr = mabk(4)
    cfg = config or SeesawConfig()

    def violates(lam_deg: float) -> bool:
        state = make_state("generalized-ghz", math.radians(lam_deg))
        return seesaw_maximize(expr, state, cfg).value > 1.0 + 1e-7

    lo, hi = 5.0, 15.0
    if violates(lo) or not violates(hi):
        raise RuntimeError("bisection bracket does not straddle the threshold")
    while hi - lo > _CRITICAL_LAMBDA_RESOLUTION_DEG:
        mid = 0.5 * (lo + hi)
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
