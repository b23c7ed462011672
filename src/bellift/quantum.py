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
from typing import Sequence

import numpy as np

from .expressions import BellExpression, Scenario
from .polytope import ENUMERATION_CAP, EnumerationCapExceeded, lr_max

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


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumState:
    """An n-qubit density matrix (validated Hermitian, unit trace, PSD)."""

    n: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        _check_qubit_count(self.n)
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
        n = int(round(math.log2(ket.size)))
        if 2**n != ket.size:
            raise ValueError("ket length must be a power of two")
        _check_qubit_count(n)
        norm = np.linalg.norm(ket)
        if not (np.isfinite(ket).all() and norm >= 1e-12):  # refused before dividing
            raise ValueError("cannot normalize a zero or non-finite ket")
        ket = ket / norm
        return cls(n, np.outer(ket, ket.conj()))


def _check_qubit_count(n: int) -> None:
    """Refuse n-qubit matrices (states, Bell operators) whose 4^n entries exceed the cap."""
    if 4**n > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"a {n}-qubit matrix has 4^{n} entries, over the cap of {ENUMERATION_CAP}"
        )


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
    qubit count as ``param``; ``generalized-ghz`` takes the angle lambda in
    radians, restricted to [0, pi/4]; ``custom`` takes a density matrix via
    ``rho``.
    """
    if name == "custom":
        if rho is None:
            raise ValueError("custom state needs a density matrix")
        mat = np.asarray(rho, dtype=np.complex128)
        return QuantumState(int(round(math.log2(mat.shape[0]))), mat)
    if name in _KETS:
        return _ket_state(_KETS[name])
    if name in ("ghz", "product-zeros"):
        if param is None or int(param) < 1:
            raise ValueError(f"{name} needs a positive qubit count")
        n = int(param)
        _check_qubit_count(n)  # before the labels or the ket exist
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

    The coefficients contract with each party's (m_p, 2, 2) observables in
    ``_contract_parties``, the contraction that also gives T and alpha-tilde;
    it returns the row axes before the column axes, so one reshape gives B.
    """
    _check_qubit_count(expr.scenario.parties)
    if not settings.matches(expr.scenario):
        raise ValueError(f"settings shape does not match scenario {expr.scenario}")
    observables = [np.tensordot(vecs, PAULIS, 1) for vecs in settings.vectors]
    op = _contract_parties(_coefficient_tensor(expr), observables)
    return op.reshape((2**expr.scenario.parties,) * 2)


def expectation(
    expr: BellExpression, settings: MeasurementSettings, state: QuantumState
) -> float:
    """Tr(rho B) for the Bell operator at the given settings."""
    return float(np.vdot(bell_operator(expr, settings), state.rho).real)  # B is Hermitian


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
    values = _contract_parties(rho, [PAULIS.transpose(2, 1, 0).reshape(4, 3)] * n)
    if np.abs(values.imag).max() > 1e-10:
        raise ValueError("correlation tensor came out complex; state invalid?")
    return CorrelationTensor(n, values.real)


def sum_squared_correlations(state: QuantumState) -> float:
    """Sum of squared correlation-tensor entries (local-unitary invariant)."""
    return float(np.sum(correlation_tensor(state).values ** 2))


def _coefficient_tensor(expr: BellExpression) -> np.ndarray:
    """The coefficients over the setting axes, each rounded once like ``float(Fraction)``."""
    return np.reshape([c / expr.denominator for c in expr.numerators], expr.scenario.settings)


def contract_coefficients(expr: BellExpression, settings: MeasurementSettings) -> np.ndarray:
    """Coefficients of the expression as a tensor over the Pauli axes.

    The returned alpha-tilde satisfies ``<T, alpha-tilde> = Tr(rho B)`` for
    every state, where T is the correlation tensor.
    """
    if not settings.matches(expr.scenario):
        raise ValueError(f"settings shape does not match scenario {expr.scenario}")
    return _contract_parties(_coefficient_tensor(expr), settings.vectors)


def _contract_parties(tensor: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Contract axis p of ``tensor`` with the first axis of ``mats[p]`` for every p.

    One ``tensordot`` per party, those that shrink the tensor most first, so no
    intermediate outgrows both the input and the result.  The result holds each
    party's second matrix axis in party order, then each party's third.
    """
    order = sorted(range(len(mats)), key=lambda p: mats[p][0].size / len(mats[p]))
    out = tensor.transpose(order)
    for p in order:
        out = np.tensordot(out, mats[p], (0, 0))
    width = mats[0].ndim - 1 if mats else 0  # matrix axes left per party
    return out.transpose([width * i + k for k in range(width) for i in np.argsort(order)])


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
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_sweeps < 0:
            raise ValueError(f"max_sweeps must be non-negative, got {self.max_sweeps}")
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


def _random_directions(rng: np.random.Generator, m: int) -> np.ndarray:
    vecs = rng.normal(size=(m, 3))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


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
    its own RNG split from the master seed.  The restarts run as one batch:
    a gradient is one contraction of the kernel ``coeffs x T`` (each party's
    setting and Pauli axes fused into one) with the other parties' directions,
    and the value is <W, u> of a gradient and its party's directions (party 0
    before the first sweep, the last party after each); a restart leaves the
    batch once it stops.  The earliest restart within ``_SEESAW_TIE_ROUNDOFF``
    of the best value wins.  This is a heuristic for the true quantum
    maximum: values are certified lower bounds only.
    """
    cfg = config or SeesawConfig()
    scenario = expr.scenario
    if scenario.parties != state.n:
        raise ValueError(
            f"state has {state.n} qubits but the scenario has {scenario.parties} parties"
        )
    n = scenario.parties
    dims = [3 * m for m in scenario.settings]
    batch_size = cfg.restarts * math.prod(dims)
    if batch_size > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"see-saw batch of {cfg.restarts} restarts x {math.prod(dims)} kernel "
            f"entries is {batch_size}, over the cap of {ENUMERATION_CAP}"
        )
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
    # kernels[p] has party p's axis first, so the others contract from the end
    kernels = [np.ascontiguousarray(np.moveaxis(kernel, p, 0)) for p in range(n)]

    def gradient(units: list[np.ndarray], p: int) -> np.ndarray:
        """The kernel contracted with all directions but party p's: shape (batch, m_p, 3)."""
        t = kernels[p]
        batch, shape = len(units[0]), units[p].shape
        others = [q for q in range(n) if q != p]
        if not others:
            return np.broadcast_to(t.reshape(shape[1:]), shape)
        q = others.pop()
        t = units[q].reshape(batch, -1) @ t.reshape(-1, dims[q]).T
        for q in reversed(others):
            t = np.matmul(t.reshape(batch, -1, dims[q]), units[q].reshape(batch, -1, 1))
        return t.reshape(shape)

    restarts = cfg.restarts
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(restarts)]
    draws = [[_random_directions(rng, m) for m in scenario.settings] for rng in rngs]
    final = [np.stack([d[p] for d in draws]) for p in range(n)]
    history = [(gradient(final, 0) * final[0]).sum(axis=(1, 2))]  # [s][r]: restart r after s sweeps
    sweeps = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    units = [u.copy() for u in final]
    for sweep in range(1, cfg.max_sweeps + 1):
        if not active.size:
            break
        for p in range(n):
            w = gradient(units, p)
            norms = np.sqrt(np.add.reduce(w * w, axis=2, keepdims=True))
            np.divide(w, norms, out=units[p], where=norms != 0)  # W = 0 keeps the direction
        values = history[-1].copy()
        values[active] = (w * units[-1]).sum(axis=(1, 2))  # <W, u> of the last party
        history.append(values)
        done = values[active] - history[-2][active] < cfg.tol
        converged[active[done]] = True
        sweeps[active] = sweep
        stop = done | (sweep == cfg.max_sweeps)
        if stop.any():
            for p in range(n):
                final[p][active[stop]] = units[p][stop]
                units[p] = units[p][~stop]
            active = active[~stop]

    values = history[-1]
    best = int(np.flatnonzero(values >= values.max() - _SEESAW_TIE_ROUNDOFF)[0])
    return SeesawResult(
        value=float(values[best]),
        settings=MeasurementSettings(tuple(u[best] for u in final)),
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
        vectors.append(
            np.array(
                [
                    [math.cos(phi), math.sin(phi), 0.0],
                    [math.cos(phi - math.pi / 2), math.sin(phi - math.pi / 2), 0.0],
                ]
            )
        )
    return MeasurementSettings(tuple(vectors))


def mabk_critical_lambda(config: SeesawConfig | None = None) -> float:
    """Angle (degrees) where generalized GHZ states start violating 4-party MABK.

    Bisection on the see-saw violation factor of the four-party MABK
    expression over ``cos(lambda)|0000> + sin(lambda)|1111>``.  The result
    satisfies sin(2 lambda) = 1/sqrt(8).
    """
    from .lifting import mabk  # local import to avoid a cycle at module load

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
