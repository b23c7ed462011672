"""States, operators, correlation tensors, and the see-saw optimizer."""

import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bellift import (
    ENUMERATION_CAP,
    BellExpression,
    CorrelationTensor,
    EnumerationCapExceeded,
    MeasurementSettings,
    PAULIS,
    QuantumState,
    Scenario,
    SeesawConfig,
    bell_operator,
    contract_coefficients,
    correlation_tensor,
    expectation,
    four_party_19,
    lift2,
    lr_max,
    mabk,
    mabk_optimal_settings,
    make_state,
    quantum,
    seesaw_maximize,
    spectrum,
    sum_squared_correlations,
    symmetry_images,
    wbz333,
)

CHSH = mabk(2)
BELL = make_state("bell-pair")


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(1, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        QuantumState(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        QuantumState(1, np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize(
    "rho",
    [np.diag([math.nan, 1, 0, 0]), np.full((4, 4), math.nan), np.diag([math.inf, 0, 0, 0])],
)
def test_state_refuses_non_finite_entries(rho):
    # NaN fails every ">" check; a state that kept it would reach the see-saw's tie rule
    with pytest.raises(ValueError, match="non-finite"):
        make_state("custom", rho=rho)


def test_named_states_are_valid_density_matrices():
    for name in ["ghz4", "bell-pair", "w4", "pdc", "chi", "cluster4"]:
        state = make_state(name)
        assert np.isclose(np.trace(state.rho).real, 1.0)
        assert state.n == (2 if name == "bell-pair" else 4)


def test_make_state_domain_errors():
    with pytest.raises(ValueError):
        make_state("nope")
    with pytest.raises(ValueError):
        make_state("generalized-ghz", 1.0)  # outside [0, pi/4]
    with pytest.raises(ValueError):
        make_state("ghz")
    with pytest.raises(ValueError):
        make_state("custom")


def test_qubit_counts_must_be_integers():
    # a float count is refused rather than truncated (2.7 used to build 2 qubits);
    # bellift corr-tensor --parties is covered by test_cli's per-state test
    for name in ("ghz", "product-zeros"):
        with pytest.raises(TypeError):
            make_state(name, 2.7)
        with pytest.raises(TypeError):
            make_state(name, 3.0)
        assert make_state(name, np.int64(3)).n == 3


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: QuantumState(1, np.eye(4) / 4), "2x2 matrix"),
        (lambda: QuantumState.from_ket([1, 0, 0]), "power of two"),
        (lambda: make_state("generalized-ghz"), "needs the angle"),
        (lambda: MeasurementSettings((np.eye(2),)), r"\(m, 3\)"),
        (lambda: CorrelationTensor(2, np.zeros(3)), "expected shape"),
        (lambda: CorrelationTensor(1, [2.0, 0.0, 0.0]), r"\[-1, 1\]"),
        (lambda: contract_coefficients(CHSH, mabk_optimal_settings(3)), "settings shape"),
        (lambda: seesaw_maximize(BellExpression.zero(Scenario((2, 2))), BELL), "non-positive"),
        (lambda: mabk_optimal_settings(0), "at least one party"),
        (lambda: QuantumState.from_ket(np.ones((2, 2))), r"shape \(2, 2\)"),
        (lambda: QuantumState.from_ket([]), r"shape \(0,\)"),
        (lambda: make_state("custom", rho=np.zeros((0, 0))), r"shape \(0, 0\)"),
        (lambda: make_state("custom", rho=5.0), r"shape \(\)"),
        (lambda: spectrum(np.eye(2), math.nan), "finite and non-negative"),
        (lambda: spectrum(np.eye(2), -1.0), "finite and non-negative"),
        (lambda: spectrum(np.eye(2), math.inf), "finite and non-negative"),
    ],
    ids=[
        "state-shape", "ket-length", "generalized-ghz-angle", "directions-shape",
        "tensor-shape", "tensor-entry", "coefficient-settings", "seesaw-zero-bound",
        "mabk-parties", "ket-2d", "ket-empty", "rho-empty", "rho-scalar",
        "spectrum-tol-nan", "spectrum-tol-negative", "spectrum-tol-inf",
    ],
)
def test_malformed_arguments_are_refused(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_from_ket_refuses_non_finite_amplitudes_before_dividing(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a division by a NaN norm would warn first
        with pytest.raises(ValueError, match="non-finite"):
            QuantumState.from_ket([bad, 1])


@pytest.mark.parametrize(
    "state", [make_state("custom", rho=[[1.0]]), QuantumState.from_ket([1])], ids=["rho", "ket"]
)
def test_zero_qubit_state_has_unit_correlation(state):
    assert state.n == 0
    assert correlation_tensor(state).values == 1.0


def test_state_size_caps_refuse_before_allocating():
    qubits = (ENUMERATION_CAP.bit_length() - 1) // 2  # the most with 4^n entries under the cap
    assert qubits >= 4  # the named states stay under it
    with pytest.raises(EnumerationCapExceeded):
        make_state("ghz", 40)  # a 16 TiB ket if it were built
    with pytest.raises(EnumerationCapExceeded):
        make_state("ghz", 10**9)  # refused by its exponent: 4^n is never built
    with pytest.raises(EnumerationCapExceeded):
        make_state("product-zeros", qubits + 1)
    with pytest.raises(EnumerationCapExceeded):
        QuantumState(qubits + 1, np.eye(2))  # refused before the shape check


ZERO, ONE = np.array([1.0, 0.0]), np.array([0.0, 1.0])
PLUS, MINUS = (ZERO + ONE) / math.sqrt(2), (ZERO - ONE) / math.sqrt(2)


def basis(bits):
    ket = np.zeros(2 ** len(bits))
    ket[int(bits, 2)] = 1.0
    return ket


@pytest.mark.parametrize(
    "name, param, ket",
    [
        ("ghz4", None, (basis("0000") + basis("1111")) / math.sqrt(2)),
        ("bell-pair", None, (basis("00") + basis("11")) / math.sqrt(2)),
        ("w4", None, (basis("0001") + basis("0010") + basis("0100") + basis("1000")) / 2),
        (
            "pdc",
            None,
            math.sqrt(1 / 3)
            * (
                basis("0011")
                + basis("1100")
                - (basis("0101") - basis("0110") - basis("1001") + basis("1010")) / 2
            ),
        ),
        (
            "chi",
            None,
            (
                basis("0000") - basis("0011") - basis("0101") + basis("0110")
                + basis("1001") + basis("1010") + basis("1100") + basis("1111")
            )
            / math.sqrt(8),
        ),
        (
            "cluster4",
            None,
            (
                kron_chain([PLUS, ZERO, PLUS, ZERO])
                + kron_chain([PLUS, ZERO, MINUS, ONE])
                + kron_chain([MINUS, ONE, MINUS, ZERO])
                + kron_chain([MINUS, ONE, PLUS, ONE])
            )
            / 2,
        ),
        ("ghz", 1, (ZERO + ONE) / math.sqrt(2)),
        ("ghz", 3, (basis("000") + basis("111")) / math.sqrt(2)),
        ("product-zeros", 2, basis("00")),
        ("generalized-ghz", 0.0, basis("0000")),
        ("generalized-ghz", 0.3, math.cos(0.3) * basis("0000") + math.sin(0.3) * basis("1111")),
        ("generalized-ghz", math.pi / 4, (basis("0000") + basis("1111")) / math.sqrt(2)),
    ],
)
def test_named_kets_entrywise(name, param, ket):
    # trace and sum T^2 are blind to a sign or phase slip that is a local unitary
    rho = make_state(name, param).rho
    assert np.abs(rho - np.outer(ket, ket.conj())).max() <= 1e-15


def test_generalized_ghz_endpoints():
    assert np.allclose(make_state("generalized-ghz", math.pi / 4).rho, make_state("ghz4").rho)
    assert np.allclose(make_state("generalized-ghz", 0.0).rho, make_state("product-zeros", 4).rho)


# ---------------------------------------------------------------------------
# correlation tensors
# ---------------------------------------------------------------------------


def _correlation_tensor_oracle(state):
    """Tr(rho sigma_i1 ... sigma_in) as one einsum over all bits at once."""
    n = state.n
    operands = [state.rho.reshape((2,) * (2 * n)), list(range(2 * n))]
    for p in range(n):  # Tr(rho X) contracts rho[a, b] with X[b, a]
        operands.extend([PAULIS, [2 * n + p, n + p, p]])
    return np.einsum(*operands, list(range(2 * n, 3 * n))).real


def _random_mixed_state(n, rank, seed):
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(rank, 2**n)) + 1j * rng.normal(size=(rank, 2**n))
    rho = kets.T @ kets.conj()
    return make_state("custom", rho=rho / np.trace(rho).real)


ORACLE_STATES = {
    "ghz1": make_state("ghz", 1),
    "bell-pair": make_state("bell-pair"),
    "ghz3": make_state("ghz", 3),
    "w4": make_state("w4"),
    "pdc": make_state("pdc"),
    "cluster4": make_state("cluster4"),
    "generalized-ghz": make_state("generalized-ghz", 0.3),
    "mixed3": _random_mixed_state(3, 2, seed=7),
    "mixed5": _random_mixed_state(5, 3, seed=8),
}


@pytest.mark.parametrize("name", ORACLE_STATES)
def test_correlation_tensor_matches_the_einsum_oracle(name):
    state = ORACLE_STATES[name]
    tensor = correlation_tensor(state).values
    assert np.abs(tensor - _correlation_tensor_oracle(state)).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_ghz_sum_squared_correlations_closed_form(n):
    # 2^(n-1) x/y products of +-1 with an even count of y, plus z^n on even n
    expected = 2 ** (n - 1) + (n % 2 == 0)
    assert abs(sum_squared_correlations(make_state("ghz", n)) - expected) < 1e-9


def test_correlation_tensor_against_kron_oracle():
    """Recompute every entry with explicit Kronecker products and traces."""
    for name in ["w4", "cluster4"]:
        state = make_state(name)
        tensor = correlation_tensor(state).values
        for idx in product(range(3), repeat=4):
            op = kron_chain([PAULIS[i] for i in idx])
            direct = np.trace(state.rho @ op).real
            assert abs(tensor[idx] - direct) < 1e-12


def test_correlation_tensor_reference_entries():
    zzzz = (2, 2, 2, 2)
    assert np.isclose(correlation_tensor(make_state("ghz4")).values[zzzz], 1.0)
    assert np.isclose(correlation_tensor(make_state("w4")).values[zzzz], -1.0)


def test_sum_squared_correlations_reference_values():
    assert np.isclose(sum_squared_correlations(make_state("product-zeros", 4)), 1.0)
    assert np.isclose(sum_squared_correlations(BELL), 3.0)
    values = {
        "ghz4": 9.0,
        "w4": 4.0,
        "pdc": 9.0,
        "chi": 5.0,
        "cluster4": 5.0,
    }
    for name, expected in values.items():
        assert abs(sum_squared_correlations(make_state(name)) - expected) < 1e-9


def test_sum_squared_correlations_is_rotation_invariant():
    # a local unitary rotates each party's Pauli axes: rho -> U rho U^dagger
    rng = np.random.default_rng(5)
    state = make_state("pdc")
    base = sum_squared_correlations(state)
    for _ in range(5):
        gaussians = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        u = kron_chain([np.linalg.qr(g)[0] for g in gaussians])
        rotated = QuantumState(4, u @ state.rho @ u.conj().T)
        assert not np.allclose(correlation_tensor(rotated).values, correlation_tensor(state).values)
        assert abs(sum_squared_correlations(rotated) - base) < 1e-9


def test_generalized_ghz_closed_form():
    for lam in np.linspace(0, math.pi / 4, 9):
        got = sum_squared_correlations(make_state("generalized-ghz", float(lam)))
        assert abs(got - (5 - 4 * math.cos(4 * lam))) < 1e-9


# ---------------------------------------------------------------------------
# operators and spectra
# ---------------------------------------------------------------------------


def z_settings(parties, m):
    return MeasurementSettings(tuple(np.tile([0.0, 0.0, 1.0], (m, 1)) for _ in range(parties)))


def test_bell_operator_zz():
    e = BellExpression.from_terms(Scenario((1, 1)), [((0, 0), 1)])
    op = bell_operator(e, z_settings(2, 1))
    assert np.allclose(op, np.diag([1, -1, -1, 1]))


def _bell_operator_oracle(expr, settings):
    """The Bell operator as a sum over the nonzero terms of Kronecker products."""
    observables = [np.einsum("ji,ikl->jkl", party, PAULIS) for party in settings.vectors]
    dim = 2**expr.scenario.parties
    op = np.zeros((dim, dim), dtype=np.complex128)
    for idx, c in expr.terms():
        op += float(c) * kron_chain([observables[p][j] for p, j in enumerate(idx)])
    return op


def _contract_coefficients_oracle(expr, settings):
    """alpha-tilde as one einsum of the coefficients with every party's directions."""
    n = expr.scenario.parties
    coeffs = np.array([float(c) for c in expr.coeffs]).reshape(expr.scenario.settings)
    operands = [coeffs, list(range(n))]
    for p, vecs in enumerate(settings.vectors):
        operands.extend([vecs, [p, n + p]])
    return np.einsum(*operands, list(range(n, 2 * n)))


ORACLE_SCENARIOS = [(1,), (2, 3), (3, 2, 1), (1, 3, 2, 2), (3, 3, 3, 3)]


def _random_case(settings):
    """A random rational expression and random directions on the scenario."""
    rng = np.random.default_rng(sum(settings))
    scenario = Scenario(settings)
    nums = rng.integers(-9, 10, size=scenario.dimension)
    dens = rng.integers(1, 8, size=scenario.dimension)
    expr = BellExpression(scenario, [Fraction(int(a), int(b)) for a, b in zip(nums, dens)])
    vecs = [rng.normal(size=(m, 3)) for m in settings]
    dirs = MeasurementSettings(tuple(v / np.linalg.norm(v, axis=1, keepdims=True) for v in vecs))
    return expr, dirs


@pytest.mark.parametrize("settings", ORACLE_SCENARIOS)
def test_bell_operator_matches_the_kron_oracle(settings):
    # random directions and unequal setting counts see a slip in bit or party order
    expr, dirs = _random_case(settings)
    op = bell_operator(expr, dirs)
    assert np.abs(op - _bell_operator_oracle(expr, dirs)).max() <= 1e-12


@pytest.mark.parametrize("settings", ORACLE_SCENARIOS)
def test_contract_coefficients_matches_the_einsum_oracle(settings):
    expr, dirs = _random_case(settings)
    alpha = contract_coefficients(expr, dirs)
    assert alpha.shape == (3,) * len(settings)
    assert np.abs(alpha - _contract_coefficients_oracle(expr, dirs)).max() <= 1e-12


def test_bell_operator_intermediates_stay_within_its_inputs_and_output(product_sizes):
    # parties with one setting first would grow 16 coefficients to 16 * 3^3 entries;
    # four products give alpha-tilde, and four more expand it on the Paulis
    expr = BellExpression(Scenario((1, 1, 1, 16)), range(16))
    dirs = MeasurementSettings(tuple(np.tile([0.0, 0.0, 1.0], (m, 1)) for m in (1, 1, 1, 16)))
    op = bell_operator(expr, dirs)
    assert op.shape == (16, 16) and len(product_sizes) == 8 and max(product_sizes) == op.size


@pytest.mark.parametrize("settings", [(1, 1, 1, 16), (16, 1, 1, 1)])
def test_contract_coefficients_intermediates_stay_within_its_inputs_and_output(
    product_sizes, settings
):
    # in party order (1, 1, 1, 16) would grow 16 coefficients to 16 * 3^3 entries
    expr = BellExpression(Scenario(settings), range(16))
    dirs = MeasurementSettings(tuple(np.tile([0.0, 0.0, 1.0], (m, 1)) for m in settings))
    alpha = contract_coefficients(expr, dirs)
    assert alpha.shape == (3,) * 4 and len(product_sizes) == 4 and max(product_sizes) == alpha.size
    assert alpha[2, 2, 2, 2] == sum(range(16))


def test_contract_coefficients_refuses_3_to_the_n_before_contracting(monkeypatch):
    def unreachable(t, mats, order):
        raise AssertionError("the contraction ran")

    monkeypatch.setattr(quantum, "_contract", unreachable)
    # one coefficient, but alpha-tilde would have 3^16 > 2^24 entries
    expr = BellExpression(Scenario((1,) * 16), [1])
    dirs = MeasurementSettings(([[0.0, 0.0, 1.0]],) * 16)
    with pytest.raises(EnumerationCapExceeded, match=r"3\^16"):
        contract_coefficients(expr, dirs)


def test_correlation_tensor_intermediates_shrink(product_sizes):
    tensor = correlation_tensor(make_state("ghz", 6)).values
    assert product_sizes == [4 ** (6 - k) * 3**k for k in range(1, 7)]  # each party 4 -> 3
    assert abs(tensor[(2,) * 6] - 1.0) < 1e-12


def test_bell_operator_rejects_mismatched_settings():
    with pytest.raises(ValueError):
        bell_operator(CHSH, z_settings(2, 3))


def test_coefficients_past_float64_are_refused_by_name():
    """1e400 has no float64: each float consumer of the coefficients refuses
    it with a ValueError naming its settings, not an OverflowError."""
    big = BellExpression.from_terms(Scenario((2, 2)), [((0, 0), 1), ((0, 1), 10**400)])
    settings = z_settings(2, 2)
    for call in (
        lambda: bell_operator(big, settings),
        lambda: expectation(big, settings, BELL),
        lambda: contract_coefficients(big, settings),
    ):
        with pytest.raises(ValueError, match=r"coefficient at settings \[0, 1\]"):
            call()


def test_expectation_bell_pair():
    zz = BellExpression.from_terms(Scenario((1, 1)), [((0, 0), 1)])
    assert np.isclose(expectation(zz, z_settings(2, 1), BELL), 1.0)
    xx = MeasurementSettings((np.array([[1.0, 0, 0]]), np.array([[1.0, 0, 0]])))
    assert np.isclose(expectation(zz, xx, BELL), 1.0)


def test_spectrum_grouping_and_checks():
    spec = spectrum(np.diag([2.0, 2.0 + 1e-9, -1.0]))
    assert spec.groups == ((2.0 + 1e-9, 2), (-1.0, 1))
    assert spec.eigenvalues[0] >= spec.eigenvalues[-1]
    with pytest.raises(ValueError):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        spectrum(np.diag([math.nan, 1.0]))  # eigvalsh would return NaN eigenvalues
    assert spectrum(np.zeros((4, 4))).groups == ((0.0, 4),)


# ---------------------------------------------------------------------------
# contraction identities
# ---------------------------------------------------------------------------


def test_contraction_reproduces_expectation():
    rng = np.random.default_rng(2)
    fp = four_party_19()
    for _ in range(5):
        ket = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = make_state("custom", rho=np.outer(ket, ket.conj()) / np.vdot(ket, ket).real)
        vecs = rng.normal(size=(4, 3, 3))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        settings = MeasurementSettings(tuple(vecs))
        lhs = float(np.sum(correlation_tensor(state).values * contract_coefficients(fp, settings)))
        assert abs(lhs - expectation(fp, settings, state)) < 1e-10


def test_contracted_coefficient_norm_is_constant():
    rng = np.random.default_rng(4)
    fp = four_party_19()
    angles = [tuple(rng.uniform(0, 2 * math.pi, 3)) for _ in range(4)]
    alpha = contract_coefficients(fp, MeasurementSettings.from_angles(angles))
    assert abs(np.sum((4 * alpha) ** 2) - 16.0) < 1e-9


# ---------------------------------------------------------------------------
# see-saw
# ---------------------------------------------------------------------------


def test_seesaw_reaches_tsirelson():
    res = seesaw_maximize(CHSH, BELL, SeesawConfig(restarts=5, seed=0))
    assert abs(res.value - math.sqrt(2)) < 1e-9
    assert res.converged
    # the value the optimizer reports is the expectation at its settings
    assert abs(expectation(CHSH, res.settings, BELL) - res.value) < 1e-12


def test_seesaw_product_state_stays_classical():
    res = seesaw_maximize(CHSH, make_state("product-zeros", 2), SeesawConfig(restarts=5, seed=1))
    assert res.value <= 1.0 + 1e-9


def test_seesaw_normalizes_the_bound():
    res = seesaw_maximize(CHSH.scaled(4), BELL, SeesawConfig(restarts=3, seed=0))
    assert res.scale == Fraction(1, 4)
    assert abs(res.value - math.sqrt(2)) < 1e-9  # violation factor, not raw value


def test_seesaw_trace_is_monotone():
    res = seesaw_maximize(four_party_19(), make_state("chi"), SeesawConfig(restarts=2, seed=3))
    assert all(b >= a - 1e-12 for a, b in zip(res.trace, res.trace[1:]))


def test_seesaw_is_deterministic_given_seed():
    cfg = SeesawConfig(restarts=4, seed=9)
    a = seesaw_maximize(CHSH, BELL, cfg)
    b = seesaw_maximize(CHSH, BELL, cfg)
    assert a.value == b.value
    assert all(np.array_equal(x, y) for x, y in zip(a.settings.vectors, b.settings.vectors))


def test_seesaw_rejects_party_mismatch():
    with pytest.raises(ValueError):
        seesaw_maximize(CHSH, make_state("ghz4"))


def test_expectation_rejects_party_mismatch():
    # without the check, B of mabk(3) (64 x 64) met a 256 x 256 rho in a reshape
    message = "state has 4 qubits but the scenario has 3 parties"
    with pytest.raises(ValueError, match=message):
        expectation(mabk(3), mabk_optimal_settings(3), make_state("ghz4"))
    with pytest.raises(ValueError, match=message):
        seesaw_maximize(mabk(3), make_state("ghz4"))


def test_seesaw_never_exceeds_top_eigenvalue():
    fp = four_party_19()
    state = make_state("w4")
    res = seesaw_maximize(fp, state, SeesawConfig(restarts=6, seed=0))
    top = spectrum(bell_operator(fp, res.settings)).eigenvalues[0]
    assert res.value <= top + 1e-10


# ---------------------------------------------------------------------------
# closed-form optimal settings for the two-setting family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mabk_optimal_settings_attain_the_quantum_maximum(n):
    settings = mabk_optimal_settings(n)
    value = expectation(mabk(n), settings, make_state("ghz", n))
    assert abs(value - math.sqrt(2) ** (n - 1)) < 1e-12


# ---------------------------------------------------------------------------
# see-saw: batch against the per-restart reference
# ---------------------------------------------------------------------------


def _initial_directions(cfg, restart, settings):
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)[restart])
    draws = [rng.normal(size=(m, 3)) for m in settings]
    return [d / np.linalg.norm(d, axis=1, keepdims=True) for d in draws]


@pytest.mark.parametrize(
    "seed, restarts, settings", [(0, 50, (3, 3, 3, 3)), (7, 1, (3, 2)), (123456789, 8, (2,) * 6)]
)
def test_initial_directions_are_the_per_restart_draws(seed, restarts, settings):
    cfg = SeesawConfig(restarts=restarts, seed=seed)
    recipe = np.stack(
        [np.concatenate(_initial_directions(cfg, r, settings)) for r in range(restarts)]
    )
    drawn = quantum._initial_directions(seed, restarts, sum(settings))
    assert np.array_equal(drawn, recipe)
    assert not drawn.flags.writeable
    with pytest.raises(ValueError):
        drawn[0, 0, 0] = 0.0


def test_writing_into_returned_settings_leaves_the_next_draws_alone():
    cfg = SeesawConfig(restarts=1, max_sweeps=0, seed=4)
    initial = _initial_directions(cfg, 0, (2, 2))
    vector = seesaw_maximize(CHSH, BELL, cfg).settings.vectors[0]
    vector.setflags(write=True)
    vector[:] = 0.0
    again = seesaw_maximize(CHSH, BELL, cfg).settings.vectors
    assert all(np.array_equal(a, b) for a, b in zip(again, initial))


def _seesaw_oracle(expr, state, cfg):
    """The see-saw one restart at a time, with one einsum per value or gradient.

    Returns one ``(value, sweeps, converged, trace)`` per restart.
    """
    n = expr.scenario.parties
    scale = Fraction(1) / lr_max(expr)
    coeffs = np.array([float(c * scale) for c in expr.coeffs]).reshape(expr.scenario.settings)
    corr = correlation_tensor(state).values

    def full_value(units):
        operands = [coeffs, list(range(n)), corr, list(range(n, 2 * n))]
        for p, u in enumerate(units):
            operands.extend([u, [p, n + p]])
        return float(np.einsum(*operands, []))

    def effective(units, p):
        operands = [coeffs, list(range(n)), corr, list(range(n, 2 * n))]
        for q, u in enumerate(units):
            if q != p:
                operands.extend([u, [q, n + q]])
        return np.einsum(*operands, [p, n + p])

    outcomes = []
    for restart in range(cfg.restarts):
        units = _initial_directions(cfg, restart, expr.scenario.settings)
        trace = [full_value(units)]
        converged = False
        for _ in range(cfg.max_sweeps):
            for p in range(n):
                w = effective(units, p)
                norms = np.linalg.norm(w, axis=1)
                keep = norms == 0.0
                norms[keep] = 1.0
                updated = w / norms[:, None]
                updated[keep] = units[p][keep]
                units[p] = updated
            trace.append(full_value(units))
            if trace[-1] - trace[-2] < cfg.tol:
                converged = True
                break
        outcomes.append((trace[-1], len(trace) - 1, converged, trace))
    return outcomes


def _weak_mixed_state():
    rng = np.random.default_rng(0)
    ket = rng.normal(size=16) + 1j * rng.normal(size=16)
    rho_pure = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    p = min(1.0, 0.99 / math.sqrt(sum_squared_correlations(make_state("custom", rho=rho_pure))))
    return make_state("custom", rho=p * rho_pure + (1 - p) * np.eye(16) / 16)


# four_party_19 pairs its four parties fully; the rest cover one pair with
# nothing left to contract, a lone last party (odd n), uneven settings, and six
# parties, where each pair's v is the outer product of four other parties
_ORACLE_CASES = {
    "chi": lambda: (four_party_19(), make_state("chi")),
    "w4": lambda: (four_party_19(), make_state("w4")),
    "weak-mixed": lambda: (four_party_19(), _weak_mixed_state()),
    "mabk2-ghz2": lambda: (mabk(2), make_state("ghz", 2)),
    "mabk3-ghz3": lambda: (mabk(3), make_state("ghz", 3)),
    "mabk5-ghz5": lambda: (mabk(5), make_state("ghz", 5)),
    "mabk6-ghz6": lambda: (mabk(6), make_state("ghz", 6)),
    "lift2-2333-chi": lambda: (lift2(wbz333(), symmetry_images()[0])[0], make_state("chi")),
}


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_seesaw_batch_matches_the_per_restart_oracle(name):
    fp, state = _ORACLE_CASES[name]()
    cfg = SeesawConfig(restarts=8, seed=0)
    res = seesaw_maximize(fp, state, cfg)
    oracle = _seesaw_oracle(fp, state, cfg)
    assert len(res.restarts) == cfg.restarts
    for (value, sweeps, converged), (ref, ref_sweeps, ref_converged, _) in zip(
        res.restarts, oracle
    ):
        assert abs(value - ref) < 1e-12
        assert (sweeps, converged) == (ref_sweeps, ref_converged)
    values = [o[0] for o in oracle]
    ranked = sorted(values, reverse=True)
    winner = values.index(ranked[0])
    if ranked[0] - ranked[1] > 1e-12:
        assert res.value == res.restarts[winner][0]
        assert res.converged == oracle[winner][2]
        assert np.allclose(res.trace, oracle[winner][3], rtol=0, atol=1e-12)


def test_seesaw_values_at_the_sweep_cap_match_the_oracle():
    # the value <W, u> after a sweep must hold for restarts that stop unconverged
    fp, state = four_party_19(), make_state("pdc")
    cfg = SeesawConfig(restarts=4, max_sweeps=20)
    res = seesaw_maximize(fp, state, cfg)
    assert not all(c for _, _, c in res.restarts)
    for (value, sweeps, converged), (ref, ref_sweeps, ref_converged, _) in zip(
        res.restarts, _seesaw_oracle(fp, state, cfg)
    ):
        assert abs(value - ref) < 1e-12
        assert (sweeps, converged) == (ref_sweeps, ref_converged)
    assert abs(res.value - expectation(fp.scaled(res.scale), res.settings, state)) < 1e-12


def test_seesaw_restarts_report_every_outcome():
    res = seesaw_maximize(four_party_19(), make_state("pdc"), SeesawConfig(restarts=3, seed=0))
    assert max(v for v, _, _ in res.restarts) == res.value
    assert all(c or s == SeesawConfig().max_sweeps for _, s, c in res.restarts)
    frozen = seesaw_maximize(CHSH, BELL, SeesawConfig(restarts=3, max_sweeps=0))
    assert all(s == 0 and not c for _, s, c in frozen.restarts)
    assert len(frozen.trace) == 1 and not frozen.converged


def test_seesaw_single_party_contracts_nothing():
    expr = BellExpression.from_terms(Scenario((2,)), [((0,), 1), ((1,), 1)])
    res = seesaw_maximize(expr, make_state("product-zeros", 1), SeesawConfig(restarts=3))
    assert abs(res.value - 1.0) < 1e-12
    assert np.allclose(res.settings.vectors[0], [[0, 0, 1], [0, 0, 1]])


def test_seesaw_keeps_a_direction_whose_gradient_vanishes():
    # party 0's setting 2 has no coefficient, so its gradient W is exactly 0
    expr = BellExpression.from_terms(
        Scenario((3, 2)), [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)]
    ).scaled(Fraction(1, 2))
    cfg = SeesawConfig(restarts=1, seed=7)
    initial = _initial_directions(cfg, 0, (3, 2))
    res = seesaw_maximize(expr, BELL, cfg)
    assert abs(res.value - math.sqrt(2)) < 1e-9
    assert np.array_equal(res.settings.vectors[0][2], initial[0][2])


def test_seesaw_ties_keep_the_earliest_restart():
    # no correlations: every value is exactly 0 and every direction stays put
    cfg = SeesawConfig(restarts=3, seed=5)
    res = seesaw_maximize(CHSH, make_state("custom", rho=np.eye(4) / 4), cfg)
    assert res.restarts == ((0.0, 1, True),) * 3
    initial = _initial_directions(cfg, 0, (2, 2))
    assert all(np.array_equal(a, b) for a, b in zip(res.settings.vectors, initial))
    # ties within roundoff: all 50 restarts reach sqrt 2 on the Bell pair, so
    # a 2.2e-16 change of rho must not move the winner off restart 0
    rho = BELL.rho.copy()
    rho[0, 0] += 2.2e-16
    results = [seesaw_maximize(CHSH, state) for state in (BELL, make_state("custom", rho=rho))]
    for res in results:
        assert all(abs(v - math.sqrt(2)) < 1e-12 for v, _, _ in res.restarts)
        assert res.value == res.restarts[0][0]
    a, b = (res.settings.vectors for res in results)
    assert all(np.allclose(x, y, rtol=0, atol=1e-9) for x, y in zip(a, b))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"restarts": 0},
        {"max_sweeps": -1},
        {"tol": -1e-10},
        {"tol": math.nan},
        {"tol": math.inf},
        {"seed": -1},
    ],
)
def test_seesaw_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SeesawConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [{"restarts": 2.5}, {"max_sweeps": 10.0}, {"seed": "1"}])
def test_seesaw_config_refuses_non_integer_counts(kwargs):
    with pytest.raises(TypeError):
        SeesawConfig(**kwargs)


def test_seesaw_config_keeps_python_ints():
    cfg = SeesawConfig(restarts=np.int64(3), max_sweeps=np.uint8(7), seed=np.int32(2))
    assert (cfg.restarts, cfg.max_sweeps, cfg.seed) == (3, 7, 2)
    assert all(type(v) is int for v in (cfg.restarts, cfg.max_sweeps, cfg.seed))


def test_seesaw_batch_cap_refuses_before_allocating():
    fp = four_party_19()  # 3 settings per party: 9^4 kernel entries per restart
    restarts = ENUMERATION_CAP // 9**4 + 1
    with pytest.raises(EnumerationCapExceeded):
        seesaw_maximize(fp, make_state("ghz4"), SeesawConfig(restarts=restarts))
