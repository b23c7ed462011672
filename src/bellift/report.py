"""One-shot reproduction report, built from the acceptance battery.

``battery()`` is the one table of reference checks, each an acceptance id,
quantity, expected value, tolerance and compute function.  ``reproduce_report``
walks the table in order; ``tests/test_acceptance.py`` asserts the rows of
each acceptance id.  The checks share one lazily filled ``BatteryContext``,
so no see-saw runs twice in a pass; facet lists and ``four_party_19`` come
from the library's own caches.  A row either passes or fails, and nothing
raises on a mere mismatch.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Any, Callable

import numpy as np

from .expressions import BellExpression, Scenario
from .lifting import compatibility_holds, four_party_19, lift2, mabk, symmetry_images, wbz333
from .polytope import enumerate_facets, lr_max, tightness
from .quantum import (
    MeasurementSettings, SeesawConfig, SeesawResult, bell_operator, contract_coefficients,
    correlation_tensor, expectation, make_state, mabk_critical_lambda, mabk_optimal_settings,
    seesaw_maximize, spectrum, sum_squared_correlations,
)

__all__ = [
    "BatteryContext", "Check", "Report", "ReportRow", "battery", "format_table", "reproduce_report"
]


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    expected: str
    computed: str
    tolerance: str
    passed: bool
    elapsed_s: float

    def __post_init__(self) -> None:
        # comparisons against numpy scalars yield np.bool_, which json.dumps
        # rejects; normalize here so as_dict() output is always serializable
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]
    seed: int
    restarts: int
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "restarts": self.restarts,
            "elapsed_s": round(self.elapsed_s, 3),
            "passed": self.passed,
            "rows": [dict(asdict(r), elapsed_s=round(r.elapsed_s, 3)) for r in self.rows],
        }


def _f6(x: float) -> str:
    return f"{x:.6g}"


def format_table(report: Report) -> str:
    """Fixed-width text rendering of a report."""
    header = ("quantity", "expected", "computed", "tol", "status")
    body = [
        (r.quantity, r.expected, r.computed, r.tolerance, "pass" if r.passed else "FAIL")
        for r in report.rows
    ]
    widths = [max(len(row[i]) for row in [header, *body]) for i in range(5)]
    lines = []
    for row in [header, tuple("-" * w for w in widths), *body]:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    n_fail = sum(not r.passed for r in report.rows)
    lines.append("")
    lines.append(
        f"{len(report.rows)} rows, {n_fail} failing; seed {report.seed}, "
        f"{report.restarts} restarts, {report.elapsed_s:.1f} s"
    )
    return "\n".join(lines)


class BatteryContext:
    """What the checks share for one ``(seed, restarts)``, each built on first use."""

    def __init__(
        self, seed: int = SeesawConfig.seed, restarts: int = SeesawConfig.restarts
    ) -> None:
        self.cfg = SeesawConfig(restarts=restarts, seed=seed)
        self._best: dict[str, SeesawResult] = {}

    def best(self, state_name: str) -> SeesawResult:
        """The see-saw on four_party_19 for a named state."""
        if state_name not in self._best:
            state = make_state(state_name)
            self._best[state_name] = seesaw_maximize(four_party_19(), state, self.cfg)
        return self._best[state_name]

    @cached_property
    def mabk4_eigenvalues(self) -> np.ndarray:
        """mabk(4) at its optimal settings, eigenvalues descending."""
        return np.array(spectrum(bell_operator(mabk(4), mabk_optimal_settings(4))).eigenvalues)

    @cached_property
    def ghz_operator(self) -> np.ndarray:
        """four_party_19 at the ghz4-optimal directions."""
        return bell_operator(four_party_19(), self.best("ghz4").settings)


@dataclass(frozen=True)
class Check:
    """One battery entry; ``compute(ctx)`` returns ``(passed, computed)``."""

    acceptance: str
    quantity: str
    expected: str
    tolerance: str
    compute: Callable[[BatteryContext], tuple[bool, str]]

    def run(self, ctx: BatteryContext) -> ReportRow:
        t0 = time.perf_counter()
        passed, computed = self.compute(ctx)
        elapsed = time.perf_counter() - t0
        return ReportRow(self.quantity, self.expected, computed, self.tolerance, passed, elapsed)


def _exact(acceptance: str, quantity: str, expected: str, value: Callable) -> Check:
    """Passes when ``str(value(ctx))`` is ``expected``."""

    def compute(ctx: BatteryContext) -> tuple[bool, str]:
        got = str(value(ctx))
        return got == expected, got

    return Check(acceptance, quantity, expected, "exact", compute)


def _near(
    acceptance: str, quantity: str, reference: float, tolerance: str, value: Callable,
    above: float = -math.inf,
) -> Check:
    """Passes when ``value(ctx)`` is within the tolerance's leading number of
    ``reference`` and above ``above``."""
    tol = float(tolerance.split()[0])

    def compute(ctx: BatteryContext) -> tuple[bool, str]:
        got = value(ctx)
        return abs(got - reference) <= tol and got > above, _f6(got)

    return Check(acceptance, quantity, _f6(reference), tolerance, compute)


_RULES = {"": operator.le, ">=": operator.ge, ">": operator.gt}


def _bound(acceptance: str, quantity: str, tolerance: str, measure: Callable) -> Check:
    """Passes when ``measure(ctx) -> (value, computed)`` meets the tolerance:
    a bound such as ``>= 0.1``, or a bare number t meaning value <= t."""
    rule, _, threshold = tolerance.rpartition(" ")

    def compute(ctx: BatteryContext) -> tuple[bool, str]:
        value, computed = measure(ctx)
        return _RULES[rule](value, float(threshold)), computed

    return Check(acceptance, quantity, "pass", tolerance, compute)


def _shown(value: float, label: str = "max deviation ") -> tuple[float, str]:
    return value, label + _f6(value)


def _equal(a: object, b: object) -> str:
    return "equal" if a == b else "different"


def _tight(expr: BellExpression) -> str:
    return "tight" if tightness(expr).is_tight else "not tight"


def _one_party_lift(ctx: BatteryContext) -> str:
    one = Scenario((2,))
    delta0, delta1 = (BellExpression.from_terms(one, [((j,), 1)]) for j in (0, 1))
    return _equal(lift2(delta0, delta1, diagnose=False)[0], mabk(2))


def _tight_lifts(ctx: BatteryContext, loose: bool) -> int:
    """Tight lift2 outputs over all facet pairs, or with one non-tight input."""
    fs = enumerate_facets(Scenario((2, 2)))
    half = Fraction(1, 2)
    bad = BellExpression.from_terms(Scenario((2, 2)), [((0, 0), half), ((0, 1), half)])
    pairs = [p for f in fs for p in ((bad, f), (f, bad))] if loose else product(fs, repeat=2)
    return sum(tightness(lift2(f, g, diagnose=False)[0]).is_tight for f, g in pairs)


def _ghz_vs_mabk(ctx: BatteryContext, n: int) -> float:
    return seesaw_maximize(mabk(n), make_state("ghz", n), ctx.cfg).value


def _mabk4_spectrum(ctx: BatteryContext) -> tuple[float, str]:
    eigs, big = ctx.mabk4_eigenvalues, 2 * math.sqrt(2)
    interior = float(np.abs(eigs[1:-1]).max())
    dev = max(abs(eigs[0] - big), abs(eigs[-1] + big), interior)
    return dev, f"extremes {_f6(eigs[0])}/{_f6(eigs[-1])}, max interior |eig| {_f6(interior)}"


def _image_identity(ctx: BatteryContext) -> str:
    b1, b2, b3 = symmetry_images()
    return _equal(wbz333() + b1, b2 + b3)


def _compatibility(ctx: BatteryContext) -> tuple[bool, Any]:
    _, b2, b3 = symmetry_images()
    return compatibility_holds(wbz333(), b2, b3)


def _violation(name: str, reference: float, kind: str) -> Check:
    """A "maximum" reference must match the multi-restart best.  A "local optimum" must be
    hit by a converged restart of that same run and lie below the best.  Each best must
    equal Tr(rho B) and stay below the top eigenvalue of B and sqrt(sum T^2); chi's must
    equal cluster4's, its image under a symmetry of fp."""
    tolerance = "2e-3"
    tol = float(tolerance)

    def compute(ctx: BatteryContext) -> tuple[bool, str]:
        state, best = make_state(name), ctx.best(name)
        top_eig = spectrum(bell_operator(four_party_19(), best.settings)).eigenvalues[0]
        cs_bound = math.sqrt(sum_squared_correlations(state))
        passed = (
            abs(best.value - expectation(four_party_19(), best.settings, state)) <= 1e-9
            and best.value <= top_eig + 1e-9
            and best.value <= cs_bound + 1e-9
        )
        notes = [f"bounds {_f6(top_eig)}, {_f6(cs_bound)}"]
        if kind == "maximum":
            passed = passed and abs(best.value - reference) <= tol
        else:
            hits = sum(conv and abs(value - reference) <= tol for value, _, conv in best.restarts)
            passed = passed and hits > 0 and best.value > reference + tol
            notes.append(f"reference reached by {hits}/{len(best.restarts)} restarts")
        if name == "chi":
            twin = ctx.best("cluster4").value
            passed = passed and abs(best.value - twin) <= 1e-6
            notes.append(f"cluster4 {_f6(twin)}")
        return passed, f"{_f6(best.value)} ({'; '.join(notes)})"

    quantity = f"see-saw violation factor, {name}"
    return Check(f"6[{name}]", quantity, _f6(reference), tolerance, compute)


def _spectrum_groups(expected: list[tuple[float, int]]) -> Callable:
    """Distance of the ghz4-optimal spectrum groups from ``expected`` and its
    mirror image; infinite when the multiplicities differ."""
    expected = expected + [(-v, m) for v, m in reversed(expected)]

    def measure(ctx: BatteryContext) -> tuple[float, str]:
        got = list(spectrum(ctx.ghz_operator).groups)
        dev = math.inf
        if [m for _, m in got] == [m for _, m in expected]:
            dev = max(abs(v - ref) for (v, _), (ref, _) in zip(got, expected))
        return dev, ", ".join(f"{_f6(v)} (x{m})" for v, m in got)

    return measure


def _gghz_value(ctx: BatteryContext, lam: float, max_restarts: float = math.inf) -> float:
    cfg = replace(ctx.cfg, restarts=min(ctx.cfg.restarts, max_restarts))
    return seesaw_maximize(four_party_19(), make_state("generalized-ghz", lam), cfg).value


def _tnorm_deviation(ctx: BatteryContext) -> float:
    states = ((lam, make_state("generalized-ghz", lam)) for lam in np.linspace(0, math.pi / 4, 50))
    return max(abs(sum_squared_correlations(s) - (5 - 4 * math.cos(4 * lam))) for lam, s in states)


def _alpha_norm_deviation(ctx: BatteryContext) -> float:
    rng = np.random.default_rng(ctx.cfg.seed)
    worst = 0.0
    for _ in range(100):
        angles = [tuple(rng.uniform(0, 2 * math.pi, 3)) for _ in range(4)]
        alpha = contract_coefficients(four_party_19(), MeasurementSettings.from_angles(angles))
        worst = max(worst, abs(float(np.sum((4 * alpha) ** 2)) - 16.0))
    return worst


def _random_pure_rho(rng: np.random.Generator) -> np.ndarray:
    ket = rng.normal(size=16) + 1j * rng.normal(size=16)
    return np.outer(ket, ket.conj()) / np.vdot(ket, ket).real


def _pairing_deviation(ctx: BatteryContext) -> float:
    rng = np.random.default_rng(ctx.cfg.seed)
    worst = 0.0
    for _ in range(100):
        state = make_state("custom", rho=_random_pure_rho(rng))
        vecs = rng.normal(size=(4, 3, 3))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        settings = MeasurementSettings(tuple(vecs))
        alpha = contract_coefficients(four_party_19(), settings)
        lhs = float(np.sum(correlation_tensor(state).values * alpha))
        worst = max(worst, abs(lhs - expectation(four_party_19(), settings, state)))
    return worst


def _top5_mixture(ctx: BatteryContext) -> float:
    eigvals, eigvecs = np.linalg.eigh(ctx.ghz_operator)
    top5 = eigvecs[:, np.argsort(eigvals)[::-1][:5]]
    rho = (top5 @ top5.conj().T) / 5
    return expectation(four_party_19(), ctx.best("ghz4").settings, make_state("custom", rho=rho))


def _mabk4_three_mixtures(ctx: BatteryContext) -> tuple[float, str]:
    eigs, bound = ctx.mabk4_eigenvalues, 2 * math.sqrt(2) / 3
    worst = max(float(eigs[list(trip)].sum()) / 3 for trip in combinations(range(16), 3))
    return worst - bound, f"max {_f6(worst)} vs bound {_f6(bound)}"


def _cauchy_schwarz_guard(ctx: BatteryContext) -> tuple[bool, str]:
    """Weak states (sum T^2 <= 1, by construction and checked) never violate."""
    rng = np.random.default_rng(ctx.cfg.seed)
    worst_val, worst_total = -math.inf, 0.0
    for _ in range(20):
        rho_pure = _random_pure_rho(rng)
        total = sum_squared_correlations(make_state("custom", rho=rho_pure))
        p = min(1.0, 0.99 / math.sqrt(total))
        state = make_state("custom", rho=p * rho_pure + (1 - p) * np.eye(16) / 16)
        worst_total = max(worst_total, sum_squared_correlations(state))
        worst_val = max(worst_val, seesaw_maximize(four_party_19(), state, ctx.cfg).value)
    passed = worst_total <= 1.0 and worst_val <= 1.0 + 1e-6
    return passed, f"max {_f6(worst_val)} (max sum T^2 {_f6(worst_total)})"


def _facets_tight(ctx: BatteryContext) -> tuple[bool, str]:
    facets = [f for s in [(2, 2), (2, 2, 2), (3, 3)] for f in enumerate_facets(Scenario(s))]
    ok = all(tightness(f).is_tight for f in facets)
    return ok, "all tight" if ok else "counterexample found"


# --- the table ------------------------------------------------------------------


def battery() -> tuple[Check, ...]:
    """Every reference check, in report order."""
    return (
        # foundations: CHSH via the two-setting lift
        _exact("1", "mabk(2) local-realistic maximum", "1", lambda c: lr_max(mabk(2))),
        _exact("1", "mabk(2) saturating-vertex rank", "4", lambda c: tightness(mabk(2)).rank),
        _exact("1", "mabk(2) facet certificate", "tight", lambda c: _tight(mabk(2))),
        _exact("1", "two-setting lift of the one-party facets = mabk(2)", "equal", _one_party_lift),
        # two-setting lift theorem across all 16 two-party facets
        _exact("13", "facet count, two parties x two settings", "16",
               lambda c: len(enumerate_facets(Scenario((2, 2))))),
        _exact("2", "tight lift2 outputs over all 16 x 16 facet pairs", "256",
               lambda c: _tight_lifts(c, loose=False)),
        _exact("2", "tight lift2 outputs with one non-tight input", "0",
               lambda c: _tight_lifts(c, loose=True)),
        # MABK chain
        _exact("3", "mabk(3) saturating-vertex rank", "8", lambda c: tightness(mabk(3)).rank),
        _exact("3", "mabk(4) saturating-vertex rank", "16", lambda c: tightness(mabk(4)).rank),
        *(
            _near("3", f"see-saw violation factor, ghz({n}) vs mabk({n})", math.sqrt(2) ** (n - 1),
                  "1e-6", lambda c, n=n: _ghz_vs_mabk(c, n))
            for n in (2, 3, 4)
        ),
        _bound("3", "mabk(4) spectrum at optimal settings: two nonzero eigenvalues +-2*sqrt(2)",
               "1e-8", _mabk4_spectrum),
        # three-setting three-party facet and its images
        _exact("4", "wbz333 local-realistic maximum", "1", lambda c: lr_max(wbz333())),
        _exact("4", "wbz333 saturating-vertex rank", "27", lambda c: tightness(wbz333()).rank),
        _exact("4", "wbz333 facet certificate", "tight", lambda c: _tight(wbz333())),
        _exact("4", "tensor identity: base + image1 = image2 + image3", "equal", _image_identity),
        # the lifted four-party inequality
        _exact("5", "four_party_19 local-realistic maximum (4096 strategies)", "1",
               lambda c: lr_max(four_party_19())),
        _exact("5", "four_party_19 saturating-vertex rank", "81",
               lambda c: tightness(four_party_19()).rank),
        _exact("5", "four_party_19 facet certificate", "tight", lambda c: _tight(four_party_19())),
        _exact("5", "compatibility condition for (base, image2, image3)", "holds",
               lambda c: "holds" if _compatibility(c)[0] else "violated"),
        _exact("5", "compatibility witness for (base, image2, image3)", "none",
               lambda c: _compatibility(c)[1] or "none"),
        # violation factors for the named four-qubit states
        _violation("ghz4", 2.263, "maximum"),
        _violation("w4", 1.448, "local optimum"),
        _violation("pdc", 1.612, "local optimum"),
        _violation("chi", 1.579, "local optimum"),
        _violation("cluster4", 1.759, "maximum"),
        # operator spectrum at the ghz4-optimal directions
        _bound("7", "four_party_19 spectrum groups at ghz4-optimal settings", "2e-3",
               _spectrum_groups([(2.263, 1), (1.494, 1), (0.449, 3), (0.120, 3)])),
        _bound("7", "no eigenvalue below 0.1 in magnitude", ">= 0.1",
               lambda c: _shown(min(abs(e) for e in spectrum(c.ghz_operator).eigenvalues), "")),
        # generalized GHZ family
        _bound("8", "see-saw on generalized GHZ at 1.4324 degrees", ">= 1.000",
               lambda c: _shown(_gghz_value(c, math.radians(1.4324)), "")),
        _bound("8", "sum of squared correlations = 5 - 4 cos(4 lambda), 50-point grid", "1e-9",
               lambda c: _shown(_tnorm_deviation(c))),
        _bound("8", "violation factor > 1 across 9 sampled lambdas in (0, pi/4)", "> 1",
               lambda c: _shown(min(_gghz_value(c, k / 10 * math.pi / 4, 12) for k in range(1, 10)),
                                "min ")),
        # critical angle for the two-setting family
        _near("9", "critical lambda for mabk(4) on generalized GHZ (degrees)", 10.3524, "0.01",
              lambda c: mabk_critical_lambda(c.cfg)),
        # parametrization identities
        _bound("10", "sum of (4 alpha)^2 = 16 over 100 random angle draws", "1e-9",
               lambda c: _shown(_alpha_norm_deviation(c))),
        _bound("10", "<T, alpha> = Tr(rho B) over 100 random state/settings pairs", "1e-10",
               lambda c: _shown(_pairing_deviation(c))),
        # mixture robustness
        _near("11", "equal top-5 eigenstate mixture: four_party_19 expectation",
              (2.2629 + 1.4938 + 3 * 0.4491) / 5, "2e-3 (and > 1)", _top5_mixture, above=1.0),
        _bound("11", "equal mixtures of 3 orthogonal mabk(4) eigenstates stay classical", "1e-8",
               _mabk4_three_mixtures),
        # Cauchy-Schwarz guard
        Check("12", "see-saw stays classical when sum T^2 <= 1 (20 random mixed states)", "pass",
              "1 + 1e-6", _cauchy_schwarz_guard),
        # facet oracle
        _exact("13", "single-correlation facets among the 16", "8", lambda c: sum(
            len(list(f.terms())) == 1 for f in enumerate_facets(Scenario((2, 2))))),
        _exact("13", "chsh-variant facets among the 16", "8", lambda c: sum(
            sorted(abs(x) for _, x in f.terms()) == [Fraction(1, 2)] * 4
            for f in enumerate_facets(Scenario((2, 2))))),
        _exact("13", "facet count, three parties x two settings", "256",
               lambda c: len(enumerate_facets(Scenario((2, 2, 2))))),
        _exact("13", "facet count, two parties x three settings", "90",
               lambda c: len(enumerate_facets(Scenario((3, 3))))),
        Check("13", "every facet-oracle facet passes the tightness test", "pass", "exact",
              _facets_tight),
    )


def reproduce_report(
    seed: int = SeesawConfig.seed, restarts: int = SeesawConfig.restarts
) -> Report:
    """Recompute every reference quantity and report pass/fail per row."""
    t0 = time.perf_counter()
    ctx = BatteryContext(seed, restarts)
    rows = tuple(check.run(ctx) for check in battery())
    return Report(rows, seed, restarts, time.perf_counter() - t0)
