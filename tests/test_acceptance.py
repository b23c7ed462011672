"""Acceptance battery: each test asserts the rows of one acceptance id of the
``bellift reproduce`` table (``bellift.report.battery``) and prints
``ACCEPTANCE <id>: PASS/FAIL — detail`` (see ``pytest -v -s``)."""

import pytest

from bellift import report
from bellift.report import BatteryContext, Check, battery

CHECKS = battery()
VIOLATIONS = [c for c in CHECKS if c.acceptance.startswith("6[")]
IDS = [f"{c.acceptance[2:-1]}-{c.expected}" for c in VIOLATIONS]  # state-reference


@pytest.fixture(scope="module")
def ctx():
    return BatteryContext(seed=0, restarts=50)


def accept(ctx, acceptance):
    rows = [check.run(ctx) for check in CHECKS if check.acceptance == acceptance]
    ok = bool(rows) and all(row.passed for row in rows)
    detail = "; ".join(f"{row.quantity}: {row.computed}" for row in rows)
    print(f"ACCEPTANCE {acceptance}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, [row for row in rows if not row.passed]


def test_01_chsh_foundation(ctx):
    accept(ctx, "1")


def test_02_two_setting_theorem_both_directions(ctx):
    accept(ctx, "2")


def test_03_mabk_chain(ctx):
    accept(ctx, "3")


def test_04_wbz333_and_symmetry(ctx):
    accept(ctx, "4")


def test_05_four_party_facet(ctx):
    accept(ctx, "5")


@pytest.mark.parametrize("acceptance", [c.acceptance for c in VIOLATIONS], ids=IDS)
def test_06_violation_factors(ctx, acceptance):
    accept(ctx, acceptance)


def test_07_spectrum_at_ghz_optimal_settings(ctx):
    accept(ctx, "7")


def test_08_generalized_ghz_family(ctx):
    accept(ctx, "8")


def test_09_mabk_critical_angle(ctx):
    accept(ctx, "9")


def test_10_parametrization_identities(ctx):
    accept(ctx, "10")


def test_11_mixture_robustness(ctx):
    accept(ctx, "11")


def test_12_cauchy_schwarz_guard(ctx):
    accept(ctx, "12")


def test_13_facet_oracle(ctx):
    accept(ctx, "13")


def test_reproduce_report_walks_the_table_in_order(monkeypatch):
    contexts = []

    def stub(quantity, passed):
        def compute(ctx):
            contexts.append(ctx)
            return passed, quantity

        return Check("x", quantity, "pass", "exact", compute)

    monkeypatch.setattr(report, "battery", lambda: (stub("first", True), stub("second", False)))
    rep = report.reproduce_report(seed=7, restarts=3)
    assert [(row.quantity, row.passed) for row in rep.rows] == [("first", True), ("second", False)]
    assert contexts[0] is contexts[1]  # one shared context
    assert (contexts[0].cfg.seed, contexts[0].cfg.restarts) == (7, 3)
    assert (rep.seed, rep.restarts, rep.passed) == (7, 3, False)
    assert rep.elapsed_s >= sum(row.elapsed_s for row in rep.rows)
