"""The benchmark's workloads: seeded inputs, the items of one pass, output checks.

A workload is run in passes.  Every bellift cache is cleared before a pass,
so each pass starts cold; within a pass, repeated calls may hit the caches.
An item is one unit of user-visible work; it returns an outcome dict, and the
workload's check turns the outcome into a list of errors (empty when the
outputs are correct).  Items call bellift only through module attributes
(``polytope.tightness``, not a name imported from it), so the traced run can
patch every call.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator

import numpy as np

from bellift import documents, expressions, lifting, polytope, quantum

Outcome = dict[str, Any]
Item = Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]  # seed -> inputs
    items: Callable[[Any, int], Iterator[Item]]  # (inputs, pass index) -> items
    check: Callable[[Outcome], list[str]]


# ---------------------------------------------------------------------------
# lift-search: screen random relabelled wbz333 triples, certify compatible ones
# ---------------------------------------------------------------------------

# 6 setting permutations x 8 sign patterns, applied uniformly to every party
SIGNED_RELABELLINGS = [
    (perm, signs)
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]
SEARCH_ITEMS_PER_PASS = 9
MAX_DRAWS = 2000


def lift_search_setup(seed: int) -> dict:
    base = lifting.wbz333()
    _, b2, b3 = lifting.symmetry_images()
    maps = [
        expressions.SignedSettingMap.uniform(base.scenario, perm, signs)
        for perm, signs in SIGNED_RELABELLINGS
    ]
    return {"seed": seed, "base": base, "paper": (base, b2, b3), "maps": maps}


def lift_search_items(inputs: dict, pass_index: int) -> Iterator[Item]:
    """The paper's triple, then items drawn from an RNG seeded by (seed, pass)."""
    yield partial(_certify, *inputs["paper"], paper=True)
    rng = np.random.default_rng([inputs["seed"], pass_index])
    for _ in range(SEARCH_ITEMS_PER_PASS):
        yield partial(_search, inputs["base"], inputs["maps"], rng)


def _search(base, maps, rng: np.random.Generator) -> Outcome:
    """Draw triples until one is compatible, then certify it."""
    rejected = []
    for _ in range(MAX_DRAWS):
        i0, i2, i3 = (
            expressions.apply_signed_setting_map(base, maps[k])
            for k in rng.integers(len(maps), size=3)
        )
        compatible, witness = lifting.compatibility_holds(i0, i2, i3)
        if compatible:
            return _certify(i0, i2, i3, rejected_values=rejected)
        implied = expressions.linear_combine([(1, i2), (1, i3), (-1, i0)])
        rejected.append(expressions.evaluate(implied, witness))
    raise RuntimeError(f"no compatible triple in {MAX_DRAWS} draws")


def _certify(i0, i2, i3, paper: bool = False, rejected_values=()) -> Outcome:
    out, diag = lifting.lift3(i0, i2, i3, diagnose=False)
    text = json.dumps(documents.serialize_expression(out))
    return {
        "paper": paper,
        "expr": out,
        "compatible": diag.compatibility_valid,
        "lr_max": polytope.lr_max(out),
        "tightness": polytope.tightness(out),
        "parsed": documents.parse_expression(text),
        "rejected_values": list(rejected_values),
    }


def lift_search_check(o: Outcome) -> list[str]:
    errors = []
    if not o["compatible"]:
        errors.append("lift3 reports the screened triple incompatible")
    if o["lr_max"] != 1:
        errors.append(f"lifted lr_max is {o['lr_max']}, not 1")
    if o["tightness"].lr_max != o["lr_max"]:
        errors.append("tightness and lr_max disagree on the local bound")
    if o["parsed"] != o["expr"]:
        errors.append("JSON round trip changed the expression")
    low = [v for v in o["rejected_values"] if not v > 1]
    if low:
        errors.append(f"{len(low)} rejection witnesses do not exceed 1 on I2+I3-I0")
    rep = o["tightness"]
    if o["paper"] and (rep.rank, rep.saturating_count, rep.is_tight) != (81, 256, True):
        errors.append(
            f"paper triple: rank {rep.rank}, {rep.saturating_count} saturating, "
            f"tight {rep.is_tight}; expected 81, 256, True"
        )
    return errors


# ---------------------------------------------------------------------------
# facet-oracle: cold brute-force facet enumeration and the lift2 closure
# ---------------------------------------------------------------------------

FACET_COUNTS = {(2, 2): 16, (2, 3): 36, (2, 2, 2): 256}


def facet_oracle_setup(seed: int) -> dict:
    del seed  # the inputs are fixed
    return {"scenarios": [expressions.Scenario(s) for s in FACET_COUNTS]}


def facet_oracle_items(inputs: dict, pass_index: int) -> Iterator[Item]:
    yield partial(_facet_pass, inputs["scenarios"])


def _facet_pass(scenarios) -> Outcome:
    facets = {sc.settings: polytope.enumerate_facets_brute(sc) for sc in scenarios}
    reports = {k: [polytope.tightness(f) for f in fs] for k, fs in facets.items()}
    pairs = facets[(2, 2)]
    closure = {lifting.lift2(f, g, diagnose=False)[0] for f in pairs for g in pairs}
    return {"facets": facets, "reports": reports, "closure": closure}


def facet_oracle_check(o: Outcome) -> list[str]:
    errors = []
    for settings, expected in FACET_COUNTS.items():
        got = len(o["facets"][settings])
        if got != expected:
            errors.append(f"{settings}: {got} facets, expected {expected}")
    for settings, reports in o["reports"].items():
        if not all(r.is_tight and r.lr_max == 1 for r in reports):
            errors.append(f"{settings}: a facet fails the tightness certificate")
    if o["closure"] != set(o["facets"][(2, 2, 2)]):
        errors.append("lift2 closure of the (2,2) facets differs from the (2,2,2) facets")
    return errors


# ---------------------------------------------------------------------------
# seesaw: multi-restart see-saw on named, MABK and weak mixed states
# ---------------------------------------------------------------------------

NAMED_STATES = ("ghz4", "w4", "pdc", "chi", "cluster4")
MABK_PARTIES = (2, 3, 4)
MIXED_STATES = 2
RESTARTS = 50
# The see-saw's sweep counts, and so its work, depend on the RNG seed and on
# the state: with both drawn from the run's seed, one pass took 25.5 to 33.3 s
# over five seeds.  The inputs are therefore fixed, as in facet-oracle.
SEESAW_SEED = 0
TRACE_ROUNDOFF = 1e-12


def seesaw_setup(seed: int) -> dict:
    del seed  # the inputs are fixed, see SEESAW_SEED
    rng = np.random.default_rng(SEESAW_SEED)
    return {
        "config": quantum.SeesawConfig(restarts=RESTARTS, seed=SEESAW_SEED),
        "facet": lifting.four_party_19(),
        "mabk": {n: lifting.mabk(n) for n in MABK_PARTIES},
        "mixed": [_weak_mixed_rho(rng) for _ in range(MIXED_STATES)],
    }


def _weak_mixed_rho(rng: np.random.Generator) -> np.ndarray:
    """A random pure state mixed with white noise until sum T^2 = 0.99^2.

    By Cauchy-Schwarz such a state cannot violate four_party_19.
    """
    ket = rng.normal(size=16) + 1j * rng.normal(size=16)
    rho_pure = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    total = quantum.sum_squared_correlations(quantum.make_state("custom", rho=rho_pure))
    p = min(1.0, 0.99 / math.sqrt(total))
    return p * rho_pure + (1 - p) * np.eye(16) / 16


def seesaw_items(inputs: dict, pass_index: int) -> Iterator[Item]:
    run = partial(_seesaw, cfg=inputs["config"])
    for name in NAMED_STATES:
        yield partial(run, inputs["facet"], "named", None, name)
    for n, expr in inputs["mabk"].items():
        yield partial(run, expr, "mabk", math.sqrt(2) ** (n - 1), "ghz", n)
    for rho in inputs["mixed"]:
        yield partial(run, inputs["facet"], "mixed", None, "custom", rho=rho)


def _seesaw(expr, kind, target, state_name, param=None, rho=None, *, cfg) -> Outcome:
    state = quantum.make_state(state_name, param, rho)
    result = quantum.seesaw_maximize(expr, state, cfg)
    scaled = expr.scaled(result.scale)
    spec = quantum.spectrum(quantum.bell_operator(scaled, result.settings))
    return {
        "kind": kind,
        "target": target,
        "value": result.value,
        "trace": result.trace,
        "expectation": quantum.expectation(scaled, result.settings, state),
        "top_eigenvalue": spec.eigenvalues[0],
    }


def seesaw_check(o: Outcome) -> list[str]:
    errors = []
    value = o["value"]
    if abs(value - o["expectation"]) > 1e-9:
        errors.append(f"value {value!r} differs from Tr(rho B) {o['expectation']!r}")
    if value > o["top_eigenvalue"] + 1e-9:
        errors.append(f"value {value!r} exceeds the top eigenvalue {o['top_eigenvalue']!r}")
    trace = o["trace"]
    # each sweep maximizes exactly, so only roundoff may lower the value
    if any(b < a - TRACE_ROUNDOFF for a, b in zip(trace, trace[1:])):
        errors.append("winning see-saw trace decreases")
    kind = o["kind"]
    if kind == "mabk" and abs(value - o["target"]) > 1e-6:
        errors.append(f"mabk value {value!r}, expected {o['target']!r}")
    if kind == "named" and not value > 1:
        errors.append(f"named state does not violate: {value!r}")
    if kind == "mixed" and value > 1 + 1e-6:
        errors.append(f"weak mixed state violates: {value!r}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lift-search", lift_search_setup, lift_search_items, lift_search_check),
        Workload("facet-oracle", facet_oracle_setup, facet_oracle_items, facet_oracle_check),
        Workload("seesaw", seesaw_setup, seesaw_items, seesaw_check),
    )
}
