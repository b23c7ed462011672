"""bellift benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root, which must hold the sources under ``src/``:

    python3 perfbench/run.py --workload lift-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload seesaw --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

A timed run (``--trace 0``) first sets up the workload several times, each in
a fresh interpreter (start, import, cold build of the inputs), then runs
whole passes until ``--seconds`` have elapsed.  A traced run (``--trace 1``)
runs a fixed number of passes, each once untraced and once with every layer
function wrapped in a span, and reports per-layer metrics and the tracing
overhead; its spans are written to ``.perfbench/``.

The second-to-last line of standard output holds details (environment,
sample counts, errors); the last line is the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in set-up subprocesses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TRACE_PASSES = {"lift-search": 6, "facet-oracle": 1, "seesaw": 1}
P90_MIN_ITEMS = 100
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_s.p50": "s", "peak_rss_mb": "MiB"}


def import_bellift() -> None:
    """Import bellift from this checkout's sources, never from elsewhere."""
    if not (SRC / "bellift" / "__init__.py").is_file():
        raise SystemExit(f"bellift sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellift

    if Path(bellift.__file__).resolve().parent != SRC / "bellift":
        raise SystemExit(f"imported bellift from {bellift.__file__}, not from {SRC}")


def environment(seed: int | None) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


class Runner:
    """Runs passes of one workload and records item times and failures."""

    def __init__(self, workload, inputs, caches, tracer=None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.caches = caches
        self.tracer = tracer
        self.item_s: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.passes = 0
        self.elapsed = 0.0

    def run_pass(self, pass_index: int) -> None:
        pass_start = perf_counter()
        for cache in self.caches:
            cache.cache_clear()
        for item in self.workload.items(self.inputs, pass_index):
            if self.tracer:
                self.tracer.item = len(self.item_s)
            start = perf_counter()
            try:
                outcome = item()
            except Exception as exc:  # a failing item is counted, not fatal
                errors = [f"{type(exc).__name__}: {exc}"]
            else:
                errors = None
            self.item_s.append(perf_counter() - start)
            if errors is None:
                errors = self.workload.check(outcome)
            if errors:
                self.failed += 1
                self.errors.extend(f"pass {pass_index}: {e}" for e in errors)
        self.passes += 1
        self.elapsed += perf_counter() - pass_start

    def run(self, seconds: float) -> None:
        """Whole passes, at least one, until ``seconds`` have elapsed."""
        while self.passes == 0 or self.elapsed < seconds:
            self.run_pass(self.passes)

    @property
    def items_per_s(self) -> float:
        return len(self.item_s) / self.elapsed


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a new interpreter that imports bellift and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(args, workload, caches) -> tuple[list[Runner], dict, dict]:
    setup_samples = [fresh_setup_seconds(workload.name, args.seed) for _ in range(SETUP_REPEATS)]
    runner = Runner(workload, workload.setup(args.seed), caches)
    runner.run(seconds=args.seconds)
    values = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": runner.items_per_s,
        "item_s.p50": statistics.median(runner.item_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    details = {"setup_samples_s": setup_samples}
    if len(runner.item_s) >= P90_MIN_ITEMS:
        details["item_s.p90"] = statistics.quantiles(runner.item_s, n=10)[-1]
    return [runner], metrics, details


def overhead_metrics(untraced: float, traced: float) -> dict:
    return {
        "trace.items_per_s_untraced": (untraced, "1/s"),
        "trace.items_per_s_traced": (traced, "1/s"),
        "trace.overhead_items_per_s": (untraced - traced, "1/s"),
    }


def traced_run(args, workload, caches) -> tuple[list[Runner], dict, dict]:
    import spans
    import workloads

    inputs = workload.setup(args.seed)
    plain = Runner(workload, inputs, caches)
    tracer = spans.Tracer()
    runner = Runner(workload, inputs, caches, tracer)
    # Each pass runs both untraced and traced, so both see the same work.  The
    # second run of a pass tends to be a little faster, so the order
    # alternates, traced first on even passes.
    for pass_index in range(TRACE_PASSES[workload.name]):
        if pass_index % 2:
            plain.run_pass(pass_index)
        with tracer.installed(extra_modules=[workloads]):
            runner.run_pass(pass_index)
        if not pass_index % 2:
            plain.run_pass(pass_index)
    metrics = {**spans.layer_metrics(tracer), **overhead_metrics(plain.items_per_s, runner.items_per_s)}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
    fields = ("name", "start", "end", "parent", "item")
    path.write_text(json.dumps({"env": environment(args.seed), "spans": [dict(zip(fields, s)) for s in tracer.spans]}))
    return [plain, runner], metrics, {"spans": len(tracer.spans), "trace_file": str(path.relative_to(ROOT))}


def self_test() -> int:
    """Show that each workload's check passes real outputs and fails corrupted
    ones, and that BENCHMARK.json names the workloads and metrics produced."""
    import spans
    import workloads as w
    from fractions import Fraction

    cases = {
        "lift-search": lambda o: {**o, "lr_max": Fraction(2)},
        "facet-oracle": lambda o: {**o, "facets": {**o["facets"], (2, 2, 2): o["facets"][(2, 2, 2)][:-1]}},
        "seesaw": lambda o: {**o, "value": o["value"] + 1e-6},
    }
    ok = True
    for name, corrupt in cases.items():
        workload = w.WORKLOADS[name]
        items = list(workload.items(workload.setup(0), 0))
        outcome = items[-3 if name == "seesaw" else 0]()  # seesaw: mabk(4) on ghz(4)
        clean, broken = workload.check(outcome), workload.check(corrupt(outcome))
        print(f"{name}: clean output errors {clean}; corrupted output errors {broken}")
        ok &= not clean and bool(broken)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = {
        "workloads": set(w.WORKLOADS),
        "end_to_end": set(END_TO_END),
        "per_layer": set(spans.layer_metrics(spans.Tracer())) | set(overhead_metrics(1.0, 1.0)),
    }
    for key, names in produced.items():
        listed = {entry["name"] for entry in bench[key]}
        print(f"BENCHMARK.json {key}: {len(listed)} listed, missing {sorted(names - listed)}, extra {sorted(listed - names)}")
        ok &= listed == names
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    import_bellift()
    import spans
    import workloads

    if args.self_test:
        return self_test()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    caches = spans.find_caches(spans.bellift_modules())
    if args.setup_only:
        for cache in caches:
            cache.cache_clear()
        workload.setup(args.seed)
        return 0

    run = traced_run if args.trace else timed_run
    runners, metrics, details = run(args, workload, caches)
    attempted = sum(len(r.item_s) for r in runners)
    failed = sum(r.failed for r in runners)
    details = {
        "workload": workload.name,
        "trace": args.trace,
        "env": environment(args.seed),
        "passes": sum(r.passes for r in runners),
        "items": attempted,
        "elapsed_s": sum(r.elapsed for r in runners),
        "fail_frac": failed / attempted,
        "caches_cleared": len(caches),
        **details,
        "errors": [e for r in runners for e in r.errors][:10],
    }
    print(json.dumps(details))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
