"""Spans around calls into bellift's layers, kept in memory for the traced run.

``Tracer.installed`` wraps every public module-level function of the layer
modules.  A wrapped function is patched at every module binding that refers
to it (found by identity, so ``bellift.quantum.lr_max`` and
``bellift.lr_max`` are patched along with ``bellift.polytope.lr_max``), and
the tracer checks that no loaded module still binds an unwrapped one.
While installed, ``numpy.einsum`` is also counted when called inside a
``quantum`` span.

A span is ``(name, start, end, parent, item)``: ``name`` is
``<layer>.<function>``, ``parent`` the index of the enclosing span or -1,
and ``item`` the id of the benchmark item being processed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterable, Iterator

import numpy as np

LAYERS = ("rational_linalg", "polytope", "lifting", "expressions", "documents", "quantum")

# layer function -> what to count from its result
OBSERVERS: dict[str, Callable[[Any], dict[str, int]]] = {
    "rational_linalg.solve_unit_rhs": lambda r: {"useful": r is not None},
    "lifting.compatibility_holds": lambda r: {"valid": r[0]},
    "quantum.seesaw_maximize": lambda r: {
        "winning_sweeps": len(r.trace) - 1,
        "converged": r.converged,
    },
}


def bellift_modules() -> list[ModuleType]:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "bellift"]


def find_caches(modules: Iterable[ModuleType]) -> list[Any]:
    """Every distinct ``lru_cache`` bound at module level in ``modules``."""
    found: dict[int, Any] = {}
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def layer_functions() -> dict[str, Callable]:
    """Public module-level functions defined in each layer module."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"bellift.{layer}"]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and not inspect.isclass(value)
                and getattr(value, "__module__", None) == module.__name__
                and not inspect.isgeneratorfunction(inspect.unwrap(value))
            ):
                out[f"{layer}.{attr}"] = value
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._layers: list[str] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".")[0]
        observe = OBSERVERS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        spans, stack, layers, counts = self.spans, self._stack, self._layers, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            layers.append(layer)
            hits = cache_info().hits if cache_info else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                layers.pop()
                spans[index] = (name, start, end, parent, self.item)
            if cache_info and cache_info().hits > hits:
                counts[f"{name}.hits"] += 1
            if observe:
                for key, value in observe(result).items():
                    counts[f"{name}.{key}"] += int(value)
            return result

        return traced

    @contextmanager
    def installed(self, extra_modules: Iterable[ModuleType] = ()) -> Iterator[None]:
        originals = {id(fn): (name, fn) for name, fn in layer_functions().items()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        patches = [
            (module, attr, value)
            for module in bellift_modules() + list(extra_modules)
            for attr, value in vars(module).items()
            if id(value) in originals
        ]
        for module, attr, value in patches:
            setattr(module, attr, wrappers[id(value)])
        einsum = np.einsum
        layers, counts = self._layers, self.counts

        @functools.wraps(einsum)
        def counted_einsum(*args, **kwargs):
            if layers and layers[-1] == "quantum":
                counts["quantum.einsum.calls"] += 1
            return einsum(*args, **kwargs)

        np.einsum = counted_einsum
        try:
            # a binding left anywhere would let calls escape the trace
            escaped = [
                f"{name}.{attr}"
                for name, module in list(sys.modules.items())
                if module is not None
                for attr, value in vars(module).items()
                if id(value) in originals
            ]
            if escaped:
                raise RuntimeError(f"unwrapped bindings left: {escaped}")
            yield
        finally:
            np.einsum = einsum
            for module, attr, value in patches:
                setattr(module, attr, value)

    def totals(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Calls and inclusive seconds per function, self seconds per layer.

        Inclusive time counts only the outermost of nested calls to the same
        function; a layer's self time is its spans' time minus the time of
        their direct child spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name.split(".")[0]] += end - start - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        return calls, inclusive, self_s


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, name -> (value, unit)."""
    calls, inclusive, self_s = tracer.totals()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def count(name: str, value: float) -> None:
        out[name] = (value, "count")

    def seconds(name: str, value: float) -> None:
        out[name] = (float(value), "s")

    def ratio(name: str, value: float) -> None:
        out[name] = (value, "ratio")

    for layer in LAYERS:
        seconds(f"{layer}.self_s", self_s[layer])
    for fn in ("rational_linalg.integer_rank", "rational_linalg.solve_unit_rhs"):
        count(f"{fn}.calls", calls[fn])
        seconds(f"{fn}.s", inclusive[fn])
    ratio(
        "rational_linalg.solve_unit_rhs.useful_ratio",
        _ratio(counts["rational_linalg.solve_unit_rhs.useful"], calls["rational_linalg.solve_unit_rhs"]),
    )
    count("polytope.lr_max.calls", calls["polytope.lr_max"])
    ratio("polytope.lr_max.hit_ratio", _ratio(counts["polytope.lr_max.hits"], calls["polytope.lr_max"]))
    count("polytope.lr_max_with_witness.calls", calls["polytope.lr_max_with_witness"])
    seconds("polytope.lr_max_with_witness.s", inclusive["polytope.lr_max_with_witness"])
    count("polytope.tightness.calls", calls["polytope.tightness"])
    seconds("polytope.tightness.s", inclusive["polytope.tightness"])
    ratio("polytope.tightness.hit_ratio", _ratio(counts["polytope.tightness.hits"], calls["polytope.tightness"]))
    seconds("polytope.enumerate_facets_brute.s", inclusive["polytope.enumerate_facets_brute"])
    seconds("polytope.distinct_vertices.s", inclusive["polytope.distinct_vertices"])
    count("lifting.compatibility_holds.calls", calls["lifting.compatibility_holds"])
    ratio(
        "lifting.compatibility_holds.valid_ratio",
        _ratio(counts["lifting.compatibility_holds.valid"], calls["lifting.compatibility_holds"]),
    )
    count("lifting.lift2.calls", calls["lifting.lift2"])
    count("lifting.lift3.calls", calls["lifting.lift3"])
    count("expressions.linear_combine.calls", calls["expressions.linear_combine"])
    count("expressions.apply_signed_setting_map.calls", calls["expressions.apply_signed_setting_map"])
    count("quantum.seesaw_maximize.calls", calls["quantum.seesaw_maximize"])
    seconds("quantum.seesaw_maximize.s", inclusive["quantum.seesaw_maximize"])
    count("quantum.einsum.calls", counts["quantum.einsum.calls"])
    count("quantum.seesaw.winning_sweeps", counts["quantum.seesaw_maximize.winning_sweeps"])
    ratio(
        "quantum.seesaw.converged_ratio",
        _ratio(counts["quantum.seesaw_maximize.converged"], calls["quantum.seesaw_maximize"]),
    )
    count("quantum.correlation_tensor.calls", calls["quantum.correlation_tensor"])
    for fn in ("correlation_tensor", "bell_operator", "spectrum", "make_state"):
        seconds(f"quantum.{fn}.s", inclusive[f"quantum.{fn}"])
    return out
