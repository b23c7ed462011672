"""JSON round-tripping for Bell expressions.

The document format keeps coefficients exact by encoding them as rational
strings (``"1/2"``, ``"-3"``), never as floats:

    {
      "settings": [2, 2],
      "terms": [
        {"s": [0, 0], "c": "1/2"},
        {"s": [0, 1], "c": "1/2"},
        {"s": [1, 0], "c": "1/2"},
        {"s": [1, 1], "c": "-1/2"}
      ],
      "metadata": {"name": "chsh"}          # optional
    }

``parse_expression`` accepts a JSON string or an already-decoded mapping;
``serialize_expression`` emits a plain dict with zero coefficients omitted
and terms sorted, so serialize-then-parse is the identity and
parse-then-serialize canonicalizes.

This module checks only the JSON structure (the object and list shapes),
refuses a setting tuple listed twice, and labels each refusal with its term.
``Scenario.flat_index`` reads each setting tuple, and the input rules of
``expressions`` read every number.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Any

from .expressions import BellExpression, EnumerationCapExceeded, Scenario, _as_fraction
from .expressions import _over_one_denominator, _require_exact_size, _sparse

__all__ = ["DocumentError", "parse_expression", "serialize_expression"]


class DocumentError(ValueError):
    """Malformed expression document."""


def parse_expression(document: str | Mapping[str, Any]) -> BellExpression:
    """Build a BellExpression from a document (JSON text or decoded mapping).

    Coefficients not listed are zero.  A DocumentError names the offending
    term of a tuple that ``Scenario.flat_index`` refuses, of a duplicate
    tuple, or of a malformed number.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        # a JSONDecodeError, a number past int's digit limit, or nesting too deep
        except (ValueError, RecursionError) as exc:
            raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise DocumentError("document must be a JSON object")
    settings, terms_raw = document.get("settings"), document.get("terms", [])
    if not isinstance(settings, list):
        raise DocumentError("'settings' must be a non-empty list of positive integers")
    if not isinstance(terms_raw, list):
        raise DocumentError("'terms' must be a list")
    label = "'settings'"
    try:  # the library reads every number; its refusals are labelled here
        scenario = Scenario(settings)
        _require_exact_size(scenario)  # before any coefficient is read
        seen: dict[int, int] = {}  # flat place -> first term; insertion order is term order
        coefficients: list[Fraction] = []
        for i, term in enumerate(terms_raw):
            label = f"term {i}"
            if not isinstance(term, Mapping):
                raise DocumentError("expected an object with 's' and 'c'")
            s = term.get("s")
            if not isinstance(s, list):
                raise DocumentError(f"'s' must be a list of setting indices, got {s!r}")
            place = scenario.flat_index(s)
            if place in seen:
                raise DocumentError(
                    f"duplicate setting tuple {s} (first seen at term {seen[place]})"
                )
            seen[place] = i
            coefficients.append(_as_fraction(term.get("c")))
    except (TypeError, ValueError) as exc:  # a DocumentError too: each gets its label
        raise DocumentError(f"{label}: {exc}") from None
    except EnumerationCapExceeded as exc:
        exc.args = (f"{label}: {exc}",)
        raise
    return _sparse(scenario, seen, *_over_one_denominator(coefficients))


def serialize_expression(
    expr: BellExpression, metadata: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Expression as a JSON-ready dict: non-zero terms only, sorted by tuple.

    Each coefficient is written as ``str(Fraction)`` writes it ("1/2", "-1/2",
    "3"), reduced by one gcd of its numerator and the denominator.
    """
    den, terms = expr.denominator, []
    for s, n in zip(expr.scenario.index_tuples(), expr.numerators):
        if n:
            g = math.gcd(n, den)
            terms.append({"s": list(s), "c": f"{n // g}" if g == den else f"{n // g}/{den // g}"})
    doc: dict[str, Any] = {"settings": list(expr.scenario.settings), "terms": terms}
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc
