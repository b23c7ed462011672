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
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from typing import Any

import numpy as np

from .expressions import BellExpression, Scenario, _exact, _refuse_over_cap, _require_exact_size

__all__ = ["DocumentError", "parse_expression", "serialize_expression"]


class DocumentError(ValueError):
    """Malformed expression document."""


def _parse_settings(raw: Any) -> Scenario:
    if not isinstance(raw, list) or not raw:
        raise DocumentError("'settings' must be a non-empty list of positive integers")
    for entry in raw:
        if isinstance(entry, bool) or not isinstance(entry, int) or entry < 1:
            raise DocumentError(f"bad settings entry {entry!r}: need a positive integer")
    return Scenario(tuple(raw))


# A decimal coefficient's mantissa (no '/', no trailing space) and exponent,
# spelled as Fraction reads them; the mantissa itself is checked by Fraction.
_DECIMAL_EXPONENT = re.compile(r"([^/]*[^/\s])e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE)


def _parse_coefficient(raw: Any, label: str) -> Fraction:
    if isinstance(raw, str):
        try:
            decimal = _DECIMAL_EXPONENT.fullmatch(raw)
            if decimal:  # refuse 10**exponent beyond Python's digit limit on int literals
                Fraction(decimal[1])  # a malformed mantissa is still reported as malformed
                limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
                message = "{label}: coefficient {raw!r} has a decimal exponent of {size}"
                _refuse_over_cap(abs(int(decimal[2])), limit, message, label=label, raw=raw)
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{label}: malformed rational {raw!r} ({exc})") from None
    # bool is an int subclass, so rule it out first
    if isinstance(raw, bool) or isinstance(raw, float):
        raise DocumentError(
            f"{label}: coefficient {raw!r} must be a rational string like \"1/2\", not a float"
        )
    if isinstance(raw, int):
        return Fraction(raw)
    raise DocumentError(f"{label}: malformed rational {raw!r}")


def parse_expression(document: str | Mapping[str, Any]) -> BellExpression:
    """Build a BellExpression from a document (JSON text or decoded mapping).

    Coefficients not listed are zero.  Raises DocumentError naming the
    offending term for out-of-bounds tuples, duplicate tuples, and
    malformed rationals.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:  # a JSONDecodeError, or a number past int's digit limit
            raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise DocumentError("document must be a JSON object")
    scenario = _parse_settings(document.get("settings"))

    terms_raw = document.get("terms", [])
    if not isinstance(terms_raw, list):
        raise DocumentError("'terms' must be a list")
    _require_exact_size(scenario)  # before any coefficient is read
    seen: dict[tuple[int, ...], int] = {}
    coefficients: list[Fraction] = []
    for i, term in enumerate(terms_raw):
        label = f"term {i}"
        if not isinstance(term, Mapping):
            raise DocumentError(f"{label}: expected an object with 's' and 'c'")
        s_raw = term.get("s")
        if (
            not isinstance(s_raw, list)
            or len(s_raw) != scenario.parties
            or any(isinstance(x, bool) or not isinstance(x, int) for x in s_raw)
        ):
            raise DocumentError(
                f"{label}: 's' must be a list of {scenario.parties} integers, got {s_raw!r}"
            )
        s = tuple(s_raw)
        if any(not 0 <= x < m for x, m in zip(s, scenario.settings)):
            raise DocumentError(
                f"{label}: setting tuple {list(s)} out of bounds for settings "
                f"{list(scenario.settings)}"
            )
        if s in seen:
            raise DocumentError(
                f"{label}: duplicate setting tuple {list(s)} (first seen at term {seen[s]})"
            )
        seen[s] = i
        coefficients.append(_parse_coefficient(term.get("c"), label))
    # the numerators over the lcm of the denominators, written into place
    den = math.lcm(*(c.denominator for c in coefficients))
    nums = [0] * scenario.dimension
    tuples = np.array(list(seen), dtype=np.intp).reshape(-1, scenario.parties)
    for place, c in zip(np.ravel_multi_index(tuples.T, scenario.settings).tolist(), coefficients):
        nums[place] = c.numerator * (den // c.denominator)
    return _exact(scenario, nums, den)


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
