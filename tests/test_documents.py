"""Expression document parsing, canonicalization, and error messages."""

import json
import time
from fractions import Fraction

import pytest

from bellift import (
    BellExpression,
    EnumerationCapExceeded,
    Scenario,
    enumerate_facets,
    four_party_19,
    mabk,
    wbz333,
)
from bellift.cli import main
from bellift.documents import DocumentError, parse_expression, serialize_expression

CHSH_DOC = {
    "settings": [2, 2],
    "terms": [
        {"s": [0, 0], "c": "1/2"},
        {"s": [0, 1], "c": "1/2"},
        {"s": [1, 0], "c": "1/2"},
        {"s": [1, 1], "c": "-1/2"},
    ],
}


def test_parse_chsh():
    assert parse_expression(CHSH_DOC) == mabk(2)
    assert parse_expression(json.dumps(CHSH_DOC)) == mabk(2)


def test_zero_and_empty():
    e = parse_expression({"settings": [1], "terms": []})
    assert e == BellExpression.zero(Scenario((1,)))
    assert serialize_expression(e) == {"settings": [1], "terms": []}


@pytest.mark.parametrize(
    "exprs",
    [
        lambda: [mabk(3)],
        lambda: [wbz333()],
        lambda: [four_party_19()],
        lambda: enumerate_facets(Scenario((2, 2, 2))),
        # a numerator beyond int64 over the mixed denominators 3 and 8
        lambda: [BellExpression(Scenario((2, 2)), [2**70, Fraction(1, 3), Fraction(-5, 8), 0])],
        lambda: [BellExpression.zero(Scenario((3, 2)))],
    ],
    ids=["mabk3", "wbz333", "four-party-19", "facets-222", "big-mixed", "zero"],
)
def test_roundtrip_is_identity(exprs):
    exprs = exprs()
    for e in exprs:
        doc = json.loads(json.dumps(serialize_expression(e)))
        assert parse_expression(doc) == e
        assert doc["terms"] == [{"s": list(s), "c": str(c)} for s, c in e.terms()]


def test_coefficient_text_is_that_of_fraction():
    assert [t["c"] for t in serialize_expression(mabk(2))["terms"]] == ["1/2"] * 3 + ["-1/2"]
    e = BellExpression(Scenario((2,)), [3, "-7/1"])
    assert [t["c"] for t in serialize_expression(e)["terms"]] == ["3", "-7"]


def test_decimal_coefficients_parse_as_fractions():
    for raw in ("1e400", "-1.5e-3", "1E+2", " 2_5e-0_1 "):
        e = parse_expression({"settings": [1], "terms": [{"s": [0], "c": raw}]})
        assert e.coeff((0,)) == Fraction(raw)


def test_huge_decimal_exponents_are_refused_at_once(capsys, tmp_path):
    doc = {"settings": [1], "terms": [{"s": [0], "c": "1e10000000"}]}
    start = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded, match="decimal exponent of 10000000"):
        parse_expression(doc)
    assert time.perf_counter() - start < 0.5  # building 10**10000000 takes seconds
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["lr-bound", str(path)]) == 2
    assert "cap" in capsys.readouterr().err
    # a malformed mantissa or exponent is still reported as malformed
    for raw in ("x1e99999", "1/2e99999", "1.5 e99999", "1e" + "9" * 5000):
        with pytest.raises(DocumentError, match="malformed"):
            parse_expression({"settings": [1], "terms": [{"s": [0], "c": raw}]})


def test_serialize_canonicalizes():
    messy = {
        "settings": [2, 2],
        "terms": [{"s": [1, 1], "c": "-2/4"}, {"s": [0, 0], "c": "3/6"}],
    }
    doc = serialize_expression(parse_expression(messy))
    assert doc["terms"] == [
        {"s": [0, 0], "c": "1/2"},
        {"s": [1, 1], "c": "-1/2"},
    ]


def test_metadata_is_attached_and_ignored():
    doc = serialize_expression(mabk(2), {"name": "chsh", "comment": "fixture"})
    assert doc["metadata"]["name"] == "chsh"
    assert parse_expression(doc) == mabk(2)


def test_integer_coefficients_are_accepted():
    e = parse_expression({"settings": [2], "terms": [{"s": [0], "c": 3}]})
    assert e.coeff((0,)) == 3


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"settings": [2, 2], "terms": [{"s": [0, 5], "c": "1"}]}, "out of bounds"),
        (
            {
                "settings": [2, 2],
                "terms": [{"s": [0, 0], "c": "1"}, {"s": [0, 0], "c": "2"}],
            },
            "duplicate",
        ),
        ({"settings": [2, 2], "terms": [{"s": [0, 0], "c": "1/0"}]}, "malformed"),
        ({"settings": [2, 2], "terms": [{"s": [0, 0], "c": "one half"}]}, "malformed"),
        ({"settings": [2, 2], "terms": [{"s": [0, 0], "c": 0.5}]}, "float"),
        ({"settings": [2, 2], "terms": [{"s": [0], "c": "1"}]}, "2 integers"),
        ({"settings": [], "terms": []}, "settings"),
        ({"settings": [2, 0], "terms": []}, "positive integer"),
        ({"settings": [2], "terms": [{"c": "1"}]}, "'s'"),
        ({"settings": [2], "terms": ["oops"]}, "expected an object"),
        ({"settings": [2], "terms": [{"s": [0], "c": None}]}, "malformed rational None"),
        ({"settings": [2], "terms": {"s": [0], "c": "1"}}, "'terms' must be a list"),
    ],
)
def test_distinct_error_messages(doc, fragment):
    with pytest.raises(DocumentError, match=fragment):
        parse_expression(doc)


def test_error_message_names_the_term():
    doc = {
        "settings": [2],
        "terms": [{"s": [0], "c": "1"}, {"s": [1], "c": "1"}, {"s": [9], "c": "1"}],
    }
    with pytest.raises(DocumentError, match="term 2"):
        parse_expression(doc)


def test_not_json():
    for text in ("{nope", "9" * 5000):  # json.loads refuses the number with a plain ValueError
        with pytest.raises(DocumentError, match="JSON"):
            parse_expression(text)
    with pytest.raises(DocumentError, match="object"):
        parse_expression("[1, 2]")
