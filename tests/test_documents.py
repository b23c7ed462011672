"""Expression document parsing, canonicalization, and error messages."""

import json

import pytest

from bellift import BellExpression, Scenario, mabk
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


def test_roundtrip_is_identity():
    e = mabk(3)
    assert parse_expression(serialize_expression(e)) == e


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
    with pytest.raises(DocumentError, match="JSON"):
        parse_expression("{nope")
    with pytest.raises(DocumentError, match="object"):
        parse_expression("[1, 2]")
