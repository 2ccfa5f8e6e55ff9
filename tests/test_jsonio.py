"""Deterministic JSON writer."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from syntomo import jsonio


def test_strings_and_keys_round_trip():
    text = 'a\nb"c\\d\x01e\x1f'
    obj = {text: [text, "plain"], "k": {text: None}}
    assert json.loads(jsonio.dumps(obj)) == obj


def test_control_characters_escaped():
    out = jsonio.dumps({"\t": "\x00\n"})
    assert out == '{\n  "\\t": "\\u0000\\n"\n}\n'


def test_floats_keep_17_digits():
    assert jsonio.dumps([0.1]) == "[\n  0.10000000000000001\n]\n"


def test_lone_surrogates_escaped():
    # a file name holding the byte 0xff decodes to "\udcff"
    text = "c\udcff.json \ud800 \udfff"
    out = jsonio.dumps({text: text})
    assert out == ('{\n  "c\\udcff.json \\ud800 \\udfff": '
                   '"c\\udcff.json \\ud800 \\udfff"\n}\n')
    out.encode("utf-8")
    assert json.loads(out) == {text: text}


# any code point, with control characters and lone surrogates often
TEXT = hs.text(hs.one_of(hs.characters(codec=None, exclude_categories=()),
                         hs.integers(0, 0x1F).map(chr),
                         hs.integers(0xD800, 0xDFFF).map(chr)))
# JSON reads the escapes of a high then a low surrogate as one character
SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


@settings(max_examples=500, deadline=None)
@given(text=TEXT)
def test_strings_against_json_loads(text):
    for obj in (text, {text: text}):
        out = jsonio.dumps(obj)
        out.encode("utf-8")
        want = obj if SURROGATE_PAIR.search(text) is None else json.loads(json.dumps(obj))
        assert json.loads(out) == want


def test_checks_are_kept():
    for bad in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps([[0.5, bad], [0.5, 0.5]])
    with pytest.raises(TypeError, match="keys must be strings"):
        jsonio.dumps({"a": [1.0], 1: [2.0]})
    with pytest.raises(TypeError, match="cannot serialize"):
        jsonio.dumps([1.0, np.float32(1.0)])


def reference_render(obj, indent, out):
    """The item-by-item renderer: one call per value."""
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(jsonio._quote(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite float in JSON output: %r" % obj)
        out.append("%.17g" % obj)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            reference_render(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings, got %r" % (key,))
            out.append(pad + "  " + jsonio._quote(key) + ": ")
            reference_render(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def outcome(fn, obj):
    """The text, or the exception's type and message."""
    try:
        return fn(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference_dumps(obj):
    out = []
    reference_render(obj, 0, out)
    out.append("\n")
    return "".join(out)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300,
               -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
FLOATS = hs.one_of(hs.floats(), hs.sampled_from(EDGE_FLOATS))
# mostly floats, so the template path runs; np.float64 is a float subclass
FLOAT_ITEMS = hs.one_of(FLOATS, FLOATS.map(np.float64))
ITEMS = hs.one_of(FLOAT_ITEMS, FLOAT_ITEMS, FLOAT_ITEMS, hs.booleans(),
                  hs.integers(-(1 << 70), 1 << 70), hs.none())


def sequences(items, **kwargs):
    return hs.one_of(hs.lists(items, **kwargs),
                     hs.lists(items, **kwargs).map(tuple))


FLOAT_LISTS = hs.one_of(sequences(FLOAT_ITEMS, max_size=6),
                        sequences(ITEMS, max_size=6))
# equal-length rows (chi rows), empty ones included, and ragged ones
ROWS = hs.one_of(
    hs.integers(0, 4).flatmap(lambda width: sequences(
        sequences(FLOAT_ITEMS, min_size=width, max_size=width), max_size=5)),
    sequences(FLOAT_LISTS, max_size=5))
LEAVES = hs.one_of(ITEMS, hs.text(max_size=4), FLOAT_LISTS, ROWS)
DOCUMENTS = hs.recursive(
    LEAVES,
    lambda inner: hs.one_of(sequences(inner, max_size=4),
                            hs.dictionaries(hs.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(obj=DOCUMENTS)
def test_dumps_matches_the_item_by_item_renderer(obj):
    assert outcome(jsonio.dumps, obj) == outcome(reference_dumps, obj)


def test_chi_rows_match_the_item_by_item_renderer():
    rng = np.random.default_rng(5)
    chi = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    doc = {"chi": [[[float(v.real), float(v.imag)] for v in row] for row in chi],
           "validity": {"trace": 1.0, "min_eigenvalue": -0.0}}
    assert jsonio.dumps(doc) == reference_dumps(doc)
