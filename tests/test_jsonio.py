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


# float-free JSON without lone surrogates, where the standard library
# is an independent oracle of the layout; lists of dicts with one key
# order and one value type per key take the row template
PLAIN_TEXT = hs.text(hs.characters(codec=None, exclude_categories=("Cs",)), max_size=4)
PLAIN_SCALARS = [PLAIN_TEXT, hs.integers(-(1 << 70), 1 << 70), hs.booleans(), hs.none()]


@hs.composite
def plain_rows(draw):
    keys = draw(hs.lists(PLAIN_TEXT, min_size=1, max_size=3, unique=True))
    kinds = {key: draw(hs.sampled_from(PLAIN_SCALARS)) for key in keys}
    return draw(hs.lists(hs.fixed_dictionaries(kinds), min_size=1, max_size=4))


PLAIN_DOCUMENTS = hs.recursive(
    hs.one_of(*PLAIN_SCALARS, plain_rows()),
    lambda inner: hs.one_of(hs.lists(inner, max_size=4), hs.lists(inner, max_size=4).map(tuple),
                            hs.dictionaries(PLAIN_TEXT, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(doc=PLAIN_DOCUMENTS)
def test_float_free_documents_match_the_standard_library(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


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
    elif isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(jsonio._quote(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
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
NUMPY_SCALARS = hs.one_of(hs.integers(-(1 << 63), (1 << 63) - 1).map(np.int64),
                         hs.integers(0, (1 << 64) - 1).map(np.uint64),
                         hs.integers(-128, 127).map(np.int8), hs.booleans().map(np.bool_))
ITEMS = hs.one_of(FLOAT_ITEMS, FLOAT_ITEMS, FLOAT_ITEMS, hs.booleans(),
                  hs.integers(-(1 << 70), 1 << 70), hs.none(), NUMPY_SCALARS)


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
# depth 3, as chi's rows of [re, im] pairs: uniform shapes, empty lists
# among them, and lists of rows of unequal widths
CUBES = hs.one_of(
    hs.tuples(hs.integers(0, 3), hs.integers(0, 3), hs.integers(0, 2)).flatmap(
        lambda shape: sequences(sequences(
            sequences(FLOAT_ITEMS, min_size=shape[2], max_size=shape[2]),
            min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0])),
    sequences(ROWS, max_size=3))
# cells of dict rows: scalars of each kind a row template renders, plus
# numpy scalars, lists and dicts, which it leaves to the item-by-item path
CELLS = [FLOATS, hs.integers(-(1 << 70), 1 << 70), hs.text(max_size=3),
         hs.booleans(), hs.none(), NUMPY_SCALARS, FLOAT_LISTS,
         hs.dictionaries(hs.text(max_size=2), FLOATS, max_size=2)]
KEYS = hs.one_of(hs.sampled_from(["configuration", "kind", "max_residual", "%s", "%%d"]),
                 hs.text(max_size=3))


@hs.composite
def same_key_rows(draw):
    """Dicts with one key order and one cell kind per key, as residual
    rows are; now and then a key that is not a string."""
    keys = draw(hs.lists(KEYS, min_size=1, max_size=4, unique=True))
    if draw(hs.sampled_from([False] * 7 + [True])):
        keys[-1] = draw(hs.integers(0, 2))
    kinds = [draw(hs.sampled_from(CELLS[:5] * 4 + CELLS[5:])) for _ in keys]
    rows = draw(hs.lists(hs.tuples(*kinds), min_size=1, max_size=5))
    return [dict(zip(keys, row)) for row in rows]


# lists of same-key dicts, and of dicts with unequal keys, orders or kinds
DICT_ROWS = hs.one_of(
    same_key_rows(), same_key_rows(), same_key_rows(), same_key_rows(),
    hs.lists(hs.dictionaries(KEYS, hs.one_of(*CELLS), max_size=3), min_size=1, max_size=4),
    hs.lists(hs.one_of(same_key_rows().map(lambda rows: rows[0]), ITEMS), min_size=1,
             max_size=4))
LEAVES = hs.one_of(ITEMS, hs.text(max_size=4), FLOAT_LISTS, ROWS, CUBES, DICT_ROWS,
                  DICT_ROWS)
DOCUMENTS = hs.recursive(
    LEAVES,
    lambda inner: hs.one_of(sequences(inner, max_size=4),
                            hs.dictionaries(hs.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(obj=DOCUMENTS)
def test_dumps_matches_the_item_by_item_renderer(obj):
    assert outcome(jsonio.dumps, obj) == outcome(reference_dumps, obj)


def test_chi_rows_match_the_item_by_item_renderer(monkeypatch):
    rng = np.random.default_rng(5)
    chi = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    doc = {"chi": [[[float(v.real), float(v.imag)] for v in row] for row in chi],
           "validity": {"trace": 1.0, "min_eigenvalue": -0.0}}
    want = reference_dumps(doc)
    # chi, a list of depth 3, goes through one template
    calls = []
    render = jsonio._render

    def counting(obj, indent, out):
        calls.append(obj)
        render(obj, indent, out)

    monkeypatch.setattr(jsonio, "_render", counting)
    assert jsonio.dumps(doc) == want
    parts = {id(part) for row in doc["chi"] for part in [row, *row]}
    assert not [obj for obj in calls if id(obj) in parts]


def test_numpy_integers_and_bools_render_as_ints_and_bools():
    doc = {"shots": np.int64(5), "n": [np.uint64((1 << 64) - 1), np.int8(-3)],
           "flag": np.bool_(True), "off": [np.False_]}
    assert jsonio.dumps(doc) == reference_dumps(doc)
    assert json.loads(jsonio.dumps(doc)) == {"shots": 5, "n": [(1 << 64) - 1, -3],
                                             "flag": True, "off": [False]}


def test_residual_rows_render_by_one_template(monkeypatch):
    rows = [{"configuration": i, "kind": kind, "max_residual": 1.0 / (i + 3),
             "flag": i % 2 == 0, "note": None}
            for i, kind in enumerate(["bare", "rotated", 'to"g%sgled'])]
    doc = {"residuals": rows}
    want = reference_dumps(doc)
    # the rows go through the template, not one _render call per value
    calls = []
    render = jsonio._render

    def counting(obj, indent, out):
        calls.append(obj)
        render(obj, indent, out)

    monkeypatch.setattr(jsonio, "_render", counting)
    assert jsonio.dumps(doc) == want
    assert len(calls) == 2
    rows[1]["max_residual"] = math.nan
    assert outcome(jsonio.dumps, doc) == outcome(reference_dumps, doc)
    assert outcome(jsonio.dumps, doc)[0] is ValueError
