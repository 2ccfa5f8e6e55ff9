"""Deterministic JSON writer."""

import json

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
