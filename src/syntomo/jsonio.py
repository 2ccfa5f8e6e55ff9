"""Deterministic JSON writing, and the reading of complex amplitudes.

All floats are rendered with 17 significant digits, which round-trips
IEEE doubles losslessly and keeps reports byte-stable across runs. A
uniformly nested list of floats, of any depth, such as chi as rows of
[re, im] pairs, is rendered by one ``%`` of a cached template over all
its values, and so is a list of flat dicts with the same keys and value
types, such as a report's residual rows. Strings are escaped as the
standard library escapes them. numpy integers and bools render as ints
and bools. Input files write a complex amplitude as a pair ``[re, im]``
(``complex_from_pair``).
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from collections.abc import Mapping
from itertools import chain, cycle, repeat
from json.encoder import encode_basestring

import numpy as np

_SURROGATE = re.compile("[\ud800-\udfff]")
_ROWS = {list, tuple}
_BASES = (str, int, float, list, tuple, dict)
_KINDS = {type(None), bool, *_BASES}
# what a subclass or a numpy scalar renders as, by its first match
_ALIASES = ((np.integer, int), (np.bool_, bool)) + tuple((b, b) for b in _BASES)
# a dict row's cells: the template field of each value type, and the
# text of a bool or None cell
_CELLS = {int: "%d", float: "%.17g", str: "%s", bool: "%s", type(None): "%s"}
_CONVERT = {bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _quote(text: str) -> str:
    """JSON string literal as the standard library writes it without
    ``ensure_ascii``, lone surrogates (U+D800-U+DFFF, as a non-UTF-8 file
    name decodes to) escaped as well, so the text encodes as UTF-8."""
    if text.isascii():
        return encode_basestring(text)
    return _SURROGATE.sub(lambda m: "\\u%04x" % ord(m.group()), encode_basestring(text))


@functools.lru_cache(maxsize=64)
def _template(indent: int, shape: tuple) -> str:
    """Format string of a nested float list of shape ``shape`` (a float
    list for shape (m,), m float lists of length L for (m, L), and so on)
    at nesting depth ``indent``."""
    pad = "  " * indent
    if len(shape) == 1:
        item = "%.17g"
    else:
        item = _template(indent + 1, shape[1:])
    return "[\n" + ",\n".join([pad + "  " + item] * shape[0]) + "\n" + pad + "]"


def _floats(seq, indent: int) -> str | None:
    """``seq`` rendered in one template pass, or None when it is not a
    non-empty, uniformly nested list of finite floats: at every depth
    the lists have one non-empty length, and the floats sit at one depth
    (the item-by-item path then renders it, or raises). Chi's rows of
    [re, im] pairs are such a list of depth 3."""
    shape = []
    first = seq
    while type(first) in _ROWS and first:
        shape.append(len(first))
        first = first[0]
    if not isinstance(first, float):
        return None
    values = seq
    for width in shape[1:]:
        if not (set(map(type, values)) <= _ROWS and set(map(len, values)) == {width}):
            return None
        values = tuple(chain.from_iterable(values))
    if not all(map(isinstance, values, repeat(float))):
        return None
    text = _template(indent, tuple(shape)) % tuple(values)
    # "%.17g" spells a non-finite value "inf" or "nan", and no finite one
    # holds an "n"; the item-by-item path then raises on the first
    if "n" in text:
        return None
    return text


@functools.lru_cache(maxsize=64)
def _dict_row(indent: int, keys: tuple, kinds: tuple) -> str:
    """Format string of a dict with keys ``keys`` and value types
    ``kinds``, as an item of a list at nesting depth ``indent``."""
    pad = "  " * (indent + 1)
    return pad + "{\n" + ",\n".join(
        pad + "  " + _quote(key).replace("%", "%%") + ": " + _CELLS[kind]
        for key, kind in zip(keys, kinds)) + "\n" + pad + "}"


def _dicts(seq, indent: int) -> str | None:
    """``seq`` rendered in one template pass, or None when it is not a
    list of non-empty dicts with the same string keys in the same order
    and values of the same types, each an int, finite float, str, bool
    or None (the item-by-item path then renders it, or raises)."""
    first = seq[0]
    if type(first) is not dict or not first or set(map(type, seq)) != {dict}:
        return None
    keys, kinds = tuple(first), tuple(map(type, first.values()))
    if not (set(map(type, keys)) == {str} and set(kinds) <= _CELLS.keys()):
        return None
    if list(chain.from_iterable(seq)) != list(keys) * len(seq):
        return None
    values = list(chain.from_iterable(map(dict.values, seq)))
    if list(map(type, values)) != list(kinds) * len(seq):
        return None
    cells = []
    # the rows repeat few strings: quote each once
    quoted = {}
    for value, kind in zip(values, cycle(kinds)):
        if kind is float:
            if not math.isfinite(value):
                return None
        elif kind is str:
            if value not in quoted:
                quoted[value] = _quote(value)
            value = quoted[value]
        elif kind is not int:
            value = _CONVERT[kind](value)
        cells.append(value)
    rows = ",\n".join([_dict_row(indent, keys, kinds)] * len(seq)) % tuple(cells)
    return "[\n" + rows + "\n" + "  " * indent + "]"


def _render(obj, indent: int, out: list) -> None:
    kind = type(obj)
    if kind not in _KINDS:
        kind = next((k for base, k in _ALIASES if isinstance(obj, base)), kind)
    pad = "  " * indent
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError("non-finite float in JSON output: %r" % obj)
        out.append("%.17g" % obj)
    elif kind is str:
        out.append(_quote(obj))
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        text = _floats(obj, indent)
        if text is None:
            text = _dicts(obj, indent)
        if text is not None:
            out.append(text)
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _render(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings, got %r" % (key,))
            out.append(pad + "  " + _quote(key) + ": ")
            _render(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif kind is int:
        out.append(str(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj) -> str:
    """Serialize ``obj`` to deterministic JSON text."""
    out: list = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)


def complex_from_pair(pair) -> complex:
    """The amplitude ``re + i im`` of a JSON pair ``[re, im]``.

    Anything but a two-item list or tuple of real numbers (bools are
    not numbers here), or a number out of float range, raises
    ``TypeError``, which the file readers report as a schema error.
    """
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                       for v in pair)):
        raise TypeError("an amplitude must be a [re, im] pair of numbers, "
                        "got %r" % (pair,))
    try:
        return complex(pair[0], pair[1])
    except OverflowError:
        raise TypeError("amplitude %r is out of float range" % (pair,))


def _json_list(value, key: str):
    """``value`` if it is a JSON array (a list or tuple), else a
    ``TypeError`` naming the field ``key`` that held it, a schema error:
    a string would iterate its letters, and an object its keys."""
    if isinstance(value, (list, tuple)):
        return value
    raise TypeError('"%s" must be a list, got %r' % (key, value))


def _json_object(value, key=None) -> Mapping:
    """``value`` if it is a JSON object, else a ``TypeError`` naming what
    was found (and the field ``key`` that held it), a schema error."""
    if isinstance(value, Mapping):
        return value
    where = "" if key is None else ' for "%s"' % key
    found = "null" if value is None else type(value).__name__
    raise TypeError("expected a JSON object%s, got %s" % (where, found))
