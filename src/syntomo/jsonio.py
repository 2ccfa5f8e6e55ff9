"""Deterministic JSON writing.

All floats are rendered with 17 significant digits, which round-trips
IEEE doubles losslessly and keeps reports byte-stable across runs.
"""

from __future__ import annotations

import math
import re

_SPECIAL = re.compile(r'[\x00-\x1f"\\]')
_SHORT = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f",
          "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _quote(text: str) -> str:
    """JSON string literal; quotes, backslashes and U+0000-U+001F escaped."""
    return '"' + _SPECIAL.sub(
        lambda m: _SHORT.get(m.group(), "\\u%04x" % ord(m.group())), text) + '"'


def _render(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
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
            _render(item, indent + 1, out)
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
            out.append(pad + "  " + _quote(key) + ": ")
            _render(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj) -> str:
    """Serialize ``obj`` to deterministic JSON text."""
    out: list = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)
