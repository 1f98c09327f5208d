"""Deterministic JSON rendering with full-precision floats.

The standard encoder writes floats via ``repr`` (shortest round-trip
form); file formats here instead commit to 17 significant digits, which
also round-trips float64 exactly and keeps documents byte-stable across
Python versions.  Dict key order is preserved, scalar lists stay on one
line, and nested containers are indented two spaces.

A list whose items are all exactly ``int`` or all exactly ``float`` is
joined in one pass, with the same bytes as rendering each item on its own;
any other list (bools, mixed ints and floats, numpy scalars, strings,
containers) is rendered item by item.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

_DIGITS = ".17g"


def fmt17(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, _DIGITS)


def _scalar(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt17(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _is_scalar(value: object) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _render(value: object, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if _is_scalar(value):
        return _scalar(value)
    if isinstance(value, (list, tuple)):
        items = list(value)
        kinds = {*map(type, items)}
        if kinds == {int}:
            return "[" + ", ".join(map(str, items)) + "]"
        if kinds == {float}:
            if not all(map(math.isfinite, items)):  # raises, naming the first
                fmt17(next(v for v in items if not math.isfinite(v)))
            return "[" + ", ".join(map(format, items, repeat(_DIGITS))) + "]"
        if all(_is_scalar(v) for v in items):
            return "[" + ", ".join(_scalar(v) for v in items) + "]"
        body = ",\n".join(inner + _render(v, indent + 1) for v in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(doc: object) -> str:
    return _render(doc, 0) + "\n"
