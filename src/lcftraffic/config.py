"""One rule for config fields and one reader for JSON objects.

A config dataclass declares each field's bounds once, ``step_s: float =
bounded(5.0, gt=0)``, and runs ``check`` as its ``__post_init__``. A value
is checked for its kind (bool, int, float, str, dict, ``tuple[<kind>, ...]``
or the pair ``tuple[<kind>, <kind>]``; a bool is no number, an int no
float), then finiteness, then bounds: ``{field} must be {rule}, got {value!r}``.

The network, OD, partition and manifest files are JSON: ``load_json``
reads one and ``read_json`` or ``from_json`` checks it, naming the key path.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import field, fields

# kind: (the types JSON gives it, the type any other value must be, rule)
_KINDS = {"bool": ((bool,), bool, "a bool"),
          "int": ((int,), numbers.Integral, "an int"),
          "float": ((float, int), numbers.Real, "a float"),
          "str": ((str,), str, "a str"), "dict": ((dict,), dict, "a JSON object")}
_SYMBOLS = {"gt": ">", "ge": ">=", "le": "<="}


def bounded(default, **rule):
    """A field whose values pass ``rule``: bounds gt, ge, le, or one_of."""
    return field(default=default, metadata=rule)


def check_value(name: str, value, kind: str, one_of=None, **bounds) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` passes."""
    if kind.startswith("tuple["):
        item, _, last = kind[6:-1].rpartition(", ")
        if not isinstance(value, tuple) or last != "..." and len(value) != 2:
            raise ValueError(f"{name} must be a {kind}, got {value!r}")
        for i, v in enumerate(value):
            check_value(f"{name}[{i}]", v, item, one_of, **bounds)
        return
    exact, typ, rule = _KINDS[kind]
    if type(value) in exact or isinstance(value, typ) and (
            kind == "bool" or not isinstance(value, bool)):
        if kind == "float" and not -math.inf < value < math.inf:
            rule = "finite"
        elif one_of is not None and value not in one_of:
            rule = "one of " + ", ".join(one_of)
        elif bounds and not all(getattr(operator, op)(value, b)
                                for op, b in bounds.items()):
            rule = " and ".join(f"{_SYMBOLS[op]} {b}" for op, b in bounds.items())
        else:
            return
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def check(config) -> None:
    for f in fields(config):
        check_value(f.name, getattr(config, f.name), f.type, **f.metadata)


def require_keys(doc, keys, where: str) -> dict:
    """``doc``, a JSON object that holds every one of ``keys`` and no other."""
    if type(doc) is dict and doc.keys() == set(keys):
        return doc
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    faults = [f"no key {k!r}" for k in keys if k not in doc] \
        + [f"unknown key {k!r}" for k in sorted(set(doc) - set(keys))]
    if faults:
        raise ValueError(f"{where}: {faults[0]}")
    return doc


def load_json(path, command: str):
    """The JSON document in file ``path``. A file that is no JSON, such as
    a text format of earlier versions, is a ValueError naming the file and
    ``command``, the one that writes it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON file ({exc}); regenerate it "
                         f"with lcftraffic {command}") from None


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def read_json(doc, kinds: dict[str, str], where: str, build=dict):
    """``build(**values)`` of a JSON object with exactly the keys of
    ``kinds``, its lists read as tuples and each value of its kind."""
    values = {k: _tuples(v) for k, v in require_keys(doc, kinds, where).items()}
    try:
        for key, kind in kinds.items():
            check_value(key, values[key], kind)
        return build(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def from_json(cls, doc, where: str):
    """The config dataclass ``cls`` from the JSON of its ``asdict``."""
    return read_json(doc, {f.name: f.type for f in fields(cls)}, where, cls)
