"""Per-field rules for the frozen dataclasses that are read from JSON.

A field declares its range once, in ``field(metadata=...)``: ``at_least(b)``
(inclusive lower bound), ``above(b)`` (exclusive) or ``SPAN`` (seconds that
must round to at least 1 microsecond, the run's timebase).  Its type comes
from its annotation.  ``check_fields`` enforces keys, types and rules for
every class; only rules that relate two fields stay in the classes.
``read_json`` reads such a file, or any other input file of the CLI.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import fields

from .engine import seconds_to_us

SPAN = {"span": True}


def at_least(bound) -> dict:
    return {"min": bound}


def above(bound) -> dict:
    return {"min": bound, "open": True}


#: field annotation -> accepted value type; bool is no number here
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "dict": dict}


def rules_of(cls) -> dict:
    """Field name -> (annotation, declared rule) of a dataclass."""
    return {f.name: (f.type, f.metadata) for f in fields(cls)}


def is_a(value, want) -> bool:
    """Whether ``value`` is of the annotation ``want``, or for ``[want]`` a list of them."""
    if isinstance(want, list):
        return isinstance(value, list) and all(is_a(v, want[0]) for v in value)
    return not isinstance(value, bool) and isinstance(value, _TYPES[want])


def read_json(path, error, keys=None):
    """The JSON value in the file at ``path``.  A file that is missing,
    unreadable or not JSON raises ``error``, as does, given ``keys`` (key ->
    annotation or ``[annotation]``), one that is not a dict holding every
    key at a value of its type; NaN passes, as reports export it."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        raise error(f"cannot read {path}: {e}") from e
    if keys is not None and not isinstance(data, dict):
        raise error(f"{path} must hold a dict, got {reprlib.repr(data)}")
    for key, want in (keys or {}).items():
        if key not in data:
            raise error(f"{path} has no {key!r} key")
        if not is_a(data[key], want):
            shown = f"list[{want[0]}]" if isinstance(want, list) else want
            raise error(f"{path}: {key} must be {shown}, got {reprlib.repr(data[key])}")
    return data


def check_fields(rules, values, error, prefix: str = "") -> None:
    """Raise ``error`` on the first key of the dict ``values`` that ``rules``
    (a dataclass or a ``rules_of`` dict) lacks, whose value has the wrong
    type or breaks its rule.  NaN and the infinities, which ``json`` reads
    from ``NaN`` and ``Infinity``, are no numbers.  Messages name a key as
    ``prefix + key``, and ``values`` itself as ``prefix`` without its dot.
    """
    if not isinstance(values, dict):
        raise error(f"{prefix.rstrip('.') or 'config'} must be a dict, got {values!r}")
    if not isinstance(rules, dict):
        rules = rules_of(rules)
    for key, value in values.items():
        name = f"{prefix}{key}"
        if key not in rules:
            raise error(f"unknown key {name}")
        annotation, rule = rules[key]
        if annotation not in _TYPES:
            continue
        if not is_a(value, annotation) or (isinstance(value, float) and not math.isfinite(value)):
            raise error(f"{name} must be {annotation}, got {value!r}")
        if "span" in rule and seconds_to_us(value) < 1:
            raise error(f"{name} must round to at least 1 microsecond, got {value!r}")
        low, strict = rule.get("min"), "open" in rule
        if low is not None and (value <= low if strict else value < low):
            raise error(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")
