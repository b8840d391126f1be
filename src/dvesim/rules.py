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


def read_json(path, error):
    """The JSON value in the file at ``path``; a file that is missing,
    unreadable or not JSON raises ``error``."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise error(f"cannot read {path}: {e}") from e


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
        want = _TYPES.get(annotation)
        if want is None:
            continue
        if (isinstance(value, bool) or not isinstance(value, want)
                or (isinstance(value, float) and not math.isfinite(value))):
            raise error(f"{name} must be {annotation}, got {value!r}")
        if "span" in rule and seconds_to_us(value) < 1:
            raise error(f"{name} must round to at least 1 microsecond, got {value!r}")
        low, strict = rule.get("min"), "open" in rule
        if low is not None and (value <= low if strict else value < low):
            raise error(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")
