"""Input kinds and the one checker of the input tables.

Each input type (ObjectShape, ControllerConfig, NoiseModel, Scenario) has
one table, its KEYS, keyed by file key. `check` applies it in __post_init__
to a value built in Python, and `read` to a table read from a file (a
scenario file's section or a records.json `meta` table), each row by the
same `_value`. A kind takes (value, name), returns the value normalised and
raises a ScenarioError whose message starts with the name.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; the message names the field."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, ctx: str) -> float:
    """A finite number, as a float. Strings, booleans, NaN and infinities are
    rejected with the field named."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{ctx}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{ctx} has a non-finite value")
    return value


def _numbers(value, n: int, ctx: str) -> list:
    if not isinstance(value, (list, tuple)):
        if not isinstance(value, np.ndarray):
            raise ScenarioError(f"{ctx}: expected a list of {n} numbers")
        value = value.tolist()
    if len(value) != n:
        raise ScenarioError(f"{ctx}: expected {n} values, got {len(value)}")
    return [_number(v, ctx) for v in value]


def _vector(n: int):
    """Kind of n numbers: a tuple of n floats."""
    return lambda value, ctx: tuple(_numbers(value, n, ctx))


def _polygon(value, ctx: str) -> tuple:
    """Kind of an outline: at least 3 [y, z] vertices, as float pairs."""
    if not isinstance(value, (list, tuple)):
        if not isinstance(value, np.ndarray):
            raise ScenarioError(f"{ctx}: expected a list of [y, z] vertices")
        value = value.tolist()
    if len(value) < 3:
        raise ScenarioError(f"{ctx}: expected at least 3 [y, z] vertices, got {len(value)}")
    return tuple(tuple(_numbers(v, 2, ctx)) for v in value)


def _string(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{ctx}: expected a string, got {value!r}")
    return value


def _flag(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{ctx}: expected true or false")
    return value


def _count(value, ctx: str) -> int:
    if not _is_int(value) or value < 0:
        raise ScenarioError(f"{ctx}: expected a count, got {value!r}")
    return value


def _seed(value, ctx: str) -> int:
    """The one seed rule: an integer in [0, 2**64), so that no two seeds alias."""
    if not _is_int(value) or not 0 <= value < 1 << 64:
        raise ScenarioError(f"{ctx}: expected an integer in [0, 2**64), got {value!r}")
    return value


class Row(NamedTuple):
    """One field of a table: the dataclass field; its kind, a reader or a
    type the value is an instance of; its range, comparisons that all hold
    ("> 0", or "> 0, < key" where a key names an earlier row's value); and
    whether None stands for an absent value in Python."""

    field: str
    kind: object
    range: str = ""
    optional: bool = False


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


@lru_cache(maxsize=None)
def _bounds(text: str) -> tuple:
    """The (comparison, limit) pairs of a range."""
    return tuple(clause.split() for clause in text.split(", "))


def _value(table: dict, row: Row, value, name: str, fields: dict):
    """`value` read by its row and checked against its range, given the
    `fields` of the rows before; a bad one raises a ScenarioError named
    `name`."""
    if isinstance(row.kind, type):
        if not isinstance(value, row.kind):
            raise ScenarioError(f"{name}: expected a {row.kind.__name__}, got {value!r}")
    else:
        value = row.kind(value, name)
    for op, limit in _bounds(row.range) if row.range else ():
        if not _COMPARE[op](value, fields[table[limit].field] if limit in table else float(limit)):
            raise ScenarioError(f"{name}: must be {op} {limit}, got {value!r}")
    return value


def check(obj) -> None:
    """Check the fields of the dataclass `obj` by its KEYS and set each to
    its normalised value; a bad one is named `Type.field`."""
    table, fields = obj.KEYS, {}
    for row in table.values():
        value = getattr(obj, row.field)
        if value is None and row.optional:
            continue
        try:
            fields[row.field] = out = _value(table, row, value, "", fields)
        except ScenarioError as exc:  # the name is only formed for a bad value
            raise ScenarioError(f"{type(obj).__name__}.{row.field}{exc}") from None
        if out is not value:
            object.__setattr__(obj, row.field, out)


def read(values, table: dict, where: str, convert: dict, defaults=None) -> dict:
    """The checked fields of `values`, a file table of keys of `table` named
    `where`, in table order. A non-table, an unknown key and a null are
    rejected, and a key of `convert` is read from its file format by
    `convert[key](value, name)`. With `defaults`, an instance of the type,
    a row the table does not give is checked at its default, so that every
    range limit is known. A bad value is named by its key path, a pose key
    without its `_mm_deg` suffix."""
    if not isinstance(values, dict):
        raise ScenarioError(f"{where}: expected an object table")
    for key in values:
        if key not in table:
            raise ScenarioError(f"{where}: unknown field {key!r}")
    fields = {}
    for key, row in table.items():
        name = f"{where}.{key.removesuffix('_mm_deg')}"
        if key in values:
            value = values[key]
            if value is None:
                raise ScenarioError(f"{name}: expected a value, got null")
            if key in convert:
                value = convert[key](value, name)
        elif defaults is not None:
            value = getattr(defaults, row.field)
        else:
            continue
        fields[row.field] = _value(table, row, value, name, fields)
    return fields
