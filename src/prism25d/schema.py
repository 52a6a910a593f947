"""Field specs for the JSON inputs, and the one check every input boundary runs.

Each boundary declares its fields once: as a dict of field name -> `Spec`
passed to `check` (one record) or `check_rows` (a list of records), or as a
dataclass whose annotations `read` turns into specs. Every failure is a
`ParseError` naming the field. JSONL files are read a block of lines at a
time (`jsonl_blocks`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from collections.abc import Iterator
from itertools import chain
from pathlib import Path

from .errors import ParseError


class Spec:
    """What a JSON value must be: `want` words it for errors, and `each(values)` is true
    when every value of a sequence is one, so that one field of many records is
    tested in one pass."""

    def __init__(self, want: str, each):
        self.want = want
        self.each = each

    def test(self, value) -> bool:
        return self.each((value,))


def _typed(want: str, kind: type) -> Spec:
    kinds = {kind}  # by type(), not isinstance: a JSON true is a bool, never an int
    return Spec(want, lambda values: kinds.issuperset(map(type, values)))


_NUMBER_TYPES = {int, float}
_LIST = {list}


def _finite(values) -> bool:
    """Every value a JSON number and finite. A float sum is non-finite when a value is
    (and raises on an integer beyond the float range), so one sum settles most lists;
    it can also overflow on finite values, which the per-value test then accepts."""
    try:
        return _NUMBER_TYPES.issuperset(map(type, values)) and (
            math.isfinite(sum(values, 0.0)) or all(map(math.isfinite, values))
        )
    except OverflowError:
        return False


INT = _typed("an integer", int)
BOOL = _typed("true or false", bool)
STR = _typed("a string", str)
OBJECT = _typed("a JSON object", dict)
NUMBER = Spec("a finite number", _finite)
COUNT = Spec("a non-negative integer", lambda values: INT.each(values) and min(values, default=0) >= 0)


def list_of(spec: Spec, length: int | None = None) -> Spec:
    """A JSON list of `spec` values, of exactly `length` items when given."""
    lengths = None if length is None else {length}

    def each(lists) -> bool:
        return (
            _LIST.issuperset(map(type, lists))
            and (lengths is None or lengths.issuperset(map(len, lists)))
            and spec.each(list(chain.from_iterable(lists)))
        )

    size = "" if length is None else f" of {length} items"
    return Spec(f"a list{size}, each {spec.want}", each)


def optional(spec: Spec) -> Spec:
    """A `spec` value or null; `check` counts an absent field as null."""
    return Spec(f"{spec.want} or null", lambda values: spec.each([v for v in values if v is not None]))


def check(record, fields: dict[str, Spec], line: int | None = None) -> None:
    """Raise a ParseError naming the first of `fields` that `record` lacks or breaks."""
    check_rows([record], fields, None if line is None else [line])


def check_rows(records: list, fields: dict[str, Spec], lines: list[int] | None = None) -> dict[str, list]:
    """`check` every record of a list, one field of all records at a time, and return each
    field's column: its values in record order, None where absent. The error names the
    first bad record, by its line in `lines` when given."""
    columns, fault = typed_prefix(records, fields, lines)
    if fault is not None:
        raise fault
    return columns


def typed_prefix(
    records: list, fields: dict[str, Spec], lines: list[int] | None = None
) -> tuple[dict[str, list], ParseError | None]:
    """The `check_rows` columns of the records before the first one that lacks or breaks one
    of `fields`, and that record's ParseError (None when every record passes). A caller with
    rules of its own runs them on the prefix before it raises the fault, so that the first
    bad record is reported whatever its fault."""
    columns = {key: [r.get(key) for r in records] for key in fields} if OBJECT.each(records) else None
    if columns is not None and all(spec.each(columns[key]) for key, spec in fields.items()):
        return columns, None
    for i, record in enumerate(records):
        fault = _fault(record, fields)
        if fault is not None:
            prefix = {key: [r.get(key) for r in records[:i]] for key in fields}
            return prefix, ParseError(fault, line=None if lines is None else lines[i])
    return columns, None


def _fault(record, fields: dict[str, Spec]) -> str | None:
    """Why `record` is not a JSON object with `fields`: its first missing or mistyped field."""
    if type(record) is not dict:
        return "expected a JSON object"
    for key, spec in fields.items():
        value = record.get(key)
        if not spec.test(value):
            if key not in record:
                return f"missing field {key!r}"
            return f"{key} must be {spec.want}, got {value!r}"
    return None


_BLOCK_LINES = 1000  # values of a JSONL file that `jsonl_blocks` holds at once


def jsonl_blocks(path: str | Path) -> Iterator[tuple[list[int], list]]:
    """The line numbers and the values of a JSONL file's non-blank lines, `_BLOCK_LINES`
    lines at a time. A line that is not JSON ends its block early and is raised when the
    next block is asked for, so a caller that checks each block before the next reports
    an earlier line's fault first."""
    lines, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if values:
                    yield lines, values
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            lines.append(lineno)
            if len(values) == _BLOCK_LINES:
                yield lines, values
                lines, values = [], []
    if values:
        yield lines, values


def _field(hint, partial: bool):
    """(spec, converter) for one dataclass annotation."""
    if dataclasses.is_dataclass(hint):
        return OBJECT, lambda v: read(hint, v, partial)
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (types.UnionType, typing.Union):  # X | None
        spec, convert = _field(next(a for a in args if a is not type(None)), partial)
        return optional(spec), lambda v: None if v is None else convert(v)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...] or a fixed tuple[X, X]
        spec, convert = _field(args[0], partial)
        length = None if args[-1] is Ellipsis else len(args)
        return list_of(spec, length), lambda v: tuple(map(convert, v))
    return {int: (INT, int), float: (NUMBER, float), bool: (BOOL, bool), str: (STR, str)}[hint]


def read(cls, obj, partial: bool = False):
    """An instance of dataclass `cls` from a JSON object, its field specs taken from the
    annotations (a float field takes any finite number; a tuple field takes a list).

    Nested dataclasses are read in turn and unknown keys are rejected. Every
    field must be present, except that with `partial` fields with defaults
    may be left out.
    """
    if type(obj) is not dict:
        raise ParseError(f"{cls.__name__} must be a JSON object, got {obj!r}")
    known = {f.name: f for f in dataclasses.fields(cls)}
    for key in obj:
        if key not in known:
            raise ParseError(f"unknown {cls.__name__} field {key!r}")
    for name, f in known.items():
        required = not partial or (f.default is dataclasses.MISSING
                                   and f.default_factory is dataclasses.MISSING)
        if required and name not in obj:
            raise ParseError(f"missing {cls.__name__} field {name!r}")
    hints = typing.get_type_hints(cls)
    specs = {name: _field(hints[name], partial) for name in obj}
    check(obj, {name: spec for name, (spec, _) in specs.items()})
    return cls(**{name: convert(obj[name]) for name, (_, convert) in specs.items()})
