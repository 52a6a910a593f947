"""Field specs for the JSON inputs, the one check every input boundary runs, and the header check.

Each boundary declares its fields once: as a dict of field name -> `Spec`
passed to `check` (one record) or `check_rows` (a list of records), or as a
dataclass whose annotations `read` turns into specs. Every failure is a
`ParseError` naming the field. Every JSON input is read by one rule
(`parse_json`), and JSONL files a block of lines at a time (`jsonl_blocks`).
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

from .errors import ParseError, ValidationError


class Spec:
    """What a JSON value must be: `want` words it for errors, and `each(values)` is true
    when every value of a sequence is one, so that one field of many records is
    tested in one pass."""

    def __init__(self, want: str, each):
        self.want = want
        self.each = each


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


def check(record, fields: dict[str, Spec]) -> None:
    """Raise a ParseError naming the first of `fields` that `record` lacks or breaks."""
    check_rows([record], fields)


def check_rows(records: list, fields: dict[str, Spec]) -> dict[str, list]:
    """`check` every record of a list, one field of all records at a time, and return each field's
    column: its values in record order, None where absent. The error names the first bad record."""
    columns, fault = typed_prefix(records, fields)
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
        if not spec.each((value,)):
            if key not in record:
                return f"missing field {key!r}"
            return f"{key} must be {spec.want}, got {value!r}"
    return None


def check_header(obj, path: str | Path, fmt: str, version: int) -> None:
    """Raise a ValidationError unless file header `obj` is a JSON object of `fmt` and `version`."""
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise ValidationError(f"{path}: not a {fmt} file")
    if obj.get("version") != version:
        raise ValidationError(f"{path}: unsupported version {obj.get('version')!r}")


def parse_json(data: bytes, line: int | None = None):
    """The JSON value of `data`: strict UTF-8, then `json.loads`. Bytes that are not UTF-8,
    and text that is not JSON, nests too deeply or holds too long an integer, are each a
    ParseError naming `line`, a JSONL line's number, when given, else the fault's line
    where it is known."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", line=line or data.count(b"\n", 0, exc.start) + 1) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=line or exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply", line=line) from exc
    except ValueError as exc:  # an integer of more digits than Python converts
        raise ParseError("invalid JSON: an integer too long to read", line=line) from exc


def read_json(path: str | Path):
    """The JSON value of a whole file, by `parse_json`."""
    return parse_json(Path(path).read_bytes())


_BLOCK_LINES = 250  # values of a JSONL file that `jsonl_blocks` holds at once
_JSON_SPACE = " \t\n\r"  # what json.loads skips around a value
_scan = json.JSONDecoder().raw_decode  # json.loads's decoder, called without its wrapping


def _line_value(data: bytes, lineno: int):
    """`parse_json(data, lineno)`, by the C scanner alone when the line is one JSON value
    between JSON whitespace; any other line goes to `parse_json` for its value or error."""
    try:
        text = data.decode("utf-8").strip(_JSON_SPACE)
        value, end = _scan(text)
        if end == len(text):
            return value
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError among them
        pass
    return parse_json(data, lineno)


def jsonl_blocks(path: str | Path) -> Iterator[tuple[list[int], list]]:
    """The line numbers and the values of a JSONL file's non-blank lines, `_BLOCK_LINES`
    lines at a time, each line read by `parse_json`'s rule. Lines end at a line feed only.
    A line that is not JSON ends its block early and is raised when the next block is
    asked for, so a caller that checks each block before the next reports an earlier
    line's fault first."""
    lines, values = [], []
    with open(path, "rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            if not data.strip():  # ASCII whitespace only
                continue
            try:
                values.append(_line_value(data, lineno))
            except ParseError:
                if values:
                    yield lines, values
                raise
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
