"""Streaming line-oriented JSON, the interchange format between pipeline stages.

A JSON value read from outside the program is checked against a `Kind`
through `check` or `field`; a decoder refuses a value of the wrong kind
and never coerces it.
"""

from __future__ import annotations

import contextlib
import json
import os
import reprlib
import sys
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

T = TypeVar("T")


class Kind(NamedTuple):
    """What a JSON value must be: a test, and the phrase an error names it by."""

    test: Callable[[Any], bool]
    phrase: str


# bool is an int subclass, so kinds match by type: 1.9, "1" and true are not integers
STRING = Kind(lambda v: type(v) is str, "a string")
INTEGER = Kind(lambda v: type(v) is int, "an integer")
COUNT = Kind(lambda v: type(v) is int and v >= 0, "a non-negative integer")
# NaN, the infinities and an int that float() cannot take are all refused
NUMBER = Kind(lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number")
BOOL = Kind(lambda v: type(v) is bool, "true or false")
LIST = Kind(lambda v: type(v) is list, "a list")
STRINGS = Kind(lambda v: type(v) is list and all(type(s) is str for s in v), "a list of strings")


def check(name: str, value: T, kind: Kind) -> T:
    """`value` if it is of `kind`; otherwise a ValueError naming field `name`."""
    if not kind.test(value):
        raise ValueError(f"field {name!r} must be {kind.phrase}, not {reprlib.repr(value)}")
    return value


def field(obj: Mapping[str, Any], key: str, kind: Kind) -> Any:
    """`obj[key]`, checked by `check`; a missing key raises KeyError."""
    return check(key, obj[key], kind)


def _nonblank(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped text) for each non-blank line of `path`.

    Lines end at LF, CR or CRLF, as in text mode. Each line is decoded
    on its own, so invalid UTF-8 is reported at its line; text mode
    decodes in blocks and could not say which.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for block in fh:
            for raw in block.splitlines() if b"\r" in block else (block,):
                lineno += 1
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    raise ValueError(f"{path}:{lineno}: invalid UTF-8") from None
                if line:
                    yield lineno, line


# the C scanner under json.loads, called directly: a stripped line is one
# JSON value when the scan ends at its end
_scan_once = json.JSONDecoder().scan_once


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one decoded object per non-blank line.

    A line the scanner refuses, or does not end, is decoded again with
    `json.loads`, which raises the error it names.
    """
    for lineno, line in _nonblank(path):
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        try:
            if end != len(line):
                obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSON record: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object")
        yield obj


def record_line(path: str | Path, index: int) -> int:
    """The line number of the `index`-th record of `path`, counting from 0.

    `read_jsonl` yields bare objects, so a record's line is found by
    reading the file again, which only an error pays for.
    """
    lineno, _ = next(islice(_nonblank(path), index, None))
    return lineno


def read_records(path: str | Path, decode: Callable[[dict], T],
                 key: str | None = None) -> list[T]:
    """Decode every object of a JSONL file; a decoding error names its `path:line`.

    `decode` raises ValueError for an ill-typed field and KeyError for a
    missing one. `key`, when given, is the field that identifies a
    record and the decoded record's attribute of that name: a record
    whose key an earlier one holds is refused, naming both lines.
    """
    records: list[T] = []
    seen: set = set()
    for obj in read_jsonl(path):
        try:
            record = decode(obj)
            if key is not None:
                value = getattr(record, key)
                if value in seen:
                    first = next(i for i, r in enumerate(records) if getattr(r, key) == value)
                    raise ValueError(f"field {key!r} repeats {reprlib.repr(obj[key])} "
                                     f"of line {record_line(path, first)}")
                seen.add(value)
            records.append(record)
        except (KeyError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}:{record_line(path, len(records))}: {detail}") from None
    return records


# one encoder for every line: json.dumps builds a new one per call when given options
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), sort_keys=True).encode


def dump_line(record: Mapping[str, Any]) -> str:
    return _encode(record)


@contextlib.contextmanager
def _replacing(path: str | Path, mode: str):
    """Yield a sibling tmp file open in `mode`; a clean exit renames it over `path`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write utf-8 text or raw bytes to `path` through a tmp file and a rename."""
    with _replacing(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> int:
    """Write records atomically (tmp file + rename). Returns the record count."""
    count = 0
    with _replacing(path, "w") as fh:
        for record in records:
            fh.write(dump_line(record))
            fh.write("\n")
            count += 1
    return count


def append_jsonl(path: str | Path, record: Mapping[str, Any]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(dump_line(record))
        fh.write("\n")
