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


def _nonblank(path: str | Path) -> Iterator[tuple[int, str, int, int]]:
    """Yield (line number, stripped text, byte offset, byte length) for each non-blank line.

    Lines end at LF, CR or CRLF, as in text mode; a line's bytes include
    its ending. Each line is decoded on its own, so invalid UTF-8 is
    reported at its line; text mode decodes in blocks and could not say
    which.
    """
    lineno = offset = 0
    with open(path, "rb") as fh:
        for block in fh:
            for raw in block.splitlines(True) if b"\r" in block else (block,):
                lineno += 1
                offset += len(raw)
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    raise ValueError(f"{path}:{lineno}: invalid UTF-8") from None
                if line:
                    yield lineno, line, offset - len(raw), len(raw)


# the C scanner under json.loads, called directly: a stripped line is one
# JSON value when the scan ends at its end
_scan_once = json.JSONDecoder().scan_once


def _decode(path: str | Path, lineno: int, line: str) -> dict:
    """The object a stripped line holds.

    A line the scanner refuses, or does not end, is decoded again with
    `json.loads`, which raises the error it names.
    """
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
    return obj


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one decoded object per non-blank line."""
    for lineno, line, _, _ in _nonblank(path):
        yield _decode(path, lineno, line)


def record_line(path: str | Path, index: int) -> int:
    """The line number of the `index`-th record of `path`, counting from 0.

    `read_jsonl` yields bare objects, so a record's line is found by
    reading the file again, which only an error pays for.
    """
    lineno, *_ = next(islice(_nonblank(path), index, None))
    return lineno


# records decoded, or made, ahead of their consumer: a stage that decodes,
# works on and encodes one short record after another spends more CPU than
# one that does each step for a few records in a row, which keeps that
# step's code and data in the CPU caches
_AHEAD = 16


def _ahead(items: Iterable[T]) -> Iterator[T]:
    """`items`, each `_AHEAD` taken before the first of them is passed on."""
    items = iter(items)
    while batch := list(islice(items, _AHEAD)):
        yield from batch


def iter_records(path: str | Path, decode: Callable[[dict], T],
                 key: str | None = None) -> Iterator[T]:
    """Decode the objects of a JSONL file a few at a time; an error names its `path:line`.

    `decode` raises ValueError for an ill-typed field and KeyError for a
    missing one. `key`, when given, is the field that identifies a
    record and the decoded record's attribute of that name: a record
    whose key an earlier one holds is refused, naming both lines. Only
    the keys are held, so the earlier line is found by decoding the file
    again, which only that error pays for.
    """
    return _ahead(_decoded(path, decode, key))


def _decoded(path: str | Path, decode: Callable[[dict], T], key: str | None) -> Iterator[T]:
    seen: set = set()
    for index, obj in enumerate(read_jsonl(path)):
        try:
            record = decode(obj)
            if key is not None:
                value = getattr(record, key)
                if value in seen:
                    first = next(i for i, o in enumerate(read_jsonl(path))
                                 if getattr(decode(o), key) == value)
                    raise ValueError(f"field {key!r} repeats {reprlib.repr(obj[key])} "
                                     f"of line {record_line(path, first)}")
                seen.add(value)
        except (KeyError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}:{record_line(path, index)}: {detail}") from None
        yield record


def read_records(path: str | Path, decode: Callable[[dict], T],
                 key: str | None = None) -> list[T]:
    """Every record of `iter_records`, as a list."""
    return list(iter_records(path, decode, key))


def _decode_record(path: str | Path, lineno: int, line: str, decode: Callable[[dict], T]) -> T:
    """`decode` of the object a stripped line holds; an error names its `path:line`."""
    obj = _decode(path, lineno, line)
    try:
        return decode(obj)
    except (KeyError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}:{lineno}: {detail}") from None


def iter_records_by_key(path: str | Path, decode: Callable[[dict], T], key: str,
                        decode_key: Callable[[Any], Any]) -> Iterator[T]:
    """The records of a JSONL file in order of their `key`, decoded a few at a time.

    A first pass notes each record's key and where its line lies; then
    the records are decoded in key order, each from its own line, so
    only the keys are held, whatever order the file is in. A line that
    begins with its key, as `write_jsonl` writes a record whose key
    sorts first, has just that value scanned and read by `decode_key`;
    any other line is decoded in full. A repeated key is refused, naming
    both lines; an error names its `path:line`.
    """
    prefix = f'{{"{key}":'
    index = []  # (key, line number, byte offset, byte length) of each record
    for lineno, line, offset, size in _nonblank(path):
        try:
            value = decode_key(_scan_once(line, len(prefix))[0]) if line.startswith(prefix) else None
        except (StopIteration, ValueError):
            value = None
        if value is None:  # decoded in full, which names what is wrong with it
            value = getattr(_decode_record(path, lineno, line, decode), key)
        index.append((value, lineno, offset, size))
    index.sort()
    repeats = [(later, first) for (a, first, *_), (b, later, *_) in zip(index, index[1:])
               if a == b]
    if repeats:
        later, first = min(repeats)
        obj = next(_decode(path, n, line) for n, line, *_ in _nonblank(path) if n == later)
        raise ValueError(f"{path}:{later}: field {key!r} repeats {reprlib.repr(obj[key])} "
                         f"of line {first}")
    return _ahead(_decoded_in_order(path, decode, key, index))


def _decoded_in_order(path: str | Path, decode: Callable[[dict], T], key: str,
                      index: list[tuple[Any, int, int, int]]) -> Iterator[T]:
    with open(path, "rb") as fh:
        for value, lineno, offset, size in index:
            fh.seek(offset)
            record = _decode_record(path, lineno, fh.read(size).decode("utf-8").strip(), decode)
            if getattr(record, key) != value:  # JSON keeps the last of two keys of one name
                raise ValueError(f"{path}:{lineno}: field {key!r} is given twice")
            yield record


# one encoder for every line: json.dumps builds a new one per call when given options
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), sort_keys=True).encode


def dump_line(record: Mapping[str, Any]) -> str:
    return _encode(record)


@contextlib.contextmanager
def _replacing(path: str | Path, mode: str):
    """Yield a sibling tmp file open in `mode`; a clean exit renames it over `path`.

    An exception deletes the tmp file and leaves `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write utf-8 text or raw bytes to `path` through a tmp file and a rename."""
    with _replacing(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def write_jsonl(path: str | Path, records: Iterable[T],
                as_json: Callable[[T], Mapping[str, Any]]) -> int:
    """Write each record as the object `as_json` makes of it, atomically (tmp file + rename).

    Records are taken `_AHEAD` at a time before any is written, so a
    stage that makes them as they are written runs in stretches. Each
    object is made as its line is written, so those held are records,
    not their larger JSON objects. Returns the record count.
    """
    count = 0
    with _replacing(path, "w") as fh:
        for record in _ahead(records):
            fh.write(dump_line(as_json(record)))
            fh.write("\n")
            count += 1
    return count


def append_jsonl(path: str | Path, record: Mapping[str, Any]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(dump_line(record))
        fh.write("\n")
