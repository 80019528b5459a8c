"""Streaming line-oriented JSON, the interchange format between pipeline stages.

A JSON value read from outside the program is checked against a `Kind`
through `check` or `field`; a decoder refuses a value of the wrong kind
and never coerces it.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import reprlib
import sys
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

T = TypeVar("T")
I = TypeVar("I", bound=Iterable[str])


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


# surrogateescape decodes byte XX of 0x80-0xff, which is no UTF-8 on its own, as
# U+DCXX; UTF-8 cannot hold a surrogate, so `dump_line` writes it as a \u escape
_BYTE = re.compile("[\udc80-\udcff]")
# a surrogate that stands for no byte, which a \u escape in a line can give
_NO_BYTE = re.compile("[\ud800-\udc7f\udd00-\udfff]")


def check_text(name: str, text: str) -> str:
    """`text` if each surrogate in it stands for a byte; otherwise a ValueError naming field `name`.

    Text that is all ASCII, as most is, costs one `str.isascii`; a search
    of every line for a `\\u` escape would cost a quarter of its decoding.
    """
    if not text.isascii() and (bad := _NO_BYTE.search(text)):
        raise ValueError(f"field {name!r} holds \\u{ord(bad.group()):04x}, "
                         "a surrogate that stands for no byte")
    return text


def check_texts(name: str, texts: I) -> I:
    """`texts`, strings or a mapping keyed by them, if `check_text` passes each string.

    They are checked as one joined text: a surrogate stays one code point
    beside any other, so the join holds those of each string and no more.
    """
    if not (joined := "".join(texts)).isascii():
        check_text(name, joined)
    return texts


def check(name: str, value: T, kind: Kind) -> T:
    """`value` if it is of `kind`; otherwise a ValueError naming field `name`."""
    if not kind.test(value):
        raise ValueError(f"field {name!r} must be {kind.phrase}, not {reprlib.repr(value)}")
    return value


def field(obj: Mapping[str, Any], key: str, kind: Kind) -> Any:
    """`obj[key]`, checked by `check`; a missing key raises KeyError."""
    return check(key, obj[key], kind)


def _nonblank(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped text) for each non-blank line.

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
    for lineno, line in _nonblank(path):
        yield _decode(path, lineno, line)


def record_line(path: str | Path, index: int) -> int:
    """The line number of the `index`-th record of `path`, counting from 0.

    `read_jsonl` yields bare objects, so a record's line is found by
    reading the file again, which only an error pays for.
    """
    lineno, _ = next(islice(_nonblank(path), index, None))
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
                 key: str | tuple[str, ...] | None = None) -> Iterator[T]:
    """Decode the objects of a JSONL file a few at a time; an error names its `path:line`.

    `decode` raises ValueError for an ill-typed field and KeyError for a
    missing one. `key`, when given, names the fields that order the
    records, each both a field of the object and an attribute of the
    decoded record: a record whose key does not sort past the one
    before it is refused, naming the first field in which it differs
    from that record and, for a repeated key, the line that held it
    first. Only the last key is held; the earlier lines are found by
    decoding the file again, which only an error pays for.
    """
    return _ahead(_decoded(path, decode, key))


def _decoded(path: str | Path, decode: Callable[[dict], T],
             key: str | tuple[str, ...] | None) -> Iterator[T]:
    names = (key,) if isinstance(key, str) else key
    get = attrgetter(*names) if names else None
    last = None
    for index, obj in enumerate(read_jsonl(path)):
        try:
            record = decode(obj)
            if get is not None:
                value = get(record)
                if index and not last < value:
                    raise ValueError(_misplaced(path, decode, names, index, value))
                last = value
        except (KeyError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}:{record_line(path, index)}: {detail}") from None
        yield record


def _misplaced(path: str | Path, decode: Callable[[dict], T], names: tuple[str, ...],
               index: int, value: Any) -> str:
    """Why the `index`-th record, whose key is `value`, does not sort past the one before it."""
    before, obj = islice(read_jsonl(path), index - 1, index + 1)
    name = next((n for n in names if obj[n] != before[n]), names[-1])
    get = attrgetter(*names)
    first = next(i for i, o in enumerate(read_jsonl(path)) if get(decode(o)) == value)
    if first < index:
        return (f"field {name!r} repeats {reprlib.repr(obj[name])} "
                f"of line {record_line(path, first)}")
    return (f"field {name!r} is {reprlib.repr(obj[name])}, not past the "
            f"{reprlib.repr(before[name])} of line {record_line(path, index - 1)}")


def read_records(path: str | Path, decode: Callable[[dict], T],
                 key: str | tuple[str, ...] | None = None) -> list[T]:
    """Every record of `iter_records`, as a list."""
    return list(iter_records(path, decode, key))


# one encoder for every line: json.dumps builds a new one per call when given options
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), sort_keys=True).encode


def dump_line(record: Mapping[str, Any]) -> str:
    """`record` as one line of JSON, each surrogate that stands for a byte escaped."""
    line = _encode(record)
    return line if line.isascii() else _BYTE.sub(_escape, line)


def _escape(match: re.Match) -> str:
    return f"\\u{ord(match.group()):04x}"


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


def distinct_outputs(outputs: Iterable[tuple[str, str | Path | None]]) -> None:
    """Refuse, before a stage writes, two outputs that resolve to one real path.

    Each output comes with what named it; an output not asked for is None.
    """
    named: dict[str, str] = {}  # real path -> what named it first
    for name, path in outputs:
        if path is not None:
            real = os.path.realpath(path)
            if real in named:
                raise ValueError(f"{named[real]} and {name} would both write {path}")
            named[real] = name


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
