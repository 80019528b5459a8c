"""Streaming line-oriented JSON, the interchange format between pipeline stages."""

from __future__ import annotations

import contextlib
import json
import os
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T")


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


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one decoded object per non-blank line."""
    for lineno, line in _nonblank(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSON record: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object")
        yield obj


def read_records(path: str | Path, decode: Callable[[dict], T]) -> list[T]:
    """Decode every object of a JSONL file; a decoding error names its `path:line`.

    `decode` raises ValueError for an ill-typed field and KeyError for a
    missing one. `read_jsonl` yields bare objects, so the failing
    record's line is found by reading the file again, which only an
    error pays for.
    """
    records: list[T] = []
    for obj in read_jsonl(path):
        try:
            records.append(decode(obj))
        except (KeyError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            lineno, _ = next(islice(_nonblank(path), len(records), None))
            raise ValueError(f"{path}:{lineno}: {detail}") from None
    return records


def dump_line(record: Mapping[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"), sort_keys=True)


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
