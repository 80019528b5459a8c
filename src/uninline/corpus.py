"""Data model for original C sources and decompiled pseudo-C.

Decompiled files are carved into per-function records by brace matching
from a signature-shaped header line (`split_functions`, the `uninline
split` stage); decompiler output is syntactically regular enough that
this is reliable. The matching runs on `ctext` code views, and walks
only the parens and braces that regular expressions find. A body is
held as one string, its lines joined with newlines; a function record
stores its lines as a list, and `DecompiledFunction.from_json` and
`as_json` convert at that edge. All types here are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import logging
import re
import reprlib
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import ctext
from . import jsonl
from .jsonl import (BOOL, COUNT, INTEGER, LIST, STRING, STRINGS, Kind, check, check_text,
                    check_texts)

log = logging.getLogger(__name__)


class Language(enum.Enum):
    C = "C"
    PSEUDO_C = "PseudoC"


class OptLevel(enum.Enum):
    O0 = "O0"
    O1 = "O1"
    Os = "Os"
    O2 = "O2"
    O3 = "O3"
    Of = "Of"
    UNKNOWN = "Unknown"


def split_lines(content: bytes) -> list[str]:
    """Split raw bytes into lines; LF and CRLF both terminate a line.

    A trailing fragment with no terminator still counts as a line.
    Decoding uses surrogateescape so arbitrary bytes survive a
    decode/encode round trip.
    """
    text = content.decode("utf-8", "surrogateescape")
    parts = text.split("\n")
    if parts and parts[-1] == "":
        parts.pop()
    return [p[:-1] if p.endswith("\r") else p for p in parts]


@dataclass(frozen=True)
class SourceFile:
    path: str
    content: bytes
    language: Language
    optimization: OptLevel = OptLevel.UNKNOWN

    @property
    def lines(self) -> list[str]:
        return split_lines(self.content)


class FunctionId(NamedTuple):
    """Stable key for one decompiled function body."""

    path: str
    name: str
    ordinal: int

    def as_json(self) -> list:
        return [self.path, self.name, self.ordinal]

    @classmethod
    def from_json(cls, obj: Sequence) -> "FunctionId":
        if not isinstance(obj, (list, tuple)) or len(obj) != 3:
            raise ValueError(f"function id must be [path, name, ordinal], not {obj!r}")
        path, name, ordinal = obj
        # the checks run only to name what is wrong, so the common case costs three type
        # tests and two `isascii`
        if not (type(path) is str and type(name) is str and type(ordinal) is int
                and path.isascii() and name.isascii()):
            check("path", path, STRING), check("name", name, STRING)
            check("ordinal", ordinal, INTEGER)
            check_text("path", path), check_text("name", name)
        # interned: the ids of one file's bodies, held together, share one path string
        return cls(sys.intern(path), name, ordinal)


_LABEL_PAIRS = Kind(lambda v: LIST.test(v) and all(
    LIST.test(p) and len(p) == 2 and STRING.test(p[0]) and INTEGER.test(p[1]) for p in v),
    "a list of [name, line] pairs")


def _label_pairs(pairs: list) -> tuple[tuple[str, int], ...]:
    """`true_labels` as (name, anchor) tuples, each name checked by `jsonl.check_text`."""
    if pairs:
        check_texts("true_labels", [name for name, _ in pairs])
    return tuple(map(tuple, pairs))


def _join_lines(lines: Sequence[str]) -> str | None:
    """The lines of a body joined with newlines, or None for no lines.

    `lines` must be a list or tuple of strings none of which holds a
    newline, so that splitting the text gives them back, and each
    surrogate in them must stand for a byte (`jsonl.check_text`);
    otherwise a ValueError names field 'lines'. The join is the type
    check.
    """
    if type(lines) in (list, tuple):
        if not lines:
            return None
        try:
            text = "\n".join(lines)
        except TypeError:  # a line that is no string
            pass
        else:
            if text.count("\n") == len(lines) - 1:  # so no line held a newline
                return jsonl.check_text("lines", text)
    raise ValueError(f"field 'lines' must be a list of strings without line breaks, "
                     f"not {reprlib.repr(lines)}")


@dataclass(frozen=True, init=False)
class DecompiledFunction:
    """One decompiled function body: its text plus ground truth.

    The body is held as `text`, its lines joined with newlines, as a
    window holds its own; a body of no lines has text None, so `()` and
    `("",)` stay apart. `lines` splits it again, so a consumer splits a
    body once and keeps the tuple. The constructor takes the lines;
    `from_text` takes the text.

    `true_labels` holds residual markers as (function name, anchor line)
    pairs; `recovered` is the multiset of target-function calls the
    decompiler itself recovered, stored as a sorted name tuple.
    """

    id: FunctionId
    text: str | None
    true_labels: tuple[tuple[str, int], ...] = ()
    recovered: tuple[str, ...] = ()
    truncated: bool = False

    def __init__(self, id: FunctionId, lines: Sequence[str],
                 true_labels: tuple[tuple[str, int], ...] = (),
                 recovered: tuple[str, ...] = (), truncated: bool = False):
        self._fill(id, _join_lines(lines), true_labels, recovered, truncated)

    @classmethod
    def from_text(cls, id: FunctionId, text: str | None,
                  true_labels: tuple[tuple[str, int], ...] = (),
                  recovered: tuple[str, ...] = (), truncated: bool = False
                  ) -> "DecompiledFunction":
        """A body given as its text: its lines joined with newlines, or None for none."""
        body = cls.__new__(cls)
        body._fill(id, text, true_labels, recovered, truncated)
        return body

    def _fill(self, id, text, true_labels, recovered, truncated) -> None:
        # frozen: each field is set once, past the dataclass's __setattr__
        self.__dict__.update(id=id, text=text, true_labels=true_labels, recovered=recovered,
                             truncated=truncated)
        if true_labels:
            length = 0 if text is None else text.count("\n") + 1
            for name, anchor in true_labels:
                if not 0 <= anchor < length:
                    raise ValueError(
                        f"{id}: label anchor {anchor} outside body of {length} lines"
                    )
                if not name:
                    raise ValueError(f"{id}: empty label name")

    @property
    def lines(self) -> tuple[str, ...]:
        return () if self.text is None else tuple(self.text.split("\n"))

    @property
    def recovered_counts(self) -> Counter:
        return Counter(self.recovered)

    @property
    def true_counts(self) -> Counter:
        return Counter(name for name, _ in self.true_labels)

    def as_json(self) -> dict:
        obj = {
            "id": self.id.as_json(),
            "lines": [] if self.text is None else self.text.split("\n"),
            "true_labels": [[name, anchor] for name, anchor in self.true_labels],
            "recovered": list(self.recovered),
        }
        if self.truncated:
            obj["truncated"] = True
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DecompiledFunction":
        return cls(
            id=FunctionId.from_json(obj["id"]),
            lines=obj["lines"],
            true_labels=_label_pairs(jsonl.field(obj, "true_labels", _LABEL_PAIRS)),
            recovered=tuple(sorted(check_texts("recovered", jsonl.field(obj, "recovered",
                                                                        STRINGS)))),
            truncated=check("truncated", obj.get("truncated", False), BOOL),
        )


def iter_functions(path: str | Path) -> Iterator[DecompiledFunction]:
    """The function records of `path`, decoded a few at a time.

    Each record's id must sort past the one before it, as `split` writes
    them; a record out of place, or a repeated id, is refused at its line.
    """
    return jsonl.iter_records(path, DecompiledFunction.from_json, key="id", rising=True)


def read_functions(path: str | Path) -> list[DecompiledFunction]:
    return list(iter_functions(path))


def write_functions(path: str | Path, functions: Iterable[DecompiledFunction]) -> int:
    return jsonl.write_jsonl(path, functions, DecompiledFunction.as_json)


# correlate takes a frequency as a float, which holds every count up to 2**53 exactly
_MAX_FREQUENCY = 2 ** 53
_FREQUENCY = Kind(lambda v: COUNT.test(v) and v <= _MAX_FREQUENCY,
                  "a non-negative integer of at most 2**53")


def _normalize(name: str) -> str:
    return name.strip().lower()


@dataclass(frozen=True)
class TargetFunctionSet:
    """The library functions the pipeline tries to recover.

    Names are lowercased; matching throughout the toolkit is
    case-insensitive via this normalization. `from_names` strips and
    lowercases each name and each frequency's key alike, and membership
    is tested on `name_set`.
    """

    names: tuple[str, ...]
    frequencies: dict[str, int] = field(default_factory=dict)
    name_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for name in self.names:
            if not name:
                raise ValueError("empty target-function name")
            if name != name.lower():
                raise ValueError(f"target name not normalized: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate target name: {name!r}")
            seen.add(name)
        object.__setattr__(self, "name_set", frozenset(seen))

    @classmethod
    def from_names(
        cls, names: Iterable[str], frequencies: dict[str, int] | None = None
    ) -> "TargetFunctionSet":
        normalized = []
        seen = set()
        for name in names:
            low = _normalize(name)
            if low and low not in seen:
                normalized.append(low)
                seen.add(low)
        freqs = {_normalize(k): check("frequency", v, _FREQUENCY)
                 for k, v in (frequencies or {}).items()}
        return cls(tuple(normalized), freqs)


def load_targets(path: str | Path) -> TargetFunctionSet:
    """Read a target list: one ``name`` or ``name<TAB>frequency`` per line.

    Both fields are stripped of surrounding whitespace; a line with an
    empty field or more than two tab-separated fields is refused.
    """
    names = []
    freqs = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in raw.split("\t")]
        if len(parts) > 2:
            raise ValueError(f"{path}:{lineno}: expected name or name<TAB>frequency, "
                             f"not {len(parts)} tab-separated fields")
        if not parts[0]:
            raise ValueError(f"{path}:{lineno}: empty name before the frequency")
        names.append(parts[0])
        if len(parts) > 1:
            text = parts[1]
            # int() would also take "-5", "+5" and "1_000"
            if not (text.isascii() and text.isdigit()):
                raise ValueError(f"{path}:{lineno}: frequency must be a non-negative "
                                 f"integer, not {text!r}")
            # more digits than the bound has are refused before int() reads them
            if len(text.lstrip("0")) > len(str(_MAX_FREQUENCY)) or int(text) > _MAX_FREQUENCY:
                raise ValueError(f"{path}:{lineno}: frequency must be at most 2**53, "
                                 f"not {reprlib.repr(text)}")
            freqs[parts[0]] = int(text)
    return TargetFunctionSet.from_names(names, freqs)


# Words that can precede "(" at file scope without being a function name.
_NON_NAMES = frozenset(
    """if else while for do switch return goto sizeof case break continue
    typedef struct union enum int char void long short unsigned signed
    float double const static volatile register extern inline""".split()
)
_PREFIX_RE = re.compile(r"[A-Za-z0-9_\s\*]*")
_PAREN_RE = re.compile(r"[(){};]")
_BRACE_RE = re.compile(r"[{}]")


def _match_header(views: list[str], start: int) -> tuple[str, int, int] | None:
    """Try to read a function signature beginning at line `start`.

    Returns (function name, open-brace line, open-brace column) or None.
    The shape accepted: type tokens, an identifier, a balanced paren
    group (possibly spanning lines), then `{` either on the same line or
    on the next non-blank line.
    """
    view = views[start]
    paren = view.find("(")
    if paren < 0:
        return None
    prefix = view[:paren]
    if not _PREFIX_RE.fullmatch(prefix):
        return None
    idents = ctext.IDENT_RE.findall(prefix)
    if not idents or idents[-1] in _NON_NAMES:
        return None
    name = idents[-1]

    # Balance the parameter list, which may continue on following lines;
    # only parens, braces and semicolons can change the outcome.
    depth = 0
    col = paren
    for line_idx in range(start, len(views)):
        for match in _PAREN_RE.finditer(views[line_idx], col):
            ch = match.group()
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return _find_open_brace(views, name, line_idx, match.end())
            else:
                return None
        col = 0
    return None


def _find_open_brace(
    views: list[str], name: str, line_idx: int, col: int
) -> tuple[str, int, int] | None:
    rest = views[line_idx][col:]
    stripped = rest.lstrip()
    if stripped.startswith("{"):
        return name, line_idx, col + rest.index("{")
    if stripped:
        return None  # a declaration (`;`) or something else entirely
    for nxt in range(line_idx + 1, len(views)):
        stripped = views[nxt].lstrip()
        if not stripped:
            continue
        if stripped.startswith("{"):
            return name, nxt, views[nxt].index("{")
        return None
    return None


def _scan_body(views: list[str], open_line: int, open_col: int) -> int | None:
    """Return the line index holding the matching close brace, or None at EOF.

    A line with fewer `}` than the depth it starts at cannot close the
    body, so its braces are only counted; the others are walked brace
    by brace.
    """
    depth = 0
    col = open_col
    for line_idx in range(open_line, len(views)):
        text = views[line_idx]
        closes = text.count("}", col)
        if closes < depth:
            depth += text.count("{", col) - closes
        else:
            for match in _BRACE_RE.finditer(text, col):
                if match.group() == "{":
                    depth += 1
                else:
                    depth -= 1
                    if depth == 0:
                        return line_idx
        col = 0
    return None


def split_functions(file: SourceFile) -> list[DecompiledFunction]:
    """Carve a pseudo-C file into function bodies, signature through close brace.

    Text outside bodies (warnings, stray declarations) is discarded. A
    body left open at end of file is truncated there and flagged. Each
    body's ordinal is its place in the file; the bodies are returned in
    id order, so by name, then ordinal.
    """
    if file.language is not Language.PSEUDO_C:
        raise ValueError(f"{file.path}: split_functions expects decompiled pseudo-C")
    lines = file.lines
    views = ctext.code_views(lines)
    functions: list[DecompiledFunction] = []
    i = 0
    while i < len(lines):
        header = _match_header(views, i)
        if header is None:
            i += 1
            continue
        name, open_line, open_col = header
        close = _scan_body(views, open_line, open_col)
        truncated = close is None
        if truncated:
            log.warning("%s: unbalanced braces in %s; truncated at end of file", file.path, name)
            close = len(lines) - 1
        functions.append(
            DecompiledFunction.from_text(
                FunctionId(file.path, name, len(functions)),
                "\n".join(lines[i : close + 1]),
                truncated=truncated,
            )
        )
        i = close + 1
    functions.sort(key=lambda fn: fn.id)
    return functions
