"""Data model for original C sources and decompiled pseudo-C.

Decompiled files are carved into per-function records by brace matching
from a signature-shaped header line (`split_functions`, the `uninline
split` stage); decompiler output is syntactically regular enough that
this is reliable. The matching runs on `ctext` code views, and walks
only the parens and braces that regular expressions find. All types
here are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import ctext
from . import jsonl

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
        for field_name, value in (("path", path), ("name", name)):
            if not isinstance(value, str):
                raise ValueError(f"function id field {field_name!r} must be a string, "
                                 f"not {value!r}")
        # bool is an int subclass; 1.9, "1" and true are all refused
        if type(ordinal) is not int:
            raise ValueError(f"function id field 'ordinal' must be an integer, not {ordinal!r}")
        return cls(path, name, ordinal)


@dataclass(frozen=True)
class DecompiledFunction:
    """One decompiled function body: ordered lines plus ground truth.

    `true_labels` holds residual markers as (function name, anchor line)
    pairs; `recovered` is the multiset of target-function calls the
    decompiler itself recovered, stored as a sorted name tuple.
    """

    id: FunctionId
    lines: tuple[str, ...]
    true_labels: tuple[tuple[str, int], ...] = ()
    recovered: tuple[str, ...] = ()
    truncated: bool = False

    def __post_init__(self):
        for name, anchor in self.true_labels:
            if not 0 <= anchor < len(self.lines):
                raise ValueError(
                    f"{self.id}: label anchor {anchor} outside body of {len(self.lines)} lines"
                )
            if not name:
                raise ValueError(f"{self.id}: empty label name")

    @property
    def recovered_counts(self) -> Counter:
        return Counter(self.recovered)

    @property
    def true_counts(self) -> Counter:
        return Counter(name for name, _ in self.true_labels)

    def as_json(self) -> dict:
        obj = {
            "id": self.id.as_json(),
            "lines": list(self.lines),
            "true_labels": [[name, anchor] for name, anchor in self.true_labels],
            "recovered": list(self.recovered),
        }
        if self.truncated:
            obj["truncated"] = True
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DecompiledFunction":
        lines = _list_field(obj, "lines")
        if not all(isinstance(line, str) for line in lines):
            raise ValueError("field 'lines' must hold only strings")
        truncated = obj.get("truncated", False)
        if not isinstance(truncated, bool):
            raise ValueError("field 'truncated' must be true or false")
        true_labels = _list_field(obj, "true_labels")
        for label in true_labels:
            if not (isinstance(label, list) and len(label) == 2
                    and isinstance(label[0], str) and type(label[1]) is int):
                raise ValueError(f"field 'true_labels' holds {label!r}, not [name, line]")
        recovered = _list_field(obj, "recovered")
        if not all(isinstance(name, str) for name in recovered):
            raise ValueError("field 'recovered' must hold only strings")
        return cls(
            id=FunctionId.from_json(obj["id"]),
            lines=tuple(lines),
            true_labels=tuple((name, anchor) for name, anchor in true_labels),
            recovered=tuple(sorted(recovered)),
            truncated=truncated,
        )


def _list_field(obj: dict, key: str) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise ValueError(f"field {key!r} must be a list, not {type(value).__name__}")
    return value


def read_functions(path: str | Path) -> list[DecompiledFunction]:
    return jsonl.read_records(path, DecompiledFunction.from_json)


def write_functions(path: str | Path, functions: Iterable[DecompiledFunction]) -> int:
    return jsonl.write_jsonl(path, (fn.as_json() for fn in functions))


@dataclass(frozen=True)
class TargetFunctionSet:
    """The library functions the pipeline tries to recover.

    Names are lowercased; matching throughout the toolkit is
    case-insensitive via this normalization.
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
            low = name.strip().lower()
            if low and low not in seen:
                normalized.append(low)
                seen.add(low)
        freqs = {k.lower(): int(v) for k, v in (frequencies or {}).items()}
        return cls(tuple(normalized), freqs)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.name_set


def load_targets(path: str | Path) -> TargetFunctionSet:
    """Read a target list: one ``name`` or ``name<TAB>frequency`` per line."""
    names = []
    freqs = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        names.append(parts[0])
        if len(parts) > 1:
            # int() would also take "-5", "+5" and "1_000"
            if not (parts[1].isascii() and parts[1].isdigit()):
                raise ValueError(f"{path}:{lineno}: frequency must be a non-negative "
                                 f"integer, not {parts[1]!r}")
            freqs[parts[0].lower()] = int(parts[1])
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
    body left open at end of file is truncated there and flagged.
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
            DecompiledFunction(
                id=FunctionId(file.path, name, len(functions)),
                lines=tuple(lines[i : close + 1]),
                truncated=truncated,
            )
        )
        i = close + 1
    return functions
