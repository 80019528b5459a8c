"""Ground-truth markers that survive compiler optimization.

A marker is an assignment into a file-unique global ``const char *``
array, one slot per call site::

    const char *funcmark_3f9ab2c417de[2000];
    ...
    funcmark_3f9ab2c417de[7] = "FUNCMARK:sprintf";
    sprintf(buf, "%d", x);

The compiler cannot discard a store to a global array, so the assignment
reappears in decompiled output next to wherever the call body ended up,
labeling the inlined invocation. The string payload, not the slot value,
carries the label.

After decompilation, markers whose calls the decompiler recovered anyway
are dropped (`reconcile`); the remaining markers are the ground truth the
classifier trains against.
"""

from __future__ import annotations

import hashlib
import logging
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from . import ctext
from .corpus import DecompiledFunction, Language, SourceFile, TargetFunctionSet

log = logging.getLogger(__name__)

MARKER_PREFIX = "FUNCMARK:"
ARRAY_PREFIX = "funcmark_"
DEFAULT_ARRAY_SIZE = 2000

_ARRAY_NAME_RE = re.compile(rf"{ARRAY_PREFIX}[0-9a-f]{{12}}")
_DECL_RE = re.compile(rf"const char \*{ARRAY_PREFIX}[0-9a-f]+\[\d+\];")
_ASSIGN_RE = re.compile(rf"\s*{ARRAY_PREFIX}[0-9a-f]+\[\d+\] = \"{MARKER_PREFIX}[A-Za-z0-9_]*\";")
_PAYLOAD_RE = re.compile(rf"{MARKER_PREFIX}([A-Za-z_][A-Za-z0-9_]*)?")


class MarkerError(Exception):
    pass


class AlreadyInstrumentedError(MarkerError):
    """The file already carries a marker array; injecting twice would corrupt labels."""


class ArrayOverflowError(MarkerError):
    def __init__(self, path: str, overflow: Sequence[ctext.CallSite]):
        self.overflow = tuple(overflow)
        sites = ", ".join(f"{s.name}@{s.line}:{s.col}" for s in overflow)
        super().__init__(f"{path}: more call sites than marker slots; overflowing: {sites}")


@dataclass(frozen=True)
class MarkerAssignment:
    slot: int
    name: str
    line: int  # call location in the original file, 0-based
    col: int


@dataclass(frozen=True)
class MarkerPlan:
    file_array_name: str
    array_size: int
    assignments: tuple[MarkerAssignment, ...]

    def __post_init__(self):
        slots = [a.slot for a in self.assignments]
        if len(set(slots)) != len(slots):
            raise ValueError("marker slots must be unique within a file")
        if any(s < 0 or s >= self.array_size for s in slots):
            raise ValueError("marker slot outside the array")

    def as_json(self) -> dict:
        return {
            "array": self.file_array_name,
            "array_size": self.array_size,
            "assignments": [[a.slot, a.name, a.line, a.col] for a in self.assignments],
        }


@dataclass(frozen=True)
class RecoveredMarker:
    name: str
    line: int  # line index within the decompiled body


def array_name_for(path: str, content: bytes) -> str:
    digest = hashlib.sha256(path.encode("utf-8", "surrogateescape") + b"\0" + content)
    return ARRAY_PREFIX + digest.hexdigest()[:12]


def marked_path(path: str) -> str:
    if path.endswith(".c"):
        return path[:-2] + ".marked.c"
    return path + ".marked.c"


def _segments(text: str) -> list[str]:
    """Split after each newline, keeping it, so joining restores the text."""
    parts = text.split("\n")
    segments = [p + "\n" for p in parts[:-1]]
    if parts[-1]:
        segments.append(parts[-1])
    return segments


def inject_markers(
    source: SourceFile,
    targets: TargetFunctionSet,
    array_size: int = DEFAULT_ARRAY_SIZE,
) -> tuple[SourceFile, MarkerPlan]:
    """Instrument every located target call with a slot assignment.

    The declaration goes on the first line; each assignment lands on its
    own line directly above the call it marks, so stripping the inserted
    lines again restores the original file byte for byte.
    """
    if array_size < 1:
        raise ValueError(f"array_size must be at least 1, not {array_size}")  # C has no [0]
    if source.language is not Language.C:
        raise MarkerError(f"{source.path}: marker injection expects original C source")
    text = source.content.decode("utf-8", "surrogateescape")
    if _ARRAY_NAME_RE.search(text) or MARKER_PREFIX in text:
        raise AlreadyInstrumentedError(f"{source.path}: already instrumented")

    sites = ctext.find_call_sites(source.lines, targets.name_set)
    if len(sites) > array_size:
        raise ArrayOverflowError(source.path, sites[array_size:])
    if not sites:
        log.warning("%s: no target calls located; only the unused declaration was added", source.path)

    array = array_name_for(source.path, source.content)
    by_line: dict[int, list[tuple[int, str]]] = {}
    assignments = []
    for slot, site in enumerate(sites):
        by_line.setdefault(site.line, []).append((slot, site.name))
        assignments.append(MarkerAssignment(slot, site.name, site.line, site.col))

    segments = _segments(text)
    out = [f"const char *{array}[{array_size}];\n"]
    for lineno, segment in enumerate(segments):
        for slot, name in by_line.get(lineno, []):
            indent = segment[: len(segment) - len(segment.lstrip())].rstrip("\n")
            out.append(f'{indent}{array}[{slot}] = "{MARKER_PREFIX}{name}";\n')
        out.append(segment)

    instrumented = SourceFile(
        path=marked_path(source.path),
        content="".join(out).encode("utf-8", "surrogateescape"),
        language=Language.C,
        optimization=source.optimization,
    )
    return instrumented, MarkerPlan(array, array_size, tuple(assignments))


def strip_instrumentation(content: bytes) -> bytes:
    """Delete the declaration and every marker assignment line."""
    text = content.decode("utf-8", "surrogateescape")
    kept = []
    for segment in _segments(text):
        line = segment[:-1] if segment.endswith("\n") else segment
        if _DECL_RE.fullmatch(line) or _ASSIGN_RE.fullmatch(line):
            continue
        kept.append(segment)
    return "".join(kept).encode("utf-8", "surrogateescape")


def extract_markers(body: DecompiledFunction) -> list[RecoveredMarker]:
    """Collect surviving marker payloads from a decompiled body, in line order.

    Any line may carry several markers; each occurrence yields one
    record. A payload prefix with no name after it is logged and skipped.
    """
    found = []
    for lineno, line in enumerate(body.lines):
        for match in _PAYLOAD_RE.finditer(line):
            name = match.group(1)
            if name is None:
                log.warning("%s line %d: malformed marker payload; skipped", body.id, lineno)
                continue
            found.append(RecoveredMarker(name.lower(), lineno))
    return found


def reconcile(
    markers: Sequence[RecoveredMarker], recovered_calls: Mapping[str, int]
) -> tuple[tuple[tuple[str, int], ...], Counter]:
    """Drop markers for calls the decompiler already recovered.

    Per name, min(markers, recovered) marker instances are removed,
    earliest lines first; what remains becomes ground truth. Recovered
    calls with no matching marker were never inlined and are ignored.
    """
    budget = Counter({k: v for k, v in recovered_calls.items() if v > 0})
    residual = []
    removed: Counter = Counter()
    for marker in sorted(markers, key=lambda m: m.line):
        if budget[marker.name] > 0:
            budget[marker.name] -= 1
            removed[marker.name] += 1
        else:
            residual.append((marker.name, marker.line))
    return tuple(residual), removed


def reconcile_function(body: DecompiledFunction, targets: TargetFunctionSet) -> DecompiledFunction:
    """Fill in `true_labels` and `recovered` for one decompiled body.

    Markers naming functions outside the target set are dropped up front;
    recovered calls are the target-function invocations still visible to
    the decompiler as plain calls in the body text.
    """
    markers = [m for m in extract_markers(body) if m.name in targets.name_set]
    sites = ctext.find_call_sites(body.lines, targets.name_set)
    recovered = Counter(site.name for site in sites)
    residual, _removed = reconcile(markers, recovered)
    return replace(
        body,
        true_labels=residual,
        recovered=tuple(sorted(recovered.elements())),
    )
