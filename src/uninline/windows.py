"""Fixed-height windows over decompiled bodies, plus class rebalancing.

Scanning slides a height-h window down the body one stride at a time,
and ends with the window on the body's last h lines; each window is
labeled with the marker whose anchor line falls inside it, smallest
anchor first and lexicographic name on equal lines, or EMPTY when no
anchor is covered.

A window is held as its text: the kept lines joined with newlines, as a
window record stores it. Marker assignment lines are stripped from that
text so a classifier never reads the labels it is meant to predict.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .corpus import DecompiledFunction, FunctionId
from .jsonl import INTEGER, STRING, check_text, field, read_records, write_jsonl
from .markers import MARKER_PREFIX
from .rng import doubles

EMPTY = ""

DEFAULT_HEIGHT = 20
DEFAULT_STRIDE = 1
DEFAULT_DISCARD_FRACTION = 0.65
DEFAULT_SEED = 0


@dataclass(frozen=True)
class WindowSpec:
    height: int = DEFAULT_HEIGHT
    stride: int = DEFAULT_STRIDE

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("window height must be at least 1 line")
        if self.stride < 1:
            raise ValueError("stride must be at least 1 line")


@dataclass(frozen=True)
class WindowInstance:
    func_id: FunctionId
    start: int
    text: str
    label: str = EMPTY

    @property
    def lines(self) -> tuple[str, ...]:
        return tuple(self.text.split("\n")) if self.text else ()

    def as_json(self) -> dict:
        return {
            "func_id": self.func_id.as_json(),
            "start": self.start,
            "label": self.label,
            "text": self.text,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WindowInstance":
        return cls(
            func_id=FunctionId.from_json(obj["func_id"]),
            start=field(obj, "start", INTEGER),
            text=check_text("text", field(obj, "text", STRING)),
            label=check_text("label", field(obj, "label", STRING)),
        )


def _window_label(body: DecompiledFunction, start: int, end: int) -> str:
    covered = [(anchor, name) for name, anchor in body.true_labels if start <= anchor < end]
    if not covered:
        return EMPTY
    return min(covered)[1]


def scan_windows(body: DecompiledFunction, spec: WindowSpec) -> list[WindowInstance]:
    """The stride-spaced windows of the body, and the one that ends at its last line.

    Windows start at 0, stride, 2 * stride, ... before L - h, and the
    last starts at L - h, so a stride that does not divide L - h still
    leaves no line at the end of the body unscanned: max(1, L-h+1)
    windows at stride 1. A body of at most h lines is one window.
    """
    lines = body.lines
    length = len(lines)
    if length == 0:
        return []
    last = max(length - spec.height, 0)
    starts = [*range(0, last, spec.stride), last]
    kept = range(length)  # the body lines a window's text keeps
    if MARKER_PREFIX in body.text:
        kept = [i for i, line in enumerate(lines) if MARKER_PREFIX not in line]
        lines = [lines[i] for i in kept]
    out = []
    for start in starts:
        end = min(start + spec.height, length)
        text = "\n".join(lines[bisect_left(kept, start):bisect_left(kept, end)])
        out.append(WindowInstance(body.id, start, text, _window_label(body, start, end)))
    return out


def rebalance(
    instances: Iterable[WindowInstance],
    discard_fraction: float = DEFAULT_DISCARD_FRACTION,
    seed: int = DEFAULT_SEED,
) -> list[WindowInstance]:
    """Thin the EMPTY class, keeping each unlabeled window with p = 1 - fraction.

    Labeled windows always survive and consume no random draws, so the
    surviving set depends only on (seed, positions of EMPTY windows).
    The draws are those of numpy's `default_rng(seed)`. Order is
    preserved.
    """
    if not 0 <= discard_fraction < 1:
        raise ValueError("discard_fraction must lie in [0, 1)")
    draws = doubles(seed)
    return [inst for inst in instances if inst.label != EMPTY or next(draws) >= discard_fraction]


def write_windows(path, instances: Iterable[WindowInstance]) -> int:
    return write_jsonl(path, instances, WindowInstance.as_json)


def read_windows(path) -> list[WindowInstance]:
    return read_records(path, WindowInstance.from_json)
