"""Fixed-height windows over decompiled bodies, plus class rebalancing.

Scanning slides a height-h window down the body one stride at a time;
each window is labeled with the marker whose anchor line falls inside
it, smallest anchor first and lexicographic name on equal lines, or
EMPTY when no anchor is covered.

A window is held as its text: the kept lines joined with newlines, as a
window record stores it. Marker assignment lines are stripped from that
text so a classifier never reads the labels it is meant to predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import DecompiledFunction, FunctionId
from .jsonl import read_records, write_jsonl
from .markers import MARKER_PREFIX

EMPTY = ""

DEFAULT_HEIGHT = 20
DEFAULT_STRIDE = 1
DEFAULT_DISCARD_FRACTION = 0.65


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
        start, text, label = obj["start"], obj["text"], obj["label"]
        # bool is an int subclass; 1.9, "1" and true are all refused
        if type(start) is not int:
            raise ValueError(f"field 'start' must be an integer, not {start!r}")
        for key, value in (("text", text), ("label", label)):
            if not isinstance(value, str):
                raise ValueError(f"field {key!r} must be a string, not {type(value).__name__}")
        return cls(
            func_id=FunctionId.from_json(obj["func_id"]),
            start=start,
            text=text,
            label=label,
        )


def _window_label(body: DecompiledFunction, start: int, end: int) -> str:
    covered = [(anchor, name) for name, anchor in body.true_labels if start <= anchor < end]
    if not covered:
        return EMPTY
    return min(covered)[1]


def scan_windows(body: DecompiledFunction, spec: WindowSpec) -> list[WindowInstance]:
    """All stride-spaced windows of the body; max(1, L-h+1) of them at stride 1."""
    length = len(body.lines)
    if length == 0:
        return []
    if length <= spec.height:
        starts: Sequence[int] = (0,)
    else:
        starts = range(0, length - spec.height + 1, spec.stride)
    skip = frozenset(i for i, line in enumerate(body.lines) if MARKER_PREFIX in line)
    out = []
    for start in starts:
        end = min(start + spec.height, length)
        text = "\n".join([body.lines[i] for i in range(start, end) if i not in skip])
        out.append(WindowInstance(body.id, start, text, _window_label(body, start, end)))
    return out


def rebalance(
    instances: Iterable[WindowInstance],
    discard_fraction: float = DEFAULT_DISCARD_FRACTION,
    seed: int = 0,
) -> list[WindowInstance]:
    """Thin the EMPTY class, keeping each unlabeled window with p = 1 - fraction.

    Labeled windows always survive and consume no random draws, so the
    surviving set depends only on (seed, positions of EMPTY windows).
    Order is preserved.
    """
    if not 0 <= discard_fraction < 1:
        raise ValueError("discard_fraction must lie in [0, 1)")
    pool = list(instances)
    if discard_fraction == 0:
        return pool
    rng = np.random.default_rng(seed)
    out = []
    for inst in pool:
        if inst.label != EMPTY or rng.random() >= discard_fraction:
            out.append(inst)
    return out


def write_windows(path, instances: Iterable[WindowInstance]) -> int:
    return write_jsonl(path, (w.as_json() for w in instances))


def read_windows(path) -> list[WindowInstance]:
    return read_records(path, WindowInstance.from_json)
