"""Noise-tolerant run-length coalescing of per-window label sequences.

A window scan over one body yields an ordered label sequence; an
invocation whose marker sat at line a is typically predicted by every
window covering a, so a real invocation shows up as a run of equal
labels, while classifier noise shows up as short blips. Three steps
turn the sequence into a recovery multiset:

1. denoise: erase a label that matches nothing within neighbor_span
   positions on either side (all positions judged against the original
   sequence at once, so one erasure cannot cascade into another).
2. bridge and encode: a gap of at most bridge_gap EMPTYs with the same
   label on both flanks is filled in, then runs of equal labels are
   length-encoded; wider gaps and label changes end runs.
3. finalize: drop runs shorter than retain_threshold; each survivor of
   length r adds ceil(r / count_divisor) occurrences of its label.

On the sequence a,a,x,x,a,a,b,b,b,b,b,x,c,x,x,x,x,c,d,c (x = EMPTY):
the lone d is erased, the two-wide and one-wide gaps refill while the
four-wide one cannot, runs a6 b5 c1 c3 survive as a6 b5, and the result
is {a: 1, b: 1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .combine import RecoveryMultiset
from .corpus import FunctionId
from .jsonl import STRINGS, check_texts, field, read_records, write_jsonl
from .windows import EMPTY


@dataclass(frozen=True)
class CoalesceParams:
    neighbor_span: int = 5
    bridge_gap: int = 3
    retain_threshold: int = 4
    count_divisor: int = 20

    def __post_init__(self):
        for name in ("neighbor_span", "bridge_gap", "retain_threshold", "count_divisor"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class RunSegment:
    label: str
    length: int

    def __post_init__(self):
        if self.label == EMPTY:
            raise ValueError("run segments carry real labels, never EMPTY")
        if self.length < 1:
            raise ValueError("run length must be positive")


@dataclass(frozen=True)
class LabelSequence:
    """The ordered window labels of one function body."""

    func_id: FunctionId
    labels: tuple[str, ...]

    def as_json(self) -> dict:
        return {"func_id": self.func_id.as_json(), "labels": list(self.labels)}

    @classmethod
    def from_json(cls, obj: dict) -> "LabelSequence":
        return cls(FunctionId.from_json(obj["func_id"]),
                   tuple(check_texts("labels", field(obj, "labels", STRINGS))))


def denoise(labels: Sequence[str], neighbor_span: int) -> list[str]:
    """Erase labels that agree with no neighbor within the span, simultaneously."""
    n = neighbor_span
    out = list(labels)
    for i, label in enumerate(labels):
        if label == EMPTY:
            continue
        before = labels[max(0, i - n):i]
        after = labels[i + 1:i + 1 + n]
        if label not in before and label not in after:
            out[i] = EMPTY
    return out


def bridge_and_encode(labels: Sequence[str], bridge_gap: int) -> list[RunSegment]:
    """Fill small same-flanked EMPTY gaps, then run-length encode."""
    seq = list(labels)
    i = 0
    while i < len(seq):
        if seq[i] != EMPTY:
            i += 1
            continue
        j = i
        while j < len(seq) and seq[j] == EMPTY:
            j += 1
        if (
            0 < i
            and j < len(seq)
            and j - i <= bridge_gap
            and seq[i - 1] == seq[j]
        ):
            seq[i:j] = [seq[j]] * (j - i)
        i = j
    return [
        RunSegment(label, sum(1 for _ in group))
        for label, group in groupby(seq)
        if label != EMPTY
    ]


def finalize(
    runs: Iterable[RunSegment], retain_threshold: int, count_divisor: int
) -> RecoveryMultiset:
    """Keep long runs; each contributes ceil(length / divisor) occurrences."""
    counts: dict[str, int] = {}
    for run in runs:
        if run.length >= retain_threshold:
            occurrences = (run.length + count_divisor - 1) // count_divisor
            counts[run.label] = counts.get(run.label, 0) + occurrences
    return RecoveryMultiset(counts)


def coalesce(
    labels: LabelSequence | Sequence[str], params: CoalesceParams = CoalesceParams()
) -> RecoveryMultiset:
    """denoise, then bridge and encode, then finalize."""
    raw = labels.labels if isinstance(labels, LabelSequence) else labels
    cleaned = denoise(raw, params.neighbor_span)
    runs = bridge_and_encode(cleaned, params.bridge_gap)
    return finalize(runs, params.retain_threshold, params.count_divisor)


def read_label_sequences(path) -> list[LabelSequence]:
    return read_records(path, LabelSequence.from_json, key="func_id")


def write_label_sequences(path, sequences: Iterable[LabelSequence]) -> int:
    return write_jsonl(path, sequences, LabelSequence.as_json)
