"""Recovery multisets and the model + decompiler merge.

Both the classifier pipeline and the decompiler produce, per function
body, a multiset of invoked names. The two are instance-disjoint by
construction: markers matching decompiler-recovered calls were removed
at reconciliation, so the classifier only ever claims the residual,
inlined invocations. Combining is therefore an elementwise sum, never a
per-key max, which would undercount whenever both sources contribute
instances of the same name.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import FunctionId
from .jsonl import read_records, write_jsonl

log = logging.getLogger(__name__)


@dataclass(frozen=True, init=False)
class RecoveryMultiset:
    """name -> positive count; an absent name counts zero."""

    counts: tuple[tuple[str, int], ...]

    def __init__(self, counts: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = dict(counts)
        for name, count in items.items():
            if count < 0:
                raise ValueError(f"negative count for {name!r}")
        object.__setattr__(
            self, "counts", tuple(sorted((n, c) for n, c in items.items() if c > 0))
        )

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __add__(self, other: "RecoveryMultiset") -> "RecoveryMultiset":
        merged = dict(self.counts)
        for name, count in other.counts:
            merged[name] = merged.get(name, 0) + count
        return RecoveryMultiset(merged)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.counts)

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)


def combine(model: RecoveryMultiset, decompiler: RecoveryMultiset) -> RecoveryMultiset:
    """Multiset sum of the two per-function recovery sources."""
    return model + decompiler


@dataclass(frozen=True)
class FunctionRecovery:
    """One function's recovery multiset as a pipeline record."""

    func_id: FunctionId
    counts: RecoveryMultiset
    optlevel: str | None = None

    def as_json(self) -> dict:
        obj = {"func_id": self.func_id.as_json(), "counts": self.counts.as_dict()}
        if self.optlevel is not None:
            obj["optlevel"] = self.optlevel
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FunctionRecovery":
        counts = obj["counts"]
        if not isinstance(counts, dict):
            raise ValueError(f"field 'counts' must be an object, not {type(counts).__name__}")
        for name, count in counts.items():
            # bool is an int subclass; "2", 1.7, true and -1 are all refused
            if type(count) is not int or count < 0:
                raise ValueError(f"field 'counts': {name!r} has count {count!r}, "
                                 "not a non-negative integer")
        optlevel = obj.get("optlevel")
        if optlevel is not None and not isinstance(optlevel, str):
            raise ValueError(f"field 'optlevel' must be a string, not {optlevel!r}")
        return cls(
            func_id=FunctionId.from_json(obj["func_id"]),
            counts=RecoveryMultiset(counts),
            optlevel=optlevel,
        )


def read_recoveries(path) -> list[FunctionRecovery]:
    return read_records(path, FunctionRecovery.from_json)


def write_recoveries(path, records: Iterable[FunctionRecovery]) -> int:
    return write_jsonl(path, (r.as_json() for r in records))


def combine_recoveries(
    model: Sequence[FunctionRecovery], decompiler: Sequence[FunctionRecovery]
) -> list[FunctionRecovery]:
    """Merge two record sets over the union of their function ids.

    A function present in only one input keeps its multiset; optlevel
    tags are taken from whichever side has one, and a disagreement
    keeps the model side's tag and logs.
    """
    merged: dict[FunctionId, FunctionRecovery] = {}
    for rec in model:
        if rec.func_id in merged:
            raise ValueError(f"duplicate function id in model records: {rec.func_id}")
        merged[rec.func_id] = rec
    seen_decomp = set()
    for rec in decompiler:
        if rec.func_id in seen_decomp:
            raise ValueError(f"duplicate function id in decompiler records: {rec.func_id}")
        seen_decomp.add(rec.func_id)
        left = merged.get(rec.func_id)
        if left is None:
            merged[rec.func_id] = rec
            continue
        optlevel = left.optlevel if left.optlevel is not None else rec.optlevel
        if None not in (left.optlevel, rec.optlevel) and left.optlevel != rec.optlevel:
            log.warning(
                "%s: optimization tags disagree (%s vs %s); keeping %s",
                rec.func_id, left.optlevel, rec.optlevel, left.optlevel,
            )
        # replacing a key keeps its place, so model ids stay first, in model order
        merged[rec.func_id] = FunctionRecovery(
            rec.func_id, combine(left.counts, rec.counts), optlevel
        )
    return list(merged.values())
