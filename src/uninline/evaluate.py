"""Multiset scoring and frequency correlation.

Counting is per name: with p predicted and g true instances of a name,
min(p, g) are true positives, the excess on either side is false
positives or false negatives. Predicting Func1 where Func2 was inlined
therefore costs one FP and one FN at once. A body where both sides are
empty scores one true negative; true negatives are tallied for
transparency but never enter precision, recall, or F1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .combine import FunctionRecovery, RecoveryMultiset
from .jsonl import atomic_write

UNTAGGED = "untagged"
DEFAULT_BREAKDOWN = "optimization"


@dataclass(frozen=True)
class EvalCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def as_json(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


def score_by_name(
    predicted: RecoveryMultiset, truth: RecoveryMultiset
) -> dict[str, EvalCounts]:
    """TP/FP/FN for each name on either side; TN has no name."""
    pred, gold = predicted.as_dict(), truth.as_dict()
    out = {}
    for name in pred.keys() | gold.keys():
        p, g = pred.get(name, 0), gold.get(name, 0)
        out[name] = EvalCounts(min(p, g), max(0, p - g), max(0, g - p), 0)
    return out


def _function_counts(by_name: Mapping[str, EvalCounts]) -> EvalCounts:
    # a body with no name on either side is the one true negative
    return sum(by_name.values(), EvalCounts(tn=int(not by_name)))


def score_function(predicted: RecoveryMultiset, truth: RecoveryMultiset) -> EvalCounts:
    """The per-name counts summed; one TN iff both sides are empty."""
    return _function_counts(score_by_name(predicted, truth))


@dataclass(frozen=True)
class EvalReport:
    overall: EvalCounts
    by_optimization: dict[str, EvalCounts] = field(default_factory=dict)
    by_name: dict[str, EvalCounts] = field(default_factory=dict)

    @property
    def f1(self) -> float:
        return self.overall.f1

    @property
    def unique_functions_recovered(self) -> int:
        return sum(1 for c in self.by_name.values() if c.tp >= 1)

    def as_json(self) -> dict:
        def block(c: EvalCounts) -> dict:
            return {
                **c.as_json(),
                "precision": c.precision,
                "recall": c.recall,
                "f1": c.f1,
            }

        return {
            "overall": block(self.overall),
            "by_optimization": {k: block(v) for k, v in sorted(self.by_optimization.items())},
            "by_name": {k: block(v) for k, v in sorted(self.by_name.items())},
            "unique_functions_recovered": self.unique_functions_recovered,
        }

    def render(self, breakdown: str = DEFAULT_BREAKDOWN) -> str:
        """Aligned text table; one row per breakdown key plus the overall row."""
        if breakdown == "optimization":
            rows = sorted(self.by_optimization.items())
        elif breakdown == "name":
            rows = sorted(self.by_name.items())
        elif breakdown == "none":
            rows = []
        else:
            raise ValueError(f"unknown breakdown {breakdown!r}")
        rows = rows + [("overall", self.overall)]
        header = ("", "tp", "fp", "fn", "tn", "precision", "recall", "f1")
        table = [header]
        for key, c in rows:
            table.append(
                (
                    key,
                    str(c.tp),
                    str(c.fp),
                    str(c.fn),
                    str(c.tn),
                    f"{c.precision:.4f}",
                    f"{c.recall:.4f}",
                    f"{c.f1:.4f}",
                )
            )
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        lines = []
        for row in table:
            cells = [row[0].ljust(widths[0])] + [
                row[i].rjust(widths[i]) for i in range(1, len(header))
            ]
            lines.append("  ".join(cells).rstrip())
        lines.append(f"unique functions recovered: {self.unique_functions_recovered}")
        return "\n".join(lines)


def score_recoveries(
    predicted: Sequence[FunctionRecovery], truth: Sequence[FunctionRecovery]
) -> EvalReport:
    """Score prediction records against truth records over the id union.

    A function absent from one side is treated as an empty multiset
    there; optimization tags come from whichever record carries one.
    """
    pred_by_id = {r.func_id: r for r in predicted}
    truth_by_id = {r.func_id: r for r in truth}
    if len(pred_by_id) != len(predicted):
        raise ValueError("duplicate function id among predictions")
    if len(truth_by_id) != len(truth):
        raise ValueError("duplicate function id among truth records")
    overall = EvalCounts()
    by_opt: dict[str, EvalCounts] = {}
    by_name: dict[str, EvalCounts] = {}
    empty = RecoveryMultiset()
    for fid in sorted(pred_by_id.keys() | truth_by_id.keys()):
        p = pred_by_id.get(fid)
        g = truth_by_id.get(fid)
        names = score_by_name(p.counts if p else empty, g.counts if g else empty)
        counts = _function_counts(names)
        overall += counts
        key = next((r.optlevel for r in (p, g) if r and r.optlevel is not None), UNTAGGED)
        by_opt[key] = by_opt.get(key, EvalCounts()) + counts
        for name, c in names.items():
            by_name[name] = by_name.get(name, EvalCounts()) + c
    return EvalReport(overall, by_opt, by_name)


@dataclass(frozen=True)
class CorrelationReport:
    r_precision: float | None
    r_recall: float | None
    r_f1: float | None
    points: int

    def as_json(self) -> dict:
        return {
            "r_precision": self.r_precision,
            "r_recall": self.r_recall,
            "r_f1": self.r_f1,
            "points": self.points,
        }


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Pearson r, or None when undefined (fewer than 2 points or a flat axis)."""
    if len(xs) != len(ys):
        raise ValueError("coordinate lists must align")
    if len(xs) < 2:
        return None
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def frequency_correlation(
    per_name_metrics: Mapping[str, tuple[float, float, float, float]]
) -> CorrelationReport:
    """Correlate target-function frequency with each metric.

    Values are (frequency, precision, recall, f1) per name. Any metric
    with undefined correlation (flat axis, too few names) reports None.
    """
    names = sorted(per_name_metrics)
    freqs = [per_name_metrics[n][0] for n in names]
    metrics = list(zip(*(per_name_metrics[n][1:] for n in names))) if names else ([], [], [])
    r = [pearson(freqs, list(column)) for column in metrics] if names else [None, None, None]
    return CorrelationReport(r[0], r[1], r[2], len(names))


def write_report(path: str | Path, report: EvalReport) -> None:
    atomic_write(path, json.dumps(report.as_json(), indent=1, sort_keys=True) + "\n")
