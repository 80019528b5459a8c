"""Multiset scoring rules, reports, and correlation."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from uninline.combine import FunctionRecovery, RecoveryMultiset
from uninline.corpus import FunctionId
from uninline.evaluate import (
    EvalCounts,
    EvalReport,
    frequency_correlation,
    pearson,
    score_by_name,
    score_function,
    score_recoveries,
    write_report,
)


def _counts(pred: dict, truth: dict) -> EvalCounts:
    return score_function(RecoveryMultiset(pred), RecoveryMultiset(truth))


# One test per scoring rule.


def test_exact_match_is_all_tp() -> None:
    assert _counts({"f": 2, "g": 1}, {"f": 2, "g": 1}) == EvalCounts(tp=3)


def test_surplus_prediction_is_fp() -> None:
    assert _counts({"f": 3}, {"f": 2}) == EvalCounts(tp=2, fp=1)


def test_missing_prediction_is_fn() -> None:
    assert _counts({"f": 1}, {"f": 2}) == EvalCounts(tp=1, fn=1)


def test_wrong_name_costs_fp_and_fn() -> None:
    assert _counts({"func1": 1}, {"func2": 1}) == EvalCounts(fp=1, fn=1)


def test_both_empty_is_one_tn() -> None:
    assert _counts({}, {}) == EvalCounts(tn=1)
    # any content on either side suppresses the TN
    assert _counts({"f": 1}, {}).tn == 0
    assert _counts({}, {"f": 1}).tn == 0


def _best_matching(pred: list[str], truth: list[str]) -> int:
    """Max one-to-one pairing of equal names, by brute force."""
    best = 0

    def go(i: int, used: frozenset, matched: int) -> None:
        nonlocal best
        if i == len(pred):
            best = max(best, matched)
            return
        go(i + 1, used, matched)
        for j, name in enumerate(truth):
            if j not in used and name == pred[i]:
                go(i + 1, used | {j}, matched + 1)

    go(0, frozenset(), 0)
    return best


def _instances(m: RecoveryMultiset) -> list[str]:
    return [n for n, c in m.counts for _ in range(c)]


def _all_multisets(alphabet: str, max_total: int):
    for counts in itertools.product(range(max_total + 1), repeat=len(alphabet)):
        if sum(counts) <= max_total:
            yield RecoveryMultiset(dict(zip(alphabet, counts)))


def test_exhaustive_small_multisets_match_assignment_oracle() -> None:
    universe = list(_all_multisets("abc", 5))
    for pred in universe:
        for truth in universe:
            got = score_function(pred, truth)
            p, g = _instances(pred), _instances(truth)
            tp = _best_matching(p, g)
            assert got.tp == tp
            assert got.fp == len(p) - tp
            assert got.fn == len(g) - tp
            assert got.tn == (1 if not p and not g else 0)


def test_self_score_is_total_tp(rng: np.random.Generator) -> None:
    for _ in range(50):
        m = RecoveryMultiset(
            {n: int(rng.integers(0, 4)) for n in ("p", "q", "r")}
        )
        got = score_function(m, m)
        assert got == EvalCounts(tp=m.total, tn=0 if m else 1)


def test_renaming_preserves_counts() -> None:
    pred = {"a": 2, "b": 1}
    truth = {"a": 1, "c": 2}
    renamed = lambda d: {{"a": "x", "b": "y", "c": "z"}[k]: v for k, v in d.items()}
    assert _counts(pred, truth) == _counts(renamed(pred), renamed(truth))


def test_spurious_name_adds_exactly_one_fp() -> None:
    base = _counts({"f": 2}, {"f": 2})
    bumped = _counts({"f": 2, "ghost": 1}, {"f": 2})
    assert bumped == EvalCounts(base.tp, base.fp + 1, base.fn, 0)


def test_score_by_name_attribution() -> None:
    per = score_by_name(
        RecoveryMultiset({"f": 3, "g": 1}), RecoveryMultiset({"f": 2, "h": 1})
    )
    assert per == {
        "f": EvalCounts(tp=2, fp=1),
        "g": EvalCounts(fp=1),
        "h": EvalCounts(fn=1),
    }
    # TN is a per-function notion, never attributed to a name
    assert score_by_name(RecoveryMultiset(), RecoveryMultiset()) == {}


def test_counts_validation_and_ratios() -> None:
    with pytest.raises(ValueError):
        EvalCounts(tp=-1)
    zero = EvalCounts()
    assert zero.precision == 0.0
    assert zero.recall == 0.0
    assert zero.f1 == 0.0
    c = EvalCounts(tp=64, fp=36, fn=75)
    assert c.precision == pytest.approx(0.64)
    assert c.recall == pytest.approx(64 / 139)
    assert c.f1 == pytest.approx(2 * 0.64 * (64 / 139) / (0.64 + 64 / 139))


def test_tn_never_enters_ratios() -> None:
    with_tn = EvalCounts(tp=3, fp=1, fn=2, tn=500)
    without = EvalCounts(tp=3, fp=1, fn=2, tn=0)
    assert with_tn.precision == without.precision
    assert with_tn.recall == without.recall
    assert with_tn.f1 == without.f1


FID = [FunctionId("a.c", f"fn{i}", i) for i in range(4)]


def _random_recoveries(rng: np.random.Generator, count: int) -> list[FunctionRecovery]:
    return [
        FunctionRecovery(FunctionId("r.c", f"fn{i}", i),
                         RecoveryMultiset(dict(zip("abc", map(int, rng.integers(0, 3, 3))))))
        for i in range(count)
    ]


def test_score_recoveries_is_shard_invariant(rng: np.random.Generator) -> None:
    pred, truth = _random_recoveries(rng, 40), _random_recoveries(rng, 40)
    whole = score_recoveries(pred, truth)
    head, tail = score_recoveries(pred[:13], truth[:13]), score_recoveries(pred[13:], truth[13:])
    zero = EvalCounts()
    assert whole.overall == head.overall + tail.overall == sum(
        (score_function(p.counts, g.counts) for p, g in zip(pred, truth)), zero)
    assert whole.by_name == {n: head.by_name.get(n, zero) + tail.by_name.get(n, zero)
                             for n in head.by_name.keys() | tail.by_name.keys()}


def test_score_recoveries_optlevel_buckets() -> None:
    pred = [
        FunctionRecovery(FID[0], RecoveryMultiset({"f": 1}), optlevel="O2"),
        FunctionRecovery(FID[1], RecoveryMultiset({"f": 1})),
        FunctionRecovery(FID[2], RecoveryMultiset(), optlevel="O2"),
    ]
    truth = [
        FunctionRecovery(FID[0], RecoveryMultiset({"f": 1})),
        FunctionRecovery(FID[2], RecoveryMultiset({"f": 1})),
    ]
    report = score_recoveries(pred, truth)
    assert report.by_optimization == {
        "O2": EvalCounts(tp=1, fn=1),
        "untagged": EvalCounts(fp=1),
    }


def test_unique_functions_recovered() -> None:
    report = EvalReport(
        EvalCounts(tp=3, fp=1),
        by_name={
            "f": EvalCounts(tp=2),
            "g": EvalCounts(tp=1, fp=1),
            "h": EvalCounts(fp=2),
            "i": EvalCounts(fn=4),
        },
    )
    # names recovered at least once: f and g
    assert report.unique_functions_recovered == 2


def test_score_recoveries_union_of_ids() -> None:
    pred = [
        FunctionRecovery(FID[0], RecoveryMultiset({"f": 1}), optlevel="O1"),
        FunctionRecovery(FID[1], RecoveryMultiset({"g": 2})),
    ]
    truth = [
        FunctionRecovery(FID[0], RecoveryMultiset({"f": 1})),
        FunctionRecovery(FID[2], RecoveryMultiset({"h": 1}), optlevel="O3"),
    ]
    report = score_recoveries(pred, truth)
    # fn1's prediction is all FP (no truth record), fn2's truth all FN
    assert report.overall == EvalCounts(tp=1, fp=2, fn=1)
    assert report.by_optimization["O1"] == EvalCounts(tp=1)
    assert report.by_optimization["O3"] == EvalCounts(fn=1)
    assert report.by_optimization["untagged"] == EvalCounts(fp=2)
    assert report.by_name["f"].tp == 1
    assert report.unique_functions_recovered == 1


def test_score_recoveries_rejects_duplicates() -> None:
    rec = FunctionRecovery(FID[0], RecoveryMultiset())
    with pytest.raises(ValueError):
        score_recoveries([rec, rec], [])
    with pytest.raises(ValueError):
        score_recoveries([], [rec, rec])


def test_report_json_shape() -> None:
    report = EvalReport(
        EvalCounts(tp=2, fp=1),
        by_optimization={"O2": EvalCounts(tp=2, fp=1)},
        by_name={"f": EvalCounts(tp=2, fp=1)},
    )
    obj = report.as_json()
    assert obj["overall"]["tp"] == 2
    assert obj["overall"]["precision"] == pytest.approx(2 / 3)
    assert obj["by_optimization"]["O2"]["f1"] > 0
    assert obj["unique_functions_recovered"] == 1


def test_render_layout() -> None:
    report = EvalReport(
        EvalCounts(tp=3, fp=1, fn=1),
        by_optimization={"O2": EvalCounts(tp=2, fp=1), "O3": EvalCounts(tp=1, fn=1)},
    )
    text = report.render()
    lines = text.splitlines()
    assert lines[0].split() == ["tp", "fp", "fn", "tn", "precision", "recall", "f1"]
    assert lines[1].startswith("O2")
    assert lines[2].startswith("O3")
    assert lines[3].startswith("overall")
    assert "0.7500" in lines[3]  # precision 3/4
    assert lines[-1] == "unique functions recovered: 0"
    # columns align: the "tp" header column ends where each tp value ends
    col = lines[0].index("tp") + 2
    for row in lines[1:4]:
        assert row[col - 1].isdigit()

    assert report.render("none").splitlines()[1].startswith("overall")
    with pytest.raises(ValueError):
        report.render("bogus")


def _pearson_direct(xs, ys) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(
        sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)
    )
    return num / den


def test_pearson_matches_direct_formula(rng: np.random.Generator) -> None:
    xs = [float(x) for x in rng.normal(size=20)]
    ys = [float(0.3 * x + rng.normal()) for x in xs]
    assert pearson(xs, ys) == pytest.approx(_pearson_direct(xs, ys), abs=1e-12)


def test_pearson_linear_is_exactly_one() -> None:
    xs = [float(i) for i in range(1, 21)]
    assert pearson(xs, [2.5 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-12)
    assert pearson(xs, [-3 * x for x in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_undefined_cases() -> None:
    assert pearson([], []) is None
    assert pearson([1.0], [2.0]) is None
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None  # flat x
    assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None  # flat y
    with pytest.raises(ValueError):
        pearson([1.0], [1.0, 2.0])


def test_frequency_correlation() -> None:
    metrics = {
        "f": (10.0, 0.9, 0.8, 0.85),
        "g": (20.0, 0.7, 0.6, 0.65),
        "h": (30.0, 0.5, 0.4, 0.45),
    }
    report = frequency_correlation(metrics)
    assert report.points == 3
    freqs = [10.0, 20.0, 30.0]
    assert report.r_precision == pytest.approx(pearson(freqs, [0.9, 0.7, 0.5]))
    assert report.r_f1 == pytest.approx(-1.0, abs=1e-12)

    empty = frequency_correlation({})
    assert empty.points == 0
    assert empty.r_precision is None and empty.r_f1 is None

    flat = frequency_correlation({"f": (1.0, 0.5, 0.5, 0.5), "g": (2.0, 0.5, 0.6, 0.7)})
    assert flat.r_precision is None  # flat precision axis
    assert flat.r_recall == pytest.approx(1.0)


def test_write_report(tmp_path) -> None:
    report = EvalReport(EvalCounts(tp=1, fp=1))
    path = tmp_path / "report.json"
    write_report(path, report)
    obj = json.loads(path.read_text())
    assert obj["overall"]["precision"] == 0.5
