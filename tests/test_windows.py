"""Window extraction, labeling, and rebalancing."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_body
from uninline.corpus import DecompiledFunction, FunctionId
from uninline.windows import (
    EMPTY,
    WindowInstance,
    WindowSpec,
    read_windows,
    rebalance,
    scan_windows,
    write_windows,
)

SCAN20 = WindowSpec(height=20)


def test_window_count_law() -> None:
    for length in (1, 5, 19, 20, 21, 40, 100):
        body = make_body("f", length)
        assert len(scan_windows(body, SCAN20)) == max(1, length - 20 + 1)


def test_empty_body_gives_no_windows() -> None:
    body = DecompiledFunction(FunctionId("x.c", "f", 0), ())
    assert scan_windows(body, SCAN20) == []


def test_thirty_line_body_marker_at_8() -> None:
    body = make_body("f", 30, labels=(("memset", 8),))
    ws = scan_windows(body, SCAN20)
    assert len(ws) == 11
    labeled = [w.start for w in ws if w.label == "memset"]
    assert labeled == list(range(0, 9))
    assert [w.start for w in ws if w.label == EMPTY] == [9, 10]


def test_short_body_single_window() -> None:
    body = make_body("f", 5)
    ws = scan_windows(body, SCAN20)
    assert len(ws) == 1
    assert ws[0].start == 0
    assert ws[0].label == EMPTY
    assert len(ws[0].lines) == 5


def test_smallest_anchor_wins_then_name() -> None:
    body = make_body("f", 25, labels=(("zeta", 10), ("alpha", 12)))
    ws = scan_windows(body, SCAN20)
    by_start = {w.start: w.label for w in ws}
    assert by_start[0] == "zeta"  # anchor 10 beats anchor 12
    same_line = make_body("g", 25, labels=(("zeta", 10), ("alpha", 10)))
    ws = scan_windows(same_line, SCAN20)
    assert ws[0].label == "alpha"  # tie on anchor broken by name


def test_labels_match_brute_force(rng) -> None:
    names = ["a", "b", "c", "d"]
    for _ in range(200):
        length = int(rng.integers(1, 60))
        n_marks = int(rng.integers(0, 4))
        labels = tuple(
            (names[int(rng.integers(0, 4))], int(rng.integers(0, length)))
            for _ in range(n_marks)
        )
        body = make_body("f", length, labels=labels)
        ws = scan_windows(body, SCAN20)
        for w in ws:
            end = min(w.start + 20, length)
            inside = [(a, n) for n, a in labels if w.start <= a < end]
            want = min(inside)[1] if inside else EMPTY
            assert w.label == want


def test_marker_lines_excluded_from_text() -> None:
    lines = (
        "void f(void) {",
        '  funcmark_ab[0] = "FUNCMARK:memset";',
        "  zero_it(p);",
        "}",
    )
    body = DecompiledFunction(
        FunctionId("x.c", "f", 0), lines, true_labels=(("memset", 1),)
    )
    ws = scan_windows(body, SCAN20)
    assert ws[0].label == "memset"
    assert ws[0].lines == ("void f(void) {", "  zero_it(p);", "}")


def test_stride_skips_starts() -> None:
    body = make_body("f", 30)
    ws = scan_windows(body, WindowSpec(height=20, stride=5))
    assert [w.start for w in ws] == [0, 5, 10]


def test_spec_validation() -> None:
    with pytest.raises(ValueError):
        WindowSpec(height=0)
    with pytest.raises(ValueError):
        WindowSpec(stride=0)


def _pool(n_empty: int, n_labeled: int) -> list[WindowInstance]:
    fid = FunctionId("x.c", "f", 0)
    pool = [WindowInstance(fid, i, "line", EMPTY) for i in range(n_empty)]
    pool += [WindowInstance(fid, 1000 + i, "line", "memset") for i in range(n_labeled)]
    return pool


def test_rebalance_keeps_all_labeled() -> None:
    pool = _pool(500, 40)
    kept = rebalance(pool, discard_fraction=0.65, seed=3)
    assert sum(1 for w in kept if w.label != EMPTY) == 40


def test_rebalance_fraction_zero_is_identity() -> None:
    pool = _pool(50, 5)
    assert rebalance(pool, discard_fraction=0.0, seed=1) == pool


def test_rebalance_reproducible_and_order_preserving() -> None:
    pool = _pool(300, 10)
    a = rebalance(pool, 0.65, seed=9)
    b = rebalance(pool, 0.65, seed=9)
    assert a == b
    starts = [w.start for w in a if w.label == EMPTY]
    assert starts == sorted(starts)


def test_rebalance_kept_count_within_binomial_bound() -> None:
    n = 10_000
    pool = _pool(n, 0)
    kept = len(rebalance(pool, 0.65, seed=123))
    mean = n * 0.35
    sigma = (n * 0.35 * 0.65) ** 0.5
    assert abs(kept - mean) <= 3 * sigma


def test_rebalance_rejects_bad_fraction() -> None:
    with pytest.raises(ValueError):
        rebalance([], discard_fraction=1.0, seed=0)


def test_window_records_roundtrip(tmp_path) -> None:
    body = make_body("f", 25, labels=(("memset", 3),))
    ws = scan_windows(body, SCAN20)
    # at height 1, the window of the empty line is the empty text
    gap = DecompiledFunction(FunctionId("x.c", "g", 0), ("{", "", "}"))
    ws += scan_windows(gap, WindowSpec(height=1))
    assert [w.text for w in ws[-3:]] == ["{", "", "}"]
    path = tmp_path / "windows.jsonl"
    write_windows(path, ws)
    assert read_windows(path) == ws


def test_window_record_fields(tmp_path) -> None:
    w = WindowInstance(FunctionId("a.c", "f", 0), 4, "x\ny", "memset")
    obj = w.as_json()
    assert set(obj) == {"func_id", "start", "label", "text"}
    assert obj["text"] == "x\ny"
    assert WindowInstance.from_json(obj) == w
