"""The evidence scripts under scripts/: a smoke run of the stage probe on the smallest
workload, and the summary that `bench_pairs.py` writes from synthetic run files."""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_pairs  # noqa: E402

# the CLI stages of each benchmark chain, and the in-process split
STAGES = {("train", stage) for stage in
          ("split", "reconcile", "windows", "rebalance", "bpe-train", "fit")} | \
         {("infer", stage) for stage in
          ("split", "reconcile", "windows", "predict", "coalesce", "combine", "score")}


def _probe(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_probe.py"), *args],
                          capture_output=True, text=True, timeout=120)


@functools.cache
def _probe_smallest() -> tuple[str, list[list[str]]]:
    """The live step lines and the split table rows of one probe pass on long-repeat x1,
    run once for the tests that read them."""
    done = _probe("--workload", "long-repeat", "--scale", "1", "--passes", "1")
    assert done.returncode == 0, done.stderr
    head, table = done.stdout.split("\nchain ", 1)
    live, _, summary = head.rpartition("\n\n")
    assert "3 set-ups and 1 passes, then one traced pass" in summary
    assert "checks failed: 0" in summary
    return live, [line.split() for line in table.splitlines()[1:]]


def test_scale_probe_times_every_stage() -> None:
    _, rows = _probe_smallest()
    assert {tuple(row[:2]) for row in rows} == STAGES and len(rows) == len(STAGES)
    for row in rows:
        # median s, cpu s, maxrss MB, the set-up and pass steps and their kB, traced kB
        assert len(row) == 10 and all(float(value) >= 0 for value in row[2:5]), row


def test_stage_rss_lists_every_stage_in_both_phases() -> None:
    live, rows = _probe_smallest()
    # each live step line names its phase, chain and stage, and the mark it rose to
    for line in live.splitlines():
        phase, chain, stage, mark, kb, *_ = line.split()
        assert phase in ("setup", "pass") and (chain, stage) in STAGES and kb == "kB", line
    # every stage has a step count and kB for the set-ups and for the passes
    assert {tuple(row[:2]) for row in rows} == STAGES
    for row in rows:
        assert len(row) == 10 and all(value.isdigit() for value in row[5:9]), row


def test_scale_probe_traces_every_stage() -> None:
    _, rows = _probe_smallest()
    traced = {tuple(row[:2]): row[9] for row in rows}
    assert traced.keys() == STAGES and all(kb.isdigit() for kb in traced.values()), traced
    # bpe-train holds its token stream, 4 bytes per byte of training text
    assert int(traced["train", "bpe-train"]) > 0


def test_scale_probe_refuses_zero_passes() -> None:
    done = _probe("--workload", "long-repeat", "--scale", "1", "--passes", "0")
    assert done.returncode != 0
    assert "--passes" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""


def _runs(runs: Path, name: str, values: list[float]) -> None:
    metric = bench_pairs.BENCHMARK["end_to_end"][0]["name"]
    (runs / name).write_text("".join(
        json.dumps({"correct": True, "metrics": {
            m["name"]: {"value": value if m["name"] == metric else 1.0}
            for m in bench_pairs.BENCHMARK["end_to_end"]}}) + "\n" for value in values))


def test_bench_pairs_summarize(tmp_path) -> None:
    metric = bench_pairs.BENCHMARK["end_to_end"][0]
    higher = metric["better"] == "higher"
    _runs(tmp_path, "long-repeat-s1.parent.jsonl", [10.0, 20.0, 30.0])
    # the change wins pair 0, ties pair 1 and loses pair 2, whichever way is better
    change = [11.0, 20.0, 25.0] if higher else [9.0, 20.0, 35.0]
    _runs(tmp_path, "long-repeat-s1.change.jsonl", change)
    _runs(tmp_path, "long-repeat-s3.parent.jsonl", [4.0])
    _runs(tmp_path, "long-repeat-s3.change.jsonl", [5.0])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["summarize", "--runs", str(tmp_path), "--out", str(out),
                             "--parent-commit", "abc1234"]) == 0
    summary = json.loads(out.read_text())
    main = summary["workloads"]["long-repeat"]
    assert main["seed"] == 1 and main["pairs"] == 3 and main["all_checks_correct"]
    found = main["metrics"][metric["name"]]
    assert found["parent"] == {"median": 20.0, "q1": 10.0, "q3": 30.0, "runs": [10, 20, 30]}
    assert found["change"] == {"median": 20.0, "q1": change[0], "q3": change[2], "runs": change}
    assert (found["change_better_pairs"], found["tied_pairs"]) == (1, 1)
    assert found["median_ratio"] == 1.0
    assert (found["gain_shown"], found["bound"]) == (False, "unresolved")
    held = summary["held_out"]["long-repeat-s3"]
    assert held["seed"] == 3 and held["pairs"] == 1
    assert held["metrics"][metric["name"]]["median_ratio"] == 1.25


_PARENT = [98.0, 99.0, 100.0, 101.0, 102.0, 100.0, 99.0, 101.0, 100.0, 100.0]
_WIDE = [60.0 + 10 * i for i in range(10)]


@pytest.mark.parametrize("parent, change, gain_shown, bound", [
    (_PARENT, [v + 10 for v in _PARENT], True, "within"),
    # ties count for neither side: 8 wins of 10
    (_PARENT, [v + 10 for v in _PARENT[:8]] + _PARENT[8:], False, "within"),
    # better in 10 of 10 pairs, but by less than the parent's quartile distance
    (_PARENT, [v + 1 for v in _PARENT], False, "within"),
    (_PARENT, [v - 20 for v in _PARENT], False, "within"),
    (_PARENT, [v - 30 for v in _PARENT], False, "worse"),
    (_PARENT, [60.0, 140.0] * 5, False, "unresolved"),
    (_WIDE, [v - 5 for v in _WIDE], False, "unresolved"),
    # every change run beats every parent run, however wide the spread
    (_WIDE, [v + 200 for v in _WIDE], True, "within"),
], ids=["gain", "ties", "small-gain", "small-loss", "worse", "change-spread", "parent-spread",
        "clear-gain"])
def test_bench_pairs_summarize_verdicts(tmp_path, parent, change, gain_shown, bound) -> None:
    """Cases around a median of 100 with a bound of 0.25, mirrored when lower is better."""
    metric = bench_pairs.BENCHMARK["end_to_end"][0]
    assert metric["bound"] == 0.25
    if metric["better"] == "lower":
        parent, change = [400 - v for v in parent], [400 - v for v in change]
    _runs(tmp_path, "long-repeat-s1.parent.jsonl", parent)
    _runs(tmp_path, "long-repeat-s1.change.jsonl", change)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["summarize", "--runs", str(tmp_path), "--out", str(out),
                             "--parent-commit", "abc1234"]) == 0
    found = json.loads(out.read_text())["workloads"]["long-repeat"]["metrics"][metric["name"]]
    assert (found["gain_shown"], found["bound"]) == (gain_shown, bound)


def test_bench_pairs_summarize_refuses_unpaired_runs(tmp_path) -> None:
    _runs(tmp_path, "long-repeat-s1.parent.jsonl", [10.0, 20.0])
    _runs(tmp_path, "long-repeat-s1.change.jsonl", [10.0])
    with pytest.raises(ValueError, match="2 parent runs against 1 change runs"):
        bench_pairs.main(["summarize", "--runs", str(tmp_path), "--out",
                          str(tmp_path / "BENCH.json"), "--parent-commit", "abc1234"])


def _train_ab(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "train_ab.py"), str(parent),
                           str(change), "--workload", "long-repeat", "--rounds", "2"],
                          capture_output=True, text=True, timeout=120)


def test_train_ab_times_one_checkout_against_itself() -> None:
    done = _train_ab(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()
    assert header.split() == ["workload", "scale", "limit", "bytes", "merges", "parent", "ms",
                              "change", "ms", "ratio", "merges"]
    name, scale, limit, size, merges, parent_ms, change_ms, ratio, equal = row.split()
    assert (name, scale, limit, equal) == ("long-repeat", "1", "288", "equal")
    assert int(size) > 0 and int(merges) > 0
    assert float(parent_ms) > 0 and float(change_ms) > 0 and float(ratio) > 0


def test_train_ab_exits_1_when_the_merges_differ(tmp_path) -> None:
    """A trainer that drops its last merge is caught, whatever its speed."""
    package = tmp_path / "src" / "uninline"
    package.mkdir(parents=True)
    for name in ("bpe.py", "jsonl.py"):
        (package / name).write_text((ROOT / "src" / "uninline" / name).read_text())
    source = (package / "bpe.py").read_text()
    assert source.count("return BpeVocab(tuple(merges),") == 1
    (package / "bpe.py").write_text(
        source.replace("return BpeVocab(tuple(merges),", "return BpeVocab(tuple(merges[:-1]),"))
    done = _train_ab(ROOT, tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[1].split()[-1] == "DIFFER"
