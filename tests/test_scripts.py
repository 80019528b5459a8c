"""Smoke runs of the evidence scripts under scripts/ on the smallest workload."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the CLI stages of each benchmark chain, and the in-process split
STAGES = {("train", stage) for stage in
          ("split", "reconcile", "windows", "rebalance", "bpe-train", "fit")} | \
         {("infer", stage) for stage in
          ("split", "reconcile", "windows", "predict", "coalesce", "combine", "score")}


def _run(script: str, *args: str) -> str:
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "checks failed: 0" in done.stdout
    return done.stdout


def _stages(lines) -> set:
    return {tuple(line.split()[:2]) for line in lines}


def test_scale_probe_times_every_stage() -> None:
    out = _run("scale_probe.py", "--workload", "long-repeat", "--scale", "1", "--passes", "1")
    table = out.splitlines()[2:]  # after the summary line and the column heads
    assert _stages(table) == STAGES


def test_stage_rss_lists_every_stage_in_both_phases() -> None:
    out = _run("stage_rss.py", "--workload", "long-repeat", "--passes", "1")
    setup, passes = out.split("\nsetup: ", 1)[1].split("\npass: ", 1)
    for summary in (setup, passes):
        assert _stages(line for line in summary.splitlines() if line.startswith("  ")) == STAGES
