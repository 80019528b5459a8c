"""Every stage output of the benchmark's chains matches a checked-in digest.

Both chains of `perfbench/pipeline.py` run in-process on every workload at
seeds 1 and 2, and the sha256 of each `pipeline.OUTPUTS` file must equal
its entry in `golden_outputs.json`. The manifest is left out: it records
paths. A change that means to alter an output regenerates the table with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says in CHANGES.md which outputs moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import pipeline  # noqa: E402
import workloads  # noqa: E402
from uninline import cli  # noqa: E402

TABLE = Path(__file__).with_name("golden_outputs.json")
SEEDS = (1, 2)


def output_digests(root: Path, name: str, seed: int) -> dict:
    """Run both chains of workload `name` at `seed` under `root`; file -> sha256."""
    shape = workloads.SHAPES[name]
    workloads.generate(name, seed).write(root)
    pipeline.train_chain(root, shape)
    pipeline.infer_chain(root, shape)
    stage = pipeline.Stage(root)
    return {
        pipeline.FILES[key]: hashlib.sha256(Path(getattr(stage, key)).read_bytes()).hexdigest()
        for chain in ("train", "infer")
        for key in pipeline.OUTPUTS[chain]
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_stage_outputs_match_golden_digests(tmp_path, monkeypatch, name, seed) -> None:
    monkeypatch.setenv(cli.RUN_ROOT_ENV, str(tmp_path))
    expected = json.loads(TABLE.read_text(encoding="utf-8"))[f"{name} {seed}"]
    assert output_digests(tmp_path, name, seed) == expected


if __name__ == "__main__":
    import os
    import tempfile

    table = {}
    for name in sorted(workloads.SHAPES):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                os.environ[cli.RUN_ROOT_ENV] = tmp
                table[f"{name} {seed}"] = output_digests(Path(tmp), name, seed)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
