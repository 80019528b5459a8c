"""Tests of the benchmark itself: inputs, checks, labeler and tracing.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from uninline import bpe, classify, cli, corpus, ctext, markers, windows  # noqa: E402


@pytest.fixture(autouse=True)
def run_root(tmp_path, monkeypatch):
    # pipeline.run_root sets the variable; monkeypatch puts the old value back
    monkeypatch.setenv(cli.RUN_ROOT_ENV, str(tmp_path))


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few bodies so a pass takes well under a second."""
    for name, shape in workloads.SHAPES.items():
        monkeypatch.setitem(workloads.SHAPES, name, dataclasses.replace(
            shape,
            train_bodies=min(shape.train_bodies, 2 * shape.bodies_per_file),
            held_bodies=min(shape.held_bodies, shape.bodies_per_file),
            vocab_size=min(shape.vocab_size, 256 + 16),
        ))


def _workdir(tmp_path: Path, name: str, seed: int = 1):
    work = workloads.generate(name, seed)
    root = tmp_path / name
    work.write(root)
    pipeline.run_root(root)
    return work, root


def _structure(work) -> dict:
    """Counts that must not depend on the seed, taken through the library."""
    targets = frozenset(workloads.TARGETS)
    out = Counter()
    for split in (work.train, work.held):
        for rel, content in split.files.items():
            source = corpus.SourceFile(rel, content, corpus.Language.PSEUDO_C)
            out["lines"] += len(source.lines)
            for fn in corpus.split_functions(source):
                out["functions"] += 1
                out["body_lines"] += len(fn.lines)
                out["calls"] += len(ctext.find_call_sites(fn.lines, targets))
                out["markers"] += len(markers.extract_markers(fn))
    return out


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_same_seed_gives_identical_inputs(name) -> None:
    first, again = workloads.generate(name, 5), workloads.generate(name, 5)
    assert first.train.files == again.train.files
    assert first.held.files == again.held.files
    assert first.targets_tsv == again.targets_tsv
    assert workloads.generate(name, 6).held.files != first.held.files


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_seeds_share_line_function_and_call_counts(name) -> None:
    a, b = workloads.generate(name, 1), workloads.generate(name, 2)
    assert _structure(a) == _structure(b)
    assert a.train.lines == b.train.lines and a.held.lines == b.held.lines
    assert _structure(a)["functions"] == len(a.train.bodies) + len(a.held.bodies)


def test_planted_truth_follows_the_reconcile_rule() -> None:
    work = workloads.generate("long-repeat", 3)
    targets = corpus.TargetFunctionSet.from_names(workloads.TARGETS)
    by_key = {(b.path, b.name, b.ordinal): b for b in work.train.bodies}
    for rel, content in work.train.files.items():
        source = corpus.SourceFile(rel, content, corpus.Language.PSEUDO_C)
        for fn in corpus.split_functions(source):
            planted = by_key[tuple(fn.id)]
            labeled = markers.reconcile_function(fn, targets)
            assert labeled.true_counts == planted.truth
            assert labeled.recovered_counts == planted.plain


def test_checks_pass_on_a_clean_pass_and_catch_tampering(tmp_path, small) -> None:
    work, root = _workdir(tmp_path, "vocab-heavy")
    shape = workloads.SHAPES["vocab-heavy"]
    pipeline.train_chain(root, shape)
    pipeline.infer_chain(root, shape)
    assert pipeline.check_train(root, work) == set()
    assert pipeline.check_infer(root, work) == set()

    truth = Path(pipeline.Stage(root).truth)
    records = [json.loads(line) for line in truth.read_text().splitlines()]
    records[0]["counts"] = {"memset": 99}
    truth.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert tuple(records[0]["func_id"]) in pipeline.check_infer(root, work)

    report = Path(pipeline.Stage(root).report)
    obj = json.loads(report.read_text())
    obj["overall"]["tp"] += 1
    report.write_text(json.dumps(obj))
    assert "report" in pipeline.check_infer(root, work)


def test_external_labeler_agrees_with_in_process_prediction(tmp_path, small) -> None:
    work, root = _workdir(tmp_path, "short-distinct")
    pipeline.train_chain(root, workloads.SHAPES["short-distinct"])
    stage = pipeline.Stage(root)
    pipeline.split(root, "held", stage.held_funcs)
    targets = corpus.load_targets(stage.targets)
    spec = windows.WindowSpec()
    held = [
        w
        for fn in corpus.read_functions(stage.held_funcs)
        for w in windows.scan_windows(markers.reconcile_function(fn, targets), spec)
    ]
    vocab = bpe.load_vocab(stage.vocab)
    model = classify.load_model(stage.model, vocab)
    expected = [classify.predict_token_stats(model, w) for w in held]
    argv = shlex.split(pipeline.labeler_command(stage.model))
    with classify.spawn_external(argv, vocab) as client:
        got = client.predict(held)
    assert got == expected
    assert len(set(expected)) > 1


def test_traced_and_untraced_passes_write_identical_outputs(tmp_path, small) -> None:
    work, root = _workdir(tmp_path, "long-repeat")
    shape = workloads.SHAPES["long-repeat"]
    untraced = {}
    for chain, fn in (("train", pipeline.train_chain), ("infer", pipeline.infer_chain)):
        pipeline.run_root(root)
        fn(root, shape)
        untraced[chain] = pipeline.digest(root, chain)

    tracer = tracing.Tracer()
    for chain, fn in (("train", pipeline.train_chain), ("infer", pipeline.infer_chain)):
        pipeline.run_root(root)
        restore = tracer.install()
        tracer.begin_chain(chain)
        try:
            fn(root, shape)
        finally:
            restore()
        assert pipeline.digest(root, chain) == untraced[chain]

    names = {s.name for s in tracer.spans}
    assert {"cli", "bpe.encode", "classify.predict_token_stats", "jsonl.read_jsonl"} <= names
    assert bpe.encode.__module__ == "uninline.bpe" and classify.encode is bpe.encode
    assert all(s.self_s >= -1e-6 for s in tracer.spans)
    assert tracer.count("infer", "bpe.encode.calls") == tracer.count(
        "infer", "classify.predict_token_stats.calls")


def test_benchmark_json_names_what_run_reports() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SHAPES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
