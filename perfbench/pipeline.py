"""The two CLI chains the benchmark times, and the checks run after them.

Both chains start from raw pseudo-C. `corpus.split_functions` has no CLI
stage yet, so the chains call it directly and write function records;
every later stage goes through `uninline.cli.run`, in this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from collections import Counter
from pathlib import Path

from uninline import cli, coalesce, combine, corpus, evaluate, jsonl, windows

import workloads

LABELER = Path(__file__).resolve().parent / "labeler.py"


class Stage:
    """Paths of one workload's working directory."""

    def __init__(self, root: Path):
        self.root = root

    def __getattr__(self, name: str) -> str:
        return str(self.root / FILES[name])


FILES = {
    "targets": "targets.tsv",
    "train_funcs": "train_funcs.jsonl",
    "train_labeled": "train_labeled.jsonl",
    "train_windows": "train_windows.jsonl",
    "train_set": "train_set.jsonl",
    "vocab": "vocab.txt",
    "model": "model.json",
    "held_funcs": "held_funcs.jsonl",
    "held_labeled": "held_labeled.jsonl",
    "truth": "truth.jsonl",
    "plain": "plain.jsonl",
    "held_windows": "held_windows.jsonl",
    "labels": "labels.jsonl",
    "model_rec": "model_rec.jsonl",
    "final": "final.jsonl",
    "full_truth": "full_truth.jsonl",
    "report": "report.json",
}


# stage outputs of each chain, compared across passes for determinism
OUTPUTS = {
    "train": ("train_funcs", "train_labeled", "train_windows", "train_set", "vocab", "model"),
    "infer": ("held_funcs", "held_labeled", "truth", "plain", "held_windows", "labels",
              "model_rec", "final", "full_truth", "report"),
}


def digest(root: Path, chain: str) -> str:
    """sha256 over a chain's stage outputs and its manifest lines."""
    h = hashlib.sha256()
    for key in OUTPUTS[chain]:
        h.update(Path(getattr(Stage(root), key)).read_bytes())
    h.update((root / cli.MANIFEST_NAME).read_bytes())
    return h.hexdigest()


class StageError(RuntimeError):
    pass


def _cli(*argv: str) -> None:
    # stage summaries go to a buffer: the benchmark's stdout ends in its result line
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(list(argv))
    if rc != 0:
        raise StageError(f"uninline {argv[0]} exited {rc}")


def split(root: Path, split_name: str, out: str) -> None:
    """Carve every pseudo-C file of a split into function records."""
    records = []
    for path in sorted((root / split_name).glob("*.c")):
        source = corpus.SourceFile(
            path=f"{split_name}/{path.name}",
            content=path.read_bytes(),
            language=corpus.Language.PSEUDO_C,
        )
        records += corpus.split_functions(source)
    corpus.write_functions(out, records)


def train_chain(root: Path, shape: workloads.Shape) -> None:
    s = Stage(root)
    split(root, "train", s.train_funcs)
    _cli("reconcile", "--functions", s.train_funcs, "--targets", s.targets,
         "--out", s.train_labeled)
    _cli("windows", "--functions", s.train_labeled, "--out", s.train_windows)
    _cli("rebalance", "--windows", s.train_windows, "--out", s.train_set,
         "--discard-fraction", "0.9", "--seed", "1")
    _cli("bpe-train", "--functions", "--out", s.vocab,
         "--vocab-size", str(shape.vocab_size),
         "--min-frequency", str(shape.min_frequency), s.train_labeled)
    _cli("fit", "--kind", "token-stats", "--windows", s.train_set, "--vocab", s.vocab,
         "--out", s.model)


def labeler_command(model: str) -> str:
    return shlex.join([sys.executable, "-B", str(LABELER), model])


def infer_chain(root: Path, shape: workloads.Shape) -> None:
    s = Stage(root)
    split(root, "held", s.held_funcs)
    _cli("reconcile", "--functions", s.held_funcs, "--targets", s.targets,
         "--out", s.held_labeled, "--optlevel", "O2",
         "--truth-out", s.truth, "--recovered-out", s.plain)
    _cli("windows", "--functions", s.held_labeled, "--out", s.held_windows)
    if shape.external:
        _cli("predict", "--windows", s.held_windows, "--out", s.labels, "--vocab", s.vocab,
             "--targets", s.targets, "--external", labeler_command(s.model))
    else:
        _cli("predict", "--windows", s.held_windows, "--out", s.labels,
             "--model", s.model, "--vocab", s.vocab)
    _cli("coalesce", "--labels", s.labels, "--out", s.model_rec, "--optlevel", "O2")
    _cli("combine", "--model", s.model_rec, "--decompiler", s.plain, "--out", s.final)
    _cli("combine", "--model", s.truth, "--decompiler", s.plain, "--out", s.full_truth)
    _cli("score", "--pred", s.final, "--truth", s.full_truth, "--report", s.report)


def run_root(root: Path):
    """Point the CLI's manifest at `root` and start it empty."""
    os.environ[cli.RUN_ROOT_ENV] = str(root)
    with contextlib.suppress(FileNotFoundError):
        (root / cli.MANIFEST_NAME).unlink()


# ---- checks, run outside the timed regions -------------------------------


def _ids(path: str, key: str) -> set:
    return {tuple(obj[key]) for obj in jsonl.read_jsonl(path)}


def _planted(bodies) -> dict:
    return {(b.path, b.name, b.ordinal): b for b in bodies}


def _recount(final: str, planted: dict) -> Counter:
    """tp/fp/fn/tn of the final records against planted truth plus plain calls."""
    total = Counter()
    for obj in jsonl.read_jsonl(final):
        body = planted[tuple(obj["func_id"])]
        pred = Counter(obj["counts"])
        gold = body.truth + body.plain
        for name in pred.keys() | gold.keys():
            total["tp"] += min(pred[name], gold[name])
            total["fp"] += max(0, pred[name] - gold[name])
            total["fn"] += max(0, gold[name] - pred[name])
        total["tn"] += not +pred and not gold
    return total


def check_train(root: Path, work: workloads.Workload) -> set:
    """Ids of training functions whose records disagree with the planted truth."""
    s = Stage(root)
    planted = _planted(work.train.bodies)
    failed = set()
    for path, key in (
        (s.train_funcs, "id"), (s.train_labeled, "id"), (s.train_windows, "func_id"),
    ):
        failed |= set(planted) ^ _ids(path, key)
    for obj in jsonl.read_jsonl(s.train_labeled):
        fid = tuple(obj["id"])
        body = planted.get(fid)
        if body is None:
            failed.add(fid)
            continue
        truth = Counter(name for name, _ in obj["true_labels"])
        if truth != body.truth or Counter(obj["recovered"]) != body.plain:
            failed.add(fid)
    return failed


def check_infer(root: Path, work: workloads.Workload) -> set:
    """Ids of held-out functions that fail any check; {"report"} if the score is off."""
    s = Stage(root)
    planted = _planted(work.held.bodies)
    failed = set()
    for path, key in (
        (s.held_funcs, "id"), (s.held_labeled, "id"), (s.truth, "func_id"),
        (s.plain, "func_id"), (s.held_windows, "func_id"), (s.labels, "func_id"),
        (s.model_rec, "func_id"), (s.final, "func_id"), (s.full_truth, "func_id"),
    ):
        failed |= set(planted) ^ _ids(path, key)
    for path, attr in ((s.truth, "truth"), (s.plain, "plain")):
        for obj in jsonl.read_jsonl(path):
            fid = tuple(obj["func_id"])
            if fid in planted and Counter(obj["counts"]) != getattr(planted[fid], attr):
                failed.add(fid)
    report = json.loads(Path(s.report).read_text(encoding="utf-8"))["overall"]
    recount = _recount(s.final, planted)
    if any(report[k] != recount[k] for k in ("tp", "fp", "fn", "tn")):
        failed.add("report")
    return failed


def f1(root: Path) -> float:
    return json.loads(Path(Stage(root).report).read_text(encoding="utf-8"))["overall"]["f1"]


def oracle_f1(root: Path) -> float:
    """F1 when every window carries its true label: the coalescing cap."""
    s = Stage(root)
    labeled = corpus.read_functions(s.held_labeled)
    spec = windows.WindowSpec()
    model = [
        combine.FunctionRecovery(
            fn.id,
            coalesce.coalesce([w.label for w in windows.scan_windows(fn, spec)]),
            "O2",
        )
        for fn in labeled
    ]
    final = combine.combine_recoveries(model, combine.read_recoveries(s.plain))
    return evaluate.score_recoveries(final, combine.read_recoveries(s.full_truth)).f1


def properties(root: Path) -> dict:
    """Workload properties that later claims cite, measured on the outputs."""
    s = Stage(root)
    held = corpus.read_functions(s.held_labeled)
    one_window = sum(1 for fn in held if len(fn.lines) <= windows.DEFAULT_HEIGHT)
    size = os.path.getsize
    return {
        "one_window_share": one_window / len(held),
        "train_amplification": size(s.train_windows) / size(s.train_labeled),
        "infer_amplification": size(s.held_windows) / size(s.held_labeled),
    }
