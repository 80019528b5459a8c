"""In-process A/B of two checkouts' BPE trainers on the benchmark workloads' training text.

    # the parent's trainer against this one's, at each workload's own limit and at 2000
    python3 scripts/train_ab.py ../parent . --scale 1 --scale 4 --vocab-size own \
        --vocab-size 2000

The training text of each workload is what `bpe-train --functions`
reads in the benchmark's train chain, built as `scripts/scale_probe.py`
builds it: the workload's shape is replaced in this process only (train
and held bodies times `--scale`, and the vocabulary limit), the inputs
of its last set-up are generated for `--seed`, and this checkout's
`split` and `reconcile` write the labeled function records, whose
bodies are the documents.

Each checkout's `src/uninline/bpe.py` is loaded as a module of its own
(with the `jsonl.py` beside it), so both trainers run in one process on
one text, and only the trainer is timed. The sides alternate, PARENT
first in even rounds and CHANGE first in odd ones, and each run's CPU
seconds (`time.process_time`) are kept. For each case the script
prints the minimum of each side's runs, in ms, and their ratio
(change / parent), and checks that the two merge lists are equal. It
exits 1 if any case's merges differ. The process runs on one core, as
`perfbench/run.py` pins itself.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import os
import shutil
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _limit(text: str) -> int | None:
    """A vocabulary limit, or None for "own": the workload's limit."""
    if text == "own":
        return None
    value = int(text)
    if value <= 256:
        raise argparse.ArgumentTypeError(f"must exceed 256, or be 'own', not {value}")
    return value


def load_bpe(checkout: Path, alias: str) -> types.ModuleType:
    """`checkout`'s `uninline.bpe`, imported as `<alias>.bpe` without the package's
    `__init__`, so two checkouts' modules live side by side."""
    package = types.ModuleType(alias)
    package.__path__ = [str(checkout / "src" / "uninline")]
    sys.modules[alias] = package
    return importlib.import_module(f"{alias}.bpe")


def training_texts(workload: str, seed: int, scale: int, base: Path) -> list[str]:
    """The bodies `bpe-train --functions` trains on in the workload's train chain."""
    import pipeline
    import run
    import workloads
    from uninline import corpus

    shape = workloads.SHAPES[workload]
    workloads.SHAPES[workload] = dataclasses.replace(
        shape, train_bodies=shape.train_bodies * scale, held_bodies=shape.held_bodies * scale)
    try:
        work = workloads.generate(workload, seed, run.SETUPS - 1)
    finally:
        workloads.SHAPES[workload] = shape
    root = base / f"{workload}-x{scale}"
    work.write(root)
    pipeline.run_root(root)
    s = pipeline.Stage(root)
    pipeline.split(root, "train", s.train_funcs)
    pipeline._cli("reconcile", "--functions", s.train_funcs, "--targets", s.targets,
                  "--out", s.train_labeled)
    return [rec.text or "" for rec in corpus.iter_functions(s.train_labeled)]


def compare(modules: dict, texts: list[str], vocab_size: int, min_frequency: int,
            rounds: int) -> tuple[dict, dict]:
    """Each side's minimum `train_bpe` CPU seconds over `rounds` alternating runs,
    and its merges."""
    cpu: dict = {side: [] for side in SIDES}
    merges: dict = {}
    for k in range(rounds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            gc.collect()
            t = time.process_time()
            vocab = modules[side].train_bpe(texts, vocab_size=vocab_size,
                                            min_frequency=min_frequency)
            cpu[side].append(time.process_time() - t)
            merges[side] = vocab.merges
    return {side: min(seconds) for side, seconds in cpu.items()}, merges


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--scale", type=_positive, action="append",
                        help="multiplies train bodies (repeatable; default 1)")
    parser.add_argument("--vocab-size", type=_limit, action="append",
                        help="a limit, or 'own' for the workload's (repeatable; default own)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=_positive, default=10,
                        help="alternating runs per side of each case")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    modules = {side: load_bpe(getattr(args, side).resolve(), f"_train_ab_{side}")
               for side in SIDES}
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = args.workload or list(workloads.SHAPES)
    unknown = sorted(set(names) - set(workloads.SHAPES))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.SHAPES)}")
    differ = 0
    print(f"{'workload':14} {'scale':>5} {'limit':>5} {'bytes':>8} {'merges':>6} "
          f"{'parent ms':>9} {'change ms':>9} {'ratio':>6}  merges")
    base = Path(tempfile.mkdtemp(prefix="train-ab-"))
    try:
        for name in names:
            shape = workloads.SHAPES[name]
            for scale in args.scale or [1]:
                texts = training_texts(name, args.seed, scale, base)
                size = sum(len(text.encode("utf-8", "surrogateescape")) for text in texts)
                for limit in args.vocab_size or [None]:
                    limit = limit or shape.vocab_size
                    best, merges = compare(modules, texts, limit, shape.min_frequency,
                                           args.rounds)
                    equal = merges["parent"] == merges["change"]
                    differ += not equal
                    print(f"{name:14} {scale:5d} {limit:5d} {size:8d} "
                          f"{len(merges['change']):6d} "
                          f"{best['parent'] * 1e3:9.2f} {best['change'] * 1e3:9.2f} "
                          f"{best['change'] / best['parent']:6.3f}  "
                          f"{'equal' if equal else 'DIFFER'}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
