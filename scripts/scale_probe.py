"""Each stage's time and peak RSS on a benchmark workload scaled past its fixed size.

    # long-repeat with four times the bodies and a vocabulary limit of 2000
    python3 scripts/scale_probe.py --workload long-repeat --scale 4 --vocab-size 2000

The benchmark's workloads train vocabularies of 16-400 merges on a few
hundred bodies, so costs that grow with the vocabulary or the corpus
stay small there. This probe replaces the workload's shape in its own
process only (`dataclasses.replace` on `perfbench/workloads.SHAPES`:
train and held bodies times `--scale`, and `--vocab-size`), generates
its inputs for `--seed`, and runs `pipeline.train_chain` and
`pipeline.infer_chain` once untimed and then `--passes` times each,
with the checks of `perfbench/run.py` after every pass. For each CLI
stage and the in-process split it prints the median wall seconds and
the median CPU seconds (`RUSAGE_SELF` plus `RUSAGE_CHILDREN`, so the
external labeler's share counts) over the passes (`combine`, run twice
in a chain, pools both runs), and `ru_maxrss`, the process's high-water
mark, after the stage's last run. The probe and the labeler child it
starts run on one core, as `perfbench/run.py` pins them.

On a shared host wall time can swing by 2x from one minute to the next.
CPU time leaves out the time the probe waits for its core, but it still
moves when a neighbour slows the core itself. To compare two trees, run
the probe from each in alternating processes and compare the stages'
CPU medians. The stages a change does not touch are the control: if
their ratios read away from 1.00, the host moved under the batch, and
it is not valid.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _cpu_s() -> float:
    """User and system seconds of this process and of its waited-for children."""
    return sum(r.ru_utime + r.ru_stime for r in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=int, default=4, help="multiplies train and held bodies")
    parser.add_argument("--vocab-size", type=int, help="default: the workload's")
    parser.add_argument("--passes", type=int, default=3, help="timed train+infer passes")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pipeline  # imports uninline and numpy, as perfbench/run.py does
    import run
    import workloads
    from uninline import cli

    shape = workloads.SHAPES[args.workload]
    workloads.SHAPES[args.workload] = dataclasses.replace(
        shape,
        train_bodies=shape.train_bodies * args.scale,
        held_bodies=shape.held_bodies * args.scale,
        vocab_size=args.vocab_size or shape.vocab_size,
    )
    seconds: dict = defaultdict(list)  # (chain, stage) -> wall seconds of each timed run
    cpu: dict = defaultdict(list)  # (chain, stage) -> CPU seconds of each timed run
    maxrss: dict = {}  # (chain, stage) -> ru_maxrss after its last run, MB
    where = {"chain": "", "timed": False}

    def measured(name_of, call):
        def wrapper(*argv, **kwargs):
            t, c = perf_counter(), _cpu_s()
            try:
                return call(*argv, **kwargs)
            finally:
                key = (where["chain"], name_of(argv))
                if where["timed"]:
                    seconds[key].append(perf_counter() - t)
                    cpu[key].append(_cpu_s() - c)
                maxrss[key] = _maxrss_mb()
        return wrapper

    def chain(name, call):
        def wrapper(*argv, **kwargs):
            where["chain"] = name
            return call(*argv, **kwargs)
        return wrapper

    # patched in this process only: the chains look these names up when they run
    cli.run = measured(lambda argv: argv[0][0], cli.run)
    pipeline.split = measured(lambda argv: "split", pipeline.split)
    pipeline.train_chain = chain("train", pipeline.train_chain)
    pipeline.infer_chain = chain("infer", pipeline.infer_chain)

    with contextlib.suppress(OSError):  # children inherit the mask
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    base = Path(tempfile.mkdtemp(prefix="scale-probe-"))
    try:
        bench = run.Bench(pipeline, args.workload, args.seed, base)
        _, root, work = bench.setup(0)
        where["timed"] = True
        for _ in range(args.passes):
            bench.run("train", root, work)
            bench.run("infer", root, work)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"{args.workload} x{args.scale} seed {args.seed}, vocab_size "
          f"{workloads.SHAPES[args.workload].vocab_size}: {work.train.lines} train and "
          f"{work.held.lines} held lines, {args.passes} passes; checks failed: {bench.failed}")
    print(f"{'chain':5} {'stage':10} {'median s':>9} {'cpu s':>9} {'maxrss MB':>10}")
    for key, values in seconds.items():
        print(f"{key[0]:5} {key[1]:10} {statistics.median(values):9.3f} "
              f"{statistics.median(cpu[key]):9.3f} {maxrss[key]:10.1f}")
    return 1 if bench.failed else 0


if __name__ == "__main__":
    sys.exit(main())
