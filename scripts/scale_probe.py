"""Each stage's time, peak RSS and peak-RSS steps on a benchmark workload, scaled or not.

    # long-repeat with four times the bodies and a vocabulary limit of 2000
    python3 scripts/scale_probe.py --workload long-repeat --scale 4 --vocab-size 2000
    # the benchmark's own size: which stage sets the peak that peak_rss_mb reads
    python3 scripts/scale_probe.py --workload short-distinct --scale 1 --passes 9

The benchmark's workloads train vocabularies of 16-400 merges on a few
hundred bodies, so costs that grow with the vocabulary or the corpus
stay small there. This probe replaces the workload's shape in its own
process only (`dataclasses.replace` on `perfbench/workloads.SHAPES`:
train and held bodies times `--scale`, and `--vocab-size`) and then
does what `perfbench/run.py` does before it times anything, with
`perfbench/` imported as it is: it sets the workload up three times
(generate inputs for `--seed`, one pass of each chain) and runs
`pipeline.train_chain` and `pipeline.infer_chain` `--passes` times on
the last set-up, with the checks of `perfbench/run.py` after every pass.

It wraps each stage of each chain: every `uninline` CLI call and the
in-process split. A stage that raises `ru_maxrss`, the process's
high-water mark, prints one line as it happens (phase, chain, stage,
the mark after it, the step in kB and the modules the stage imported
first, each new package once with the count of its new submodules), so
a lazily loaded dependency shows at the step it costs. The table then
gives, for every stage that ran, the median wall seconds and the median
CPU seconds (`RUSAGE_SELF` plus `RUSAGE_CHILDREN`, so the external
labeler's share counts) over the passes only (`combine`, run twice in a
chain, pools both runs), `ru_maxrss` after the stage's last run, and
the steps and kB of the mark during the set-ups and during the passes.
The line above it gives the post-import baseline and the peak above it,
which is what `peak_rss_mb` reads. The probe and the labeler child it
starts run on one core, as `perfbench/run.py` pins them.

After the timed passes, one more untimed pass of each chain runs under
`tracemalloc`, and the table's last column gives each stage's traced
peak: the most memory Python and numpy held at once during the stage,
above what they held when it began (the labeler child's is not traced).
Unlike `ru_maxrss`, it does not move with the process's memory layout,
so two trees' readings of one stage can be compared byte for byte.

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
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("setup", "pass")


@dataclasses.dataclass
class _Stage:
    """What the runs of one (chain, stage) measured."""

    seconds: list = dataclasses.field(default_factory=list)  # wall s of each pass-phase run
    cpu: list = dataclasses.field(default_factory=list)  # CPU s of each pass-phase run
    maxrss: int = 0  # ru_maxrss after its last timed or set-up run, kB
    traced: int = 0  # traced peak of its runs in the traced pass, kB
    steps: dict = dataclasses.field(  # phase -> each rise of ru_maxrss, kB
        default_factory=lambda: {phase: [] for phase in PHASES})


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


def _cpu_s() -> float:
    """User and system seconds of this process and of its waited-for children."""
    return sum(r.ru_utime + r.ru_stime for r in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def _first_imports(before: set) -> str:
    """Modules loaded since `before`: each new package once, with its new submodules' count."""
    new = set(sys.modules) - before
    tops = sorted(name for name in new if name.rpartition(".")[0] not in new)
    counts = {top: sum(name.startswith(top + ".") for name in new) for top in tops}
    return " ".join(f"{top}(+{n})" if n else top for top, n in counts.items())


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=int, default=4, help="multiplies train and held bodies")
    parser.add_argument("--vocab-size", type=int, help="default: the workload's")
    parser.add_argument("--passes", type=_positive, default=3,
                        help="timed train+infer passes after the set-ups")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pipeline  # imports uninline and numpy, as perfbench/run.py does
    import run
    import workloads
    from uninline import cli

    baseline = _maxrss_kb()
    shape = workloads.SHAPES[args.workload]
    workloads.SHAPES[args.workload] = dataclasses.replace(
        shape,
        train_bodies=shape.train_bodies * args.scale,
        held_bodies=shape.held_bodies * args.scale,
        vocab_size=args.vocab_size or shape.vocab_size,
    )
    stages: dict = {}  # (chain, stage) -> _Stage, in the order of their first runs
    where = {"phase": "setup", "chain": ""}

    def measured(name_of, call):
        def wrapper(*argv, **kwargs):
            if where["phase"] == "traced":
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                try:
                    return call(*argv, **kwargs)
                finally:
                    stage = stages[where["chain"], name_of(argv)]
                    stage.traced = max(stage.traced,
                                       (tracemalloc.get_traced_memory()[1] - held) // 1024)
            before, modules = _maxrss_kb(), set(sys.modules)
            t, c = perf_counter(), _cpu_s()
            try:
                return call(*argv, **kwargs)
            finally:
                wall, used, after = perf_counter() - t, _cpu_s() - c, _maxrss_kb()
                phase, key = where["phase"], (where["chain"], name_of(argv))
                stage = stages.setdefault(key, _Stage())  # a row per stage, steps or none
                if phase == "pass":
                    stage.seconds.append(wall)
                    stage.cpu.append(used)
                stage.maxrss = after
                if after > before:
                    stage.steps[phase].append(after - before)
                    # the real stdout: the chains send each stage's own output to a buffer
                    print(f"{phase:6} {key[0]:5} {key[1]:10} {after:8d} kB  "
                          f"+{after - before} kB  {_first_imports(modules)}".rstrip(),
                          file=sys.__stdout__, flush=True)
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
        for variant in range(run.SETUPS):
            _, root, work = bench.setup(variant)
        where["phase"] = "pass"
        for _ in range(args.passes):
            bench.run("train", root, work)
            bench.run("infer", root, work)
        peak = _maxrss_kb()  # tracing costs memory of its own
        where["phase"] = "traced"
        tracemalloc.start()
        try:
            bench.run("train", root, work)
            bench.run("infer", root, work)
        finally:
            tracemalloc.stop()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"\n{args.workload} x{args.scale} seed {args.seed}, vocab_size "
          f"{workloads.SHAPES[args.workload].vocab_size}: {work.train.lines} train and "
          f"{work.held.lines} held lines, {run.SETUPS} set-ups and {args.passes} passes, "
          f"then one traced pass; "
          f"baseline {baseline} kB after import, peak {peak} kB (+{peak - baseline} kB, "
          f"{(peak - baseline) / 1024:.2f} MB); checks failed: {bench.failed}")
    print(f"{'chain':5} {'stage':10} {'median s':>9} {'cpu s':>9} {'maxrss MB':>10} "
          f"{'setup steps':>11} {'kB':>6} {'pass steps':>10} {'kB':>6} {'traced kB':>9}")
    for (chain_name, name), stage in stages.items():
        setup, passes = (stage.steps[phase] for phase in PHASES)
        print(f"{chain_name:5} {name:10} {statistics.median(stage.seconds):9.3f} "
              f"{statistics.median(stage.cpu):9.3f} {stage.maxrss / 1024:10.1f} "
              f"{len(setup):11d} {sum(setup):6d} {len(passes):10d} {sum(passes):6d} "
              f"{stage.traced:9d}")
    return 1 if bench.failed else 0


if __name__ == "__main__":
    sys.exit(main())
