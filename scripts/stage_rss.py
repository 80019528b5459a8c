"""Peak-RSS steps of each CLI stage over repeated chain passes, in one process.

    # three set-ups and nine train+infer passes of short-distinct, seed 1
    python3 scripts/stage_rss.py --workload short-distinct --seed 1 --passes 9

The run does what `perfbench/run.py` does before it times anything, with
`perfbench/` imported as it is: it sets the workload up three times
(generate inputs, one pass of each chain) and then runs `--passes`
train+infer passes on the last set-up. It reads `ru_maxrss`, the
process's high-water mark, before and after each stage of each chain:
every `uninline` CLI call and the in-process `split`. A stage that
raises the mark prints one line (phase, chain, stage, the mark after
it, the step in kB and the modules the stage imported first, each new
package once with the count of its new submodules), so a lazily loaded
dependency shows at the step it costs. A summary follows: for every
stage that ran, the steps and kB during the set-ups and during the
passes, and the mark above the post-import baseline, which is what
`peak_rss_mb` reads.
"""

from __future__ import annotations

import argparse
import resource
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


def _first_imports(before: set) -> str:
    """Modules loaded since `before`: each new package once, with its new submodules' count."""
    new = set(sys.modules) - before
    tops = sorted(name for name in new if name.rpartition(".")[0] not in new)
    counts = {top: sum(name.startswith(top + ".") for name in new) for top in tops}
    return " ".join(f"{top}(+{n})" if n else top for top, n in counts.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=9, help="train+infer passes after set-up")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pipeline  # imports uninline and numpy, as perfbench/run.py does
    import run
    from uninline import cli

    baseline = _maxrss_kb()
    where = {"phase": "setup", "chain": ""}
    steps: dict = defaultdict(list)  # (phase, chain, stage) -> step sizes in kB

    def measured(name_of, call):
        def wrapper(*argv, **kwargs):
            before, modules = _maxrss_kb(), set(sys.modules)
            try:
                return call(*argv, **kwargs)
            finally:
                after = _maxrss_kb()
                key = (where["phase"], where["chain"], name_of(argv))
                sizes = steps[key]  # the summary lists every stage that ran, steps or none
                if after > before:
                    sizes.append(after - before)
                    # the real stdout: the chains send each stage's own output to a buffer
                    print(f"{key[0]:6} {key[1]:5} {key[2]:10} {after:8d} kB  "
                          f"+{after - before} kB  {_first_imports(modules)}".rstrip(),
                          file=sys.__stdout__)
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

    base = Path(tempfile.mkdtemp(prefix="stage-rss-"))
    try:
        bench = run.Bench(pipeline, args.workload, args.seed, base)
        for variant in range(run.SETUPS):
            _, root, work = bench.setup(variant)
        where["phase"] = "pass"
        for _ in range(args.passes):
            bench.run("train", root, work)
            bench.run("infer", root, work)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"\n{args.workload} seed {args.seed}: baseline {baseline} kB after import, "
          f"peak {_maxrss_kb()} kB (+{_maxrss_kb() - baseline} kB, "
          f"{(_maxrss_kb() - baseline) / 1024:.2f} MB); checks failed: {bench.failed}")
    for phase in ("setup", "pass"):
        found = {key: sizes for key, sizes in steps.items() if key[0] == phase}
        total = sum(map(sum, found.values()))
        print(f"{phase}: {sum(map(len, found.values()))} steps, {total} kB")
        for (_, chain_name, stage), sizes in sorted(found.items(), key=lambda kv: -sum(kv[1])):
            print(f"  {chain_name:5} {stage:10} {len(sizes):2d} steps {sum(sizes):6d} kB  "
                  f"{' '.join(map(str, sizes))}".rstrip())
    return 1 if bench.failed else 0


if __name__ == "__main__":
    sys.exit(main())
