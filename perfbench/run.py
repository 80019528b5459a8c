"""Benchmark of the uninline pipeline: every CLI stage, in one process.

    python3 perfbench/run.py --workload long-repeat --seed 1 --seconds 20 --trace 0

A run does a fixed amount of work, the same for every seed and commit:
it sets up three times (generate inputs, one untimed pass of each
chain), then times one train-chain and one infer-chain pass per three
seconds of ``--seconds`` (six each for 20), alternating, and reports
medians. The pass count follows from the argument, never from elapsed
time. Checks against the
planted truth run after each pass, outside the timed regions. With
``--trace 1`` it instead sets up once and runs each chain twice
untraced and twice traced, and reports per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per run; setup_s takes their median
PAIR_SECONDS = 3  # about one train plus one infer pass on a 2-core host
TRACE_REPS = 2  # traced passes of each chain, each beside an untraced one

END_TO_END = (
    ("train_lines_per_s", "lines/s"),
    ("infer_lines_per_s", "lines/s"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_BOTH = (
    ("cli.self_s", "s"),
    ("cli.digest_bytes", "bytes"),
    ("corpus.split_functions.self_s", "s"),
    ("corpus.functions", "count"),
    ("markers.reconcile_function.self_s", "s"),
    ("ctext.find_call_sites.self_s", "s"),
    ("markers.kept", "count"),
    ("markers.dropped_nontarget", "count"),
    ("markers.consumed_by_call", "count"),
    ("bpe.encode.self_s", "s"),
    ("bpe.encode.calls", "count"),
    ("bpe.encode.bytes_in", "bytes"),
    ("bpe.encode.us_per_byte", "us/byte"),
    ("bpe.encode.repeat_line_share", "ratio"),
    ("bpe.load_vocab.self_s", "s"),
    ("windows.scan_windows.self_s", "s"),
    ("windows.scan_windows.windows", "count"),
    ("windows.overlap_factor", "ratio"),
    ("windows.read_windows.self_s", "s"),
    ("windows.write_windows.bytes", "bytes"),
    ("windows.amplification", "ratio"),
    ("jsonl.read_jsonl.self_s", "s"),
    ("jsonl.read_jsonl.records", "count"),
    ("jsonl.write_jsonl.self_s", "s"),
    ("jsonl.write_jsonl.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
)
_TRAIN = (
    ("bpe.train_bpe.self_s", "s"),
    ("bpe.train_bpe.merges", "count"),
    ("bpe.train_bpe.ms_per_merge", "ms"),
    ("windows.rebalance.kept_share", "ratio"),
    ("classify.fit_token_stats.self_s", "s"),
    ("classify.save_model.bytes", "bytes"),
)
_INFER = (
    ("classify.predict_token_stats.self_s", "s"),
    ("classify.predict_token_stats.calls", "count"),
    ("classify.external.self_s", "s"),
    ("classify.external.round_trips", "count"),
    ("classify.external.ms_per_round_trip", "ms"),
    ("classify.load_model.self_s", "s"),
    ("coalesce.coalesce.self_s", "s"),
    ("coalesce.coalesce.sequences", "count"),
    ("coalesce.oracle_f1", "ratio"),
    ("combine.combine_recoveries.self_s", "s"),
    ("combine.records", "count"),
    ("evaluate.score_recoveries.self_s", "s"),
)
PER_LAYER = (
    tuple((f"train.{name}", unit) for name, unit in _BOTH + _TRAIN)
    + tuple((f"infer.{name}", unit) for name, unit in _BOTH + _INFER)
    + (("workload.one_window_share", "ratio"), ("rss.baseline_mb", "MB"))
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _quartiles(values: list) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.4f} q1 {q1:.4f} q3 {q3:.4f} (n={len(values)})"


class Bench:
    def __init__(self, pipeline, name: str, seed: int, base: Path):
        self.pipeline = pipeline
        self.name = name
        self.seed = seed
        self.shape = workloads.SHAPES[name]
        self.base = base
        self.attempted = 0
        self.failed = 0
        self._digests: dict = {}

    def setup(self, variant: int):
        """Generate one variant's inputs and run both chains once; returns its seconds."""
        t = perf_counter()
        work = workloads.generate(self.name, self.seed, variant)
        root = self.base / f"variant{variant}"
        work.write(root)
        seconds = perf_counter() - t
        seconds += self.run("train", root, work) + self.run("infer", root, work)
        return seconds, root, work

    def run(self, chain: str, root: Path, work, tracer=None) -> float:
        """One pass of a chain; returns its wall seconds. Checks run after the clock."""
        p = self.pipeline
        p.run_root(root)
        restore = tracer.install() if tracer else None
        if tracer:
            tracer.begin_chain(chain)
        try:
            t = perf_counter()
            (p.train_chain if chain == "train" else p.infer_chain)(root, self.shape)
            wall = perf_counter() - t
        finally:
            if restore:
                restore()
        self.check(chain, root, work)
        return wall

    def check(self, chain: str, root: Path, work) -> None:
        p = self.pipeline
        if chain == "train":
            bad = p.check_train(root, work)
            self.attempted += len(work.train.bodies)
        else:
            bad = p.check_infer(root, work)
            self.attempted += len(work.held.bodies) + 1  # and the score report
        digest = p.digest(root, chain)
        if self._digests.setdefault((root, chain), digest) != digest:
            bad.add("outputs differ from the first pass")
        self.attempted += 1
        self.failed += len(bad)
        for item in sorted(map(str, bad))[:5]:
            print(f"check failed ({chain}): {item}", file=sys.stderr)

    def timed(self, passes: int, import_s: float, baseline_mb: float) -> dict:
        setups = [self.setup(v) for v in range(SETUPS)]
        _, root, work = setups[-1]
        train, infer = [], []
        for _ in range(passes):
            train.append(self.run("train", root, work))
            infer.append(self.run("infer", root, work))
        peak_mb = _maxrss_mb()
        setup = [import_s + s for s, _, _ in setups]
        print(f"{self.name} seed {self.seed}: {work.train.lines} training lines, "
              f"{work.held.lines} held-out lines")
        for label, values in (("train chain", train), ("infer chain", infer), ("setup", setup)):
            print(f"{label} seconds: {_quartiles(values)}: "
                  + " ".join(f"{v:.3f}" for v in values))
        print(f"import seconds: {import_s:.4f}")
        print(f"peak RSS {peak_mb:.1f} MB over an interpreter baseline of {baseline_mb:.1f} MB")
        return {
            "train_lines_per_s": work.train.lines / statistics.median(train),
            "infer_lines_per_s": work.held.lines / statistics.median(infer),
            "f1": self.pipeline.f1(root),
            "peak_rss_mb": peak_mb - baseline_mb,
            "setup_s": statistics.median(setup),
        }

    def traced(self, baseline_mb: float, spans_path: Path) -> dict:
        import tracing

        _, root, work = self.setup(0)
        tracer = tracing.Tracer()
        plain = {"train": [], "infer": []}
        traced = {"train": [], "infer": []}
        for _ in range(TRACE_REPS):
            for chain in ("train", "infer"):
                plain[chain].append(self.run(chain, root, work))
                traced[chain].append(self.run(chain, root, work, tracer))
        tracer.dump(spans_path)
        props = self.pipeline.properties(root)
        oracle_f1 = self.pipeline.oracle_f1(root)
        out = {
            "workload.one_window_share": props["one_window_share"],
            "rss.baseline_mb": baseline_mb,
        }
        for chain in ("train", "infer"):
            spans = tracer.totals(chain)

            def self_s(name):
                return spans.get(name, 0.0) / TRACE_REPS

            def count(key):
                return tracer.count(chain, key) / TRACE_REPS

            def ratio(a, b):
                return a / b if b else 0.0

            # everything else is a span's self time or a counter of the same name
            derived = {
                "bpe.encode.us_per_byte":
                    1e6 * ratio(self_s("bpe.encode"), count("bpe.encode.bytes_in")),
                "bpe.encode.repeat_line_share":
                    ratio(count("bpe.encode.repeat_bytes"), count("bpe.encode.line_bytes")),
                "windows.overlap_factor":
                    ratio(count("windows.window_lines"), count("windows.body_lines")),
                "windows.amplification": props[f"{chain}_amplification"],
                "trace.overhead_ratio":
                    statistics.median(traced[chain]) / statistics.median(plain[chain]),
                "trace.coverage": ratio(spans[""], sum(traced[chain])),
                "bpe.train_bpe.ms_per_merge":
                    1e3 * ratio(self_s("bpe.train_bpe"), count("bpe.train_bpe.merges")),
                "windows.rebalance.kept_share":
                    ratio(count("windows.rebalance.kept"), count("windows.rebalance.in")),
                "classify.external.ms_per_round_trip":
                    1e3 * ratio(self_s("classify.external"),
                                count("classify.external.round_trips")),
                "coalesce.oracle_f1": oracle_f1,
            }
            for name, _ in _BOTH + (_TRAIN if chain == "train" else _INFER):
                if name in derived:
                    value = derived[name]
                elif name.endswith(".self_s"):
                    value = self_s(name.removesuffix(".self_s"))
                else:
                    value = count(name)
                out[f"{chain}.{name}"] = value
            print(f"{chain}: untraced {_quartiles(plain[chain])}; "
                  f"traced {_quartiles(traced[chain])}")
        print(f"spans written to {spans_path}")
        return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the uninline CLI pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sets the number of timed passes, one pair per 3 s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "uninline" / "__init__.py").is_file():
        print(f"perfbench: no uninline package under {src}", file=sys.stderr)
        return 2
    t = perf_counter()
    sys.path.insert(0, str(src))
    import pipeline  # imports uninline, and numpy with it
    import uninline

    import_s = perf_counter() - t
    if not Path(uninline.__file__).resolve().is_relative_to(src):
        print(f"perfbench: uninline was imported from outside {src}", file=sys.stderr)
        return 2
    baseline_mb = _maxrss_mb()
    # One core for this process and the labeler child it starts: the
    # protocol is lock-step, so they never run at once, and a shared core
    # spares each round trip a wake-up of the other, possibly descheduled, core.
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = ROOT / ".perfbench"
    base = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(pipeline, args.workload, args.seed, base)
    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            values = bench.traced(baseline_mb, spans)
            spec = PER_LAYER
        else:
            passes = max(2, args.seconds // PAIR_SECONDS)
            values = bench.timed(passes, import_s, baseline_mb)
            spec = END_TO_END
    except pipeline.StageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
