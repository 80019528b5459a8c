"""Alternating parent/change runs of perfbench/run.py, and their summary file.

    # 10 pairs on one workload: two checkouts, the parent's and the change's
    python3 scripts/bench_pairs.py run --parent ../parent --change . \
        --workload long-repeat --seed 1 --pairs 10 --runs runs/
    # medians, quartiles and pair wins of every run in runs/, as one JSON file
    python3 scripts/bench_pairs.py summarize --runs runs/ --seed 1 --out BENCH.json \
        --parent-commit c7748a5 --claim "infer_lines_per_s on long-repeat"

`run` runs both sides from one directory, because the checkout path
alone can shift peak RSS by a few percent: it copies the change
checkout to `<runs>/tree` and each side's `src/` to `<runs>/src.<side>`,
and before each run moves the running side's copy in as
`<runs>/tree/src`. Python writes each side's bytecode there on its
first run and keeps it with the copy, unless PYTHONDONTWRITEBYTECODE is
set: then no bytecode is written, every run compiles `uninline` as it
imports it, and `perfbench/run.py`'s import seconds, part of `setup_s`,
hold that compile on both sides. It calls `perfbench/run.py`, with the
`run_seconds` of BENCHMARK.json, for each side in turn, parent first in
even pairs and change first in odd ones, and appends the last line of
its stdout (one JSON object) to `<runs>/<workload>-s<seed>.<side>.jsonl`,
or to `...-s<seed>-trace.<side>.jsonl` with `--trace`. The i-th parent
line and the i-th change line form pair i.

`summarize` reads those files. For each workload at `--seed` (under
"workloads") and at any other seed (under "held_out") it gives, per
end-to-end metric of BENCHMARK.json, each side's median, quartiles
(statistics.quantiles, n=4) and runs, the pairs the change wins and
ties, the ratio of the medians, and two verdicts:

- `gain_shown`: the change wins at least nine tenths of the pairs, ties
  counting for neither side, and its median is better than the
  parent's by more than the parent's quartile distance (q3 - q1);
- `bound`: `worse` when the change's median is worse than the parent's
  by more than the metric's `bound` of BENCHMARK.json, a fraction of
  the parent's median; `unresolved` when either side's quartile
  distance exceeds that bound, unless every change run beats every
  parent run; `within` otherwise.

Traced runs (under "traced") list the values of each per-layer metric
named by `--layer`.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")
COMMAND = ("python3 perfbench/run.py --workload W --seed S "
           f"--seconds {BENCHMARK['run_seconds']} --trace 0")
TRACED_COMMAND = COMMAND.replace("--trace 0", "--trace 1")
RUN_FILE = re.compile(
    r"(?P<workload>[\w-]+?)-s(?P<seed>\d+)(?P<trace>-trace)?\.(?P<side>parent|change)\.jsonl")


def _run_file(runs: Path, workload: str, seed: int, trace: bool, side: str) -> Path:
    return runs / f"{workload}-s{seed}{'-trace' if trace else ''}.{side}.jsonl"


def _copy(source: Path, dest: Path, skip: Path) -> None:
    """Copy the tree `source` to a fresh `dest`, without `skip` and what runs leave behind."""
    skipped = shutil.ignore_patterns(".git", ".perfbench", ".hypothesis", ".pytest_cache",
                                     "__pycache__", "*.egg-info")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(source, dest, ignore=lambda d, names: [
        *skipped(d, names), *(n for n in names if (Path(d) / n).resolve() == skip)])


def run(args) -> int:
    args.runs.mkdir(parents=True, exist_ok=True)
    runs, tree = args.runs.resolve(), args.runs / "tree"
    _copy(args.change, tree, runs)
    shutil.rmtree(tree / "src")
    for side in SIDES:
        _copy(getattr(args, side) / "src", args.runs / f"src.{side}", runs)
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(BENCHMARK["run_seconds"]),
               "--trace", "1" if args.trace else "0"]
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            (args.runs / f"src.{side}").rename(tree / "src")
            try:
                done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
            finally:
                (tree / "src").rename(args.runs / f"src.{side}")
            lines = done.stdout.strip().splitlines()
            if not lines:
                print(f"pair {pair} {side}: no result (exit {done.returncode})\n{done.stderr}",
                      file=sys.stderr)
                return 1
            with open(_run_file(args.runs, args.workload, args.seed, args.trace, side), "a",
                      encoding="utf-8") as fh:
                fh.write(lines[-1] + "\n")
            print(f"pair {pair} {side}: exit {done.returncode}", file=sys.stderr)
    return 0


def _read(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def _stats(values: list[float]) -> dict:
    q1, median, q3 = _quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


def _verdicts(p: list[float], c: list[float], higher: bool, bound: float) -> dict:
    """`gain_shown` and `bound`, as the module docstring defines them."""
    sign = 1 if higher else -1
    (p1, pm, p3), (c1, cm, c3) = _quartiles(p), _quartiles(c)
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    allowed = bound * abs(pm)
    every_run_better = min(sign * v for v in c) > max(sign * v for v in p)
    if max(p3 - p1, c3 - c1) > allowed and not every_run_better:
        verdict = "unresolved"
    elif sign * (cm - pm) < -allowed:
        verdict = "worse"
    else:
        verdict = "within"
    return {"gain_shown": 10 * wins >= 9 * len(p) and sign * (cm - pm) > p3 - p1,
            "bound": verdict}


def _compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against {len(change)} change runs")
    out = {"pairs": len(parent),
           "all_checks_correct": all(r["correct"] for r in parent + change),
           "metrics": {}}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        p_stats, c_stats = _stats(p), _stats(c)
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": p_stats,
            "change": c_stats,
            "change_better_pairs": sum((b > a) if higher else (b < a) for a, b in zip(p, c)),
            "tied_pairs": sum(a == b for a, b in zip(p, c)),
            "median_ratio": round(c_stats["median"] / p_stats["median"], 4)
            if p_stats["median"] else None,
            **_verdicts(p, c, higher, metric["bound"]),
        }
    return out


def summarize(args) -> int:
    metrics = BENCHMARK["end_to_end"]
    found: dict = {}
    for path in sorted(args.runs.iterdir()):
        m = RUN_FILE.fullmatch(path.name)
        if m:
            key = (m["workload"], int(m["seed"]), bool(m["trace"]))
            found.setdefault(key, {})[m["side"]] = _read(path)
    result = {
        "what": ("end-to-end metrics of perfbench/run.py (its last stdout line), parent "
                 f"{args.parent_commit} against this change, alternating parent/change pairs; "
                 "medians and quartiles (statistics.quantiles, n=4) of each side's runs"),
        "command": COMMAND,
        "host": args.host,
        "claim": args.claim,
        "workloads": {},
        "held_out": {},
    }
    for (workload, seed, trace), sides in sorted(found.items()):
        parent, change = sides.get("parent", []), sides.get("change", [])
        if trace:
            traced = result.setdefault("traced", {"command": TRACED_COMMAND})
            traced[f"{workload}-s{seed}"] = {
                side: {name: [round(r["metrics"][name]["value"], 6) for r in runs]
                       for name in args.layer}
                for side, runs in (("parent", parent), ("change", change))}
            continue
        section = result["workloads"] if seed == args.seed else result["held_out"]
        section[workload if seed == args.seed else f"{workload}-s{seed}"] = {
            "seed": seed, **_compare(parent, change, metrics)}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="alternate parent and change runs of perfbench/run.py")
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", action="store_true", help="per-layer metrics (--trace 1)")
    p.add_argument("--runs", type=Path, required=True, help="directory of run files")
    p.set_defaults(func=run)
    p = sub.add_parser("summarize", help="write the summary of every run file")
    p.add_argument("--runs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=1, help="the seed of the main comparison")
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--claim", default="")
    p.add_argument("--host", default="")
    p.add_argument("--layer", action="append", default=[],
                   help="a per-layer metric to list from traced runs (repeatable)")
    p.set_defaults(func=summarize)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
