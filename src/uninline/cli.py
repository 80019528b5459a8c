"""Command-line pipeline front end.

Stages communicate only through files: C sources in, marked C out
(compilation and decompilation happen elsewhere), pseudo-C split into
function records, then line-JSON records through reconcile, windows,
rebalance, fit, predict, coalesce, combine, score, and correlate.
Every invocation appends one manifest record (command, parameters,
input digests, seeds) to manifest.jsonl in the run directory, taken
from $UNINLINE_RUN_ROOT or the working directory, so any stage can be
replayed from its manifest line.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import shlex
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from . import __version__
from . import bpe, classify, coalesce, combine, corpus, evaluate, markers, windows
from .jsonl import (NUMBER, STRING, Kind, append_jsonl, atomic_write, field, read_records,
                    record_line, write_jsonl)

log = logging.getLogger(__name__)

RUN_ROOT_ENV = "UNINLINE_RUN_ROOT"
MANIFEST_NAME = "manifest.jsonl"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _run_root() -> Path:
    return Path(os.environ.get(RUN_ROOT_ENV) or ".")


def _record_run(command: str, args: argparse.Namespace, inputs: Sequence[str | Path],
                outputs: Sequence[str | Path], seeds: dict | None = None) -> None:
    parameters = {
        k: v for k, v in sorted(vars(args).items())
        if k != "func" and not callable(v)
    }
    record = {
        "command": command,
        "parameters": parameters,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seeds": seeds or {},
        "version": __version__,
    }
    root = _run_root()
    root.mkdir(parents=True, exist_ok=True)
    append_jsonl(root / MANIFEST_NAME, record)


def _cmd_inject(args) -> int:
    if args.array_size < 1:
        raise ValueError(f"--array-size must be at least 1, not {args.array_size}")
    targets = corpus.load_targets(args.targets)
    outputs = []
    for src_path in args.sources:
        content = Path(src_path).read_bytes()
        source = corpus.SourceFile(
            path=str(src_path),
            content=content,
            language=corpus.Language.C,
            optimization=corpus.OptLevel.UNKNOWN,
        )
        instrumented, plan = markers.inject_markers(source, targets, args.array_size)
        out_path = Path(instrumented.path)
        if args.out_dir:
            out_path = Path(args.out_dir) / out_path.name
            out_path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(out_path, instrumented.content)
        plan_path = out_path.with_name(out_path.name.replace(".marked.c", ".markplan.json"))
        atomic_write(plan_path, json.dumps(plan.as_json(), indent=1, sort_keys=True) + "\n")
        outputs += [out_path, plan_path]
        print(f"{src_path}: {len(plan.assignments)} call sites marked -> {out_path}")
    _record_run("inject", args, [args.targets, *args.sources], outputs)
    return 0


def _cmd_split(args) -> int:
    """Carve each file into function records and write them, one file's at a time.

    The paths are sorted and each file's records come in id order, so
    the records are written in id order as they are made.
    """
    paths = sorted(args.paths)
    spelled: dict[str, str] = {}  # real path -> how it was first given
    for path in paths:
        real = os.path.realpath(path)
        if real in spelled:
            also = "" if spelled[real] == path else f", also as {spelled[real]}"
            raise ValueError(f"{path}: given twice{also}")
        spelled[real] = path
    count = corpus.write_functions(args.out, (
        record for path in paths for record in corpus.split_functions(
            corpus.SourceFile(path, Path(path).read_bytes(), corpus.Language.PSEUDO_C))))
    _record_run("split", args, paths, [args.out])
    print(f"{count} functions from {len(paths)} files -> {args.out}")
    return 0


def _cmd_reconcile(args) -> int:
    """Label each body as it streams in, in id order, and write it.

    Each body's id and label names are kept for `--truth-out` and
    `--recovered-out`, which are written last.
    """
    targets = corpus.load_targets(args.targets)
    kept = []  # (id, residual marker names, recovered call names) of each labeled body

    def labeled():
        for rec in corpus.iter_functions(args.functions):
            out = markers.reconcile_function(rec, targets)
            kept.append((out.id, tuple(name for name, _ in out.true_labels), out.recovered))
            yield out

    corpus.write_functions(args.out, labeled())
    outputs = [args.out]
    for path, side in ((args.truth_out, 1), (args.recovered_out, 2)):
        if path:
            combine.write_recoveries(path, (
                combine.FunctionRecovery(body[0], combine.RecoveryMultiset(Counter(body[side])),
                                         args.optlevel)
                for body in kept))
            outputs.append(path)
    _record_run("reconcile", args, [args.functions, args.targets], outputs)
    residual = sum(len(names) for _, names, _ in kept)
    recovered = sum(len(names) for _, _, names in kept)
    print(f"{len(kept)} functions: {residual} inlined markers kept, {recovered} plain calls")
    return 0


def _iter_bpe_documents(paths: Sequence[str], as_functions: bool):
    for path in paths:
        if as_functions:
            for rec in corpus.iter_functions(path):
                yield rec.text or ""
        else:
            yield Path(path).read_text(encoding="utf-8", errors="surrogateescape")


def _cmd_bpe_train(args) -> int:
    """Train on the inputs' texts; function records stream in a few at a time."""
    vocab = bpe.train_bpe(
        _iter_bpe_documents(args.inputs, args.functions),
        vocab_size=args.vocab_size,
        min_frequency=args.min_frequency,
    )
    bpe.save_vocab(args.out, vocab)
    _record_run("bpe-train", args, args.inputs, [args.out])
    print(f"{len(vocab.merges)} merges learned ({vocab.size} tokens) -> {args.out}")
    return 0


def _cmd_windows(args) -> int:
    """Scan each body as it streams in, in id order, and write its windows."""
    spec = windows.WindowSpec(height=args.window_height, stride=args.stride)
    counts = Counter()

    def scanned():
        for rec in corpus.iter_functions(args.functions):
            counts["functions"] += 1
            for w in windows.scan_windows(rec, spec):
                counts["labeled"] += w.label != windows.EMPTY
                yield w

    count = windows.write_windows(args.out, scanned())
    _record_run("windows", args, [args.functions], [args.out])
    print(f"{count} windows from {counts['functions']} functions ({counts['labeled']} labeled)")
    return 0


def _seed(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, not {args.seed}")
    return args.seed


def _cmd_rebalance(args) -> int:
    pool = windows.read_windows(args.windows)
    kept = windows.rebalance(pool, args.discard_fraction, _seed(args))
    windows.write_windows(args.out, kept)
    _record_run("rebalance", args, [args.windows], [args.out], seeds={"seed": args.seed})
    print(f"kept {len(kept)} of {len(pool)} windows")
    return 0


def _cmd_fit(args) -> int:
    if not 0 < args.alpha < math.inf:
        raise ValueError(f"--alpha must be a positive finite number, not {args.alpha:g}")
    train = windows.read_windows(args.windows)
    if args.kind == "prior":
        model = classify.fit_prior(train)
    else:
        if not args.vocab:
            raise ValueError("fitting token statistics requires --vocab")
        vocab = bpe.load_vocab(args.vocab)
        model = classify.fit_token_stats(train, vocab, args.alpha)
    classify.save_model(args.out, model)
    inputs = [args.windows] + ([args.vocab] if args.vocab else [])
    _record_run("fit", args, inputs, [args.out])
    print(f"{args.kind} model over {len(train)} windows -> {args.out}")
    return 0


def _group_windows(path, pool: Sequence[windows.WindowInstance]):
    """(function id, window count) of each function, in input order.

    A function's windows must be contiguous and rise in `start`, as
    `windows` writes them; a window out of place is refused at its line.
    """
    groups: list[list] = []
    seen = set()
    for i, w in enumerate(pool):
        if groups and groups[-1][0] == w.func_id:
            if w.start <= pool[i - 1].start:
                raise ValueError(f"{path}:{record_line(path, i)}: field 'start' is {w.start}, "
                                 f"not past the {pool[i - 1].start} of the window before it")
            groups[-1][1] += 1
            continue
        if w.func_id in seen:
            raise ValueError(f"{path}:{record_line(path, i)}: field 'func_id': the windows of "
                             f"{w.func_id.as_json()} are not contiguous")
        seen.add(w.func_id)
        groups.append([w.func_id, 1])
    return groups


def _cmd_predict(args) -> int:
    pool = windows.read_windows(args.windows)
    groups = _group_windows(args.windows, pool)
    inputs = [args.windows]
    seeds = {}
    if args.external:
        if not args.vocab:
            raise ValueError("--external requires --vocab for request tokenization")
        if not 0 < args.external_timeout <= classify.MAX_TIMEOUT:
            raise ValueError("--external-timeout must be a positive number of seconds, "
                             f"at most {classify.MAX_TIMEOUT}, not {args.external_timeout:g}")
        vocab = bpe.load_vocab(args.vocab)
        known = corpus.load_targets(args.targets).name_set if args.targets else None
        with classify.spawn_external(shlex.split(args.external), vocab, known,
                                     args.external_timeout) as client:
            labels = client.predict(pool)
        inputs.append(args.vocab)
        if args.targets:
            inputs.append(args.targets)
    else:
        if not args.model:
            raise ValueError("predict needs --model or --external")
        vocab = bpe.load_vocab(args.vocab) if args.vocab else None
        model = classify.load_model(args.model, vocab)
        inputs.append(args.model)
        if args.vocab:
            inputs.append(args.vocab)
        if isinstance(model, classify.PriorModel):
            seeds = {"seed": args.seed}
            labels = classify.predict_prior_sequence(model, pool, _seed(args))
        else:
            labels = classify.predict_token_stats_batch(model, pool)
    sequences = []
    offset = 0
    for fid, count in groups:
        sequences.append(coalesce.LabelSequence(fid, tuple(labels[offset:offset + count])))
        offset += count
    sequences.sort(key=lambda s: s.func_id)
    coalesce.write_label_sequences(args.out, sequences)
    _record_run("predict", args, inputs, [args.out], seeds=seeds)
    print(f"labeled {len(pool)} windows across {len(sequences)} functions")
    return 0


def _cmd_coalesce(args) -> int:
    params = coalesce.CoalesceParams(
        neighbor_span=args.neighbor_span,
        bridge_gap=args.bridge_gap,
        retain_threshold=args.retain_threshold,
        count_divisor=args.count_divisor,
    )
    sequences = sorted(coalesce.read_label_sequences(args.labels), key=lambda s: s.func_id)
    records = [
        combine.FunctionRecovery(s.func_id, coalesce.coalesce(s, params), args.optlevel)
        for s in sequences
    ]
    combine.write_recoveries(args.out, records)
    _record_run("coalesce", args, [args.labels], [args.out])
    total = sum(r.counts.total for r in records)
    print(f"{total} invocations recovered across {len(records)} functions")
    return 0


def _cmd_combine(args) -> int:
    model = combine.read_recoveries(args.model)
    decomp = combine.read_recoveries(args.decompiler)
    merged = combine.combine_recoveries(model, decomp)
    merged.sort(key=lambda r: r.func_id)
    combine.write_recoveries(args.out, merged)
    _record_run("combine", args, [args.model, args.decompiler], [args.out])
    print(f"{len(merged)} functions combined")
    return 0


def _cmd_score(args) -> int:
    pred = combine.read_recoveries(args.pred)
    truth = combine.read_recoveries(args.truth)
    report = evaluate.score_recoveries(pred, truth)
    print(report.render(args.by))
    outputs = []
    if args.report:
        evaluate.write_report(args.report, report)
        outputs.append(args.report)
    if args.per_name_out:
        write_jsonl(args.per_name_out, sorted(report.by_name.items()), _per_name_json)
        outputs.append(args.per_name_out)
    _record_run("score", args, [args.pred, args.truth], outputs)
    return 0


def _per_name_json(item: tuple[str, evaluate.EvalCounts]) -> dict:
    """A `score --per-name-out` record: a name's counts and ratios."""
    name, c = item
    return {"name": name, "tp": c.tp, "fp": c.fp, "fn": c.fn,
            "precision": c.precision, "recall": c.recall, "f1": c.f1}


# precision, recall and f1 are ratios; a huge finite value would overflow the correlation
_RATIO = Kind(lambda v: NUMBER.test(v) and 0 <= v <= 1, "a ratio in [0, 1]")


def _per_name_row(row: dict) -> tuple[str, float, float, float]:
    """A `score --per-name-out` record: the name and its precision, recall and f1."""
    return (field(row, "name", STRING),
            *(float(field(row, key, _RATIO)) for key in ("precision", "recall", "f1")))


def _cmd_correlate(args) -> int:
    targets = corpus.load_targets(args.targets)
    per_name = {}
    for name, *metrics in read_records(args.per_name, _per_name_row):
        freq = targets.frequencies.get(name)
        if freq is None:
            log.warning("%s: no frequency in the target list; skipped", name)
            continue
        per_name[name] = (float(freq), *metrics)
    report = evaluate.frequency_correlation(per_name)

    def fmt(r):
        return "undefined" if r is None else f"{r:+.4f}"

    print(f"points: {report.points}")
    print(f"frequency vs precision: {fmt(report.r_precision)}")
    print(f"frequency vs recall:    {fmt(report.r_recall)}")
    print(f"frequency vs f1:        {fmt(report.r_f1)}")
    outputs = []
    if args.report:
        atomic_write(args.report, json.dumps(report.as_json(), indent=1, sort_keys=True) + "\n")
        outputs.append(args.report)
    _record_run("correlate", args, [args.per_name, args.targets], outputs)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    A parser is a web of reference cycles; building one per `run` left
    about 90 KB that only a full garbage collection frees.
    """
    parser = _Parser(
        prog="uninline",
        description="Recover inlined library-function invocations from decompiled pseudo-C.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("inject", help="instrument C sources with invocation markers")
    p.add_argument("--targets", required=True, help="target function list")
    p.add_argument("--array-size", type=int, default=markers.DEFAULT_ARRAY_SIZE)
    p.add_argument("--out-dir", help="write marked files here instead of beside inputs")
    p.add_argument("sources", nargs="+", help="C source files")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("split", help="carve decompiled pseudo-C files into function records")
    p.add_argument("--out", required=True, help="function records, in id order")
    p.add_argument("paths", nargs="+", help="pseudo-C files; each path is recorded as given")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("reconcile", help="derive labels from markers in decompiled functions")
    p.add_argument("--functions", required=True, help="decompiled function records")
    p.add_argument("--targets", required=True)
    p.add_argument("--out", required=True, help="labeled function records")
    p.add_argument("--optlevel", help="tag emitted recovery records with this level")
    p.add_argument("--truth-out", help="also write residual-marker truth multisets")
    p.add_argument("--recovered-out", help="also write decompiler-call multisets")
    p.set_defaults(func=_cmd_reconcile)

    p = sub.add_parser("bpe-train", help="learn a byte-level BPE vocabulary")
    p.add_argument("--out", required=True, help="vocabulary file")
    p.add_argument("--vocab-size", type=int, default=bpe.DEFAULT_VOCAB_SIZE)
    p.add_argument("--min-frequency", type=int, default=bpe.DEFAULT_MIN_FREQUENCY)
    p.add_argument("--functions", action="store_true",
                   help="inputs are function records, not plain text")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_bpe_train)

    p = sub.add_parser("windows", help="slice labeled functions into training windows")
    p.add_argument("--functions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window-height", type=int, default=windows.DEFAULT_HEIGHT)
    p.add_argument("--stride", type=int, default=windows.DEFAULT_STRIDE)
    p.set_defaults(func=_cmd_windows)

    p = sub.add_parser("rebalance", help="discard a fraction of unlabeled windows")
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--discard-fraction", type=float, default=windows.DEFAULT_DISCARD_FRACTION)
    p.add_argument("--seed", type=int, default=windows.DEFAULT_SEED)
    p.set_defaults(func=_cmd_rebalance)

    p = sub.add_parser("fit", help="fit a window classifier")
    p.add_argument("--kind", choices=("prior", "token-stats"), required=True)
    p.add_argument("--windows", required=True, help="training windows")
    p.add_argument("--out", required=True, help="model file")
    p.add_argument("--vocab", help="BPE vocabulary (token-stats)")
    p.add_argument("--alpha", type=float, default=classify.DEFAULT_ALPHA,
                   help="additive smoothing")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="label windows with a fitted or external model")
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True, help="per-function label sequences")
    labeler = p.add_mutually_exclusive_group()
    labeler.add_argument("--model", help="model file from fit")
    labeler.add_argument("--external", help="command line of an external labeler process")
    p.add_argument("--vocab", help="BPE vocabulary (token-stats or --external)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (prior models)")
    p.add_argument("--targets", help="label whitelist for external predictions")
    p.add_argument("--external-timeout", type=float, default=classify.DEFAULT_TIMEOUT,
                   metavar="SECONDS",
                   help="longest wait on the external labeler before it is killed "
                        "(default %(default)g)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("coalesce", help="collapse label sequences into recovery multisets")
    p.add_argument("--labels", required=True, help="label sequence records")
    p.add_argument("--out", required=True)
    defaults = coalesce.CoalesceParams()
    p.add_argument("--neighbor-span", type=int, default=defaults.neighbor_span)
    p.add_argument("--bridge-gap", type=int, default=defaults.bridge_gap)
    p.add_argument("--retain-threshold", type=int, default=defaults.retain_threshold)
    p.add_argument("--count-divisor", type=int, default=defaults.count_divisor)
    p.add_argument("--optlevel", help="tag output records with this level")
    p.set_defaults(func=_cmd_coalesce)

    p = sub.add_parser("combine", help="sum model and decompiler recovery multisets")
    p.add_argument("--model", required=True)
    p.add_argument("--decompiler", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("score", help="score predictions against truth multisets")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--by", choices=("optimization", "name", "none"),
                   default=evaluate.DEFAULT_BREAKDOWN)
    p.add_argument("--report", help="write the full report as JSON")
    p.add_argument("--per-name-out", help="write per-name metric records")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("correlate", help="correlate target frequency with per-name metrics")
    p.add_argument("--per-name", required=True, help="records from score --per-name-out")
    p.add_argument("--targets", required=True, help="target list with frequencies")
    p.add_argument("--report", help="write correlations as JSON")
    p.set_defaults(func=_cmd_correlate)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, markers.MarkerError,
            classify.ExternalProtocolError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        print(f"uninline {args.command}: error: {detail}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
