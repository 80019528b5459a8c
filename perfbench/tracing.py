"""Spans and counts around each layer's public functions.

`Tracer.install()` rebinds every name under which an `uninline` module
holds a traced function (``classify`` imports ``encode`` from ``bpe`` by
name, so both bindings get the wrapper) and returns a function that puts
the originals back. Nothing under ``src/`` changes.

A span covers one call, or one resumption of a generator such as
``read_jsonl``. Its self time is its duration minus the time its child
spans cover. Counting happens after a span ends and is charged to
neither the span nor its parent, so self times exclude tracer
bookkeeping; `trace.overhead_ratio` shows the bookkeeping instead.
Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from uninline import (
    bpe, classify, cli, coalesce, combine, corpus, ctext, evaluate, jsonl, markers, windows,
)


@dataclass
class Span:
    name: str
    chain: str
    start: float
    parent: int
    end: float = 0.0
    children: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.chain = ""
        self._stack: list[int] = []
        self._seen_lines: set = set()

    def begin_chain(self, chain: str) -> None:
        self.chain = chain
        self._seen_lines = set()

    # ---- span bookkeeping

    def _open(self, name: str, t0: float) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.chain, t0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _charge(self, span: Span, t0: float) -> None:
        if span.parent >= 0:
            self.spans[span.parent].children += perf_counter() - t0

    def _count(self, key: str, n: float) -> None:
        self.counts[self.chain, key] += n

    def wrap(self, name: str | None, fn, count=None):
        """A traced version of `fn`; `count(tracer, args, result)` runs after the span.

        With no name, `fn` only counts and its time stays with its caller.
        """
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self, args, result)
                return result

            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, count)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            span = self._open(name, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self, args, result)
            self._charge(span, t0)
            return result

        return traced

    def _wrap_generator(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                span = self._open(name, t0)
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(span)
                    self._charge(span, t0)
                    return
                except BaseException:
                    self._close(span)
                    self._charge(span, t0)
                    raise
                self._close(span)
                if count is not None:
                    count(self, args, item)
                self._charge(span, t0)
                yield item

        return traced

    # ---- installation

    def install(self):
        """Wrap every traced function under all of its names; returns the undo."""
        undo = []
        modules = [m for n, m in sys.modules.items() if n == "uninline" or n.startswith("uninline.")]
        for owner, attr, name, count in TRACED:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            holders = [owner] if inspect.isclass(owner) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, original))

        def restore():
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

        return restore

    # ---- results

    def totals(self, chain: str) -> dict:
        """Self seconds per span name, plus top-level seconds under ``""``."""
        out: dict = defaultdict(float)
        for span in self.spans:
            if span.chain != chain:
                continue
            out[span.name] += span.self_s
            if span.parent < 0:
                out[""] += span.end - span.start
        return out

    def count(self, chain: str, key: str) -> float:
        return self.counts[chain, key]

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        base = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": s.parent, "chain": s.chain, "name": s.name,
                    "start": s.start - base, "end": s.end - base, "self": s.self_s,
                }) + "\n")


# ---- counters at the layer boundaries


def _functions(t: Tracer, args, result) -> None:
    t._count("corpus.functions", len(result))


def _reconcile(t: Tracer, args, result) -> None:
    body, targets = args
    found = markers.extract_markers(body)
    target_markers = sum(1 for m in found if m.name in targets.name_set)
    t._count("markers.kept", len(result.true_labels))
    t._count("markers.dropped_nontarget", len(found) - target_markers)
    t._count("markers.consumed_by_call", target_markers - len(result.true_labels))


def _merges(t: Tracer, args, result) -> None:
    t._count("bpe.train_bpe.merges", len(result.merges))


def _encode(t: Tracer, args, result) -> None:
    text = args[1]
    raw = text if isinstance(text, bytes) else text.encode("utf-8", "surrogateescape")
    t._count("bpe.encode.calls", 1)
    t._count("bpe.encode.bytes_in", len(raw))
    # bytes in lines this chain pass already encoded: what a per-line cache would skip
    for line in raw.split(b"\n"):
        t._count("bpe.encode.line_bytes", len(line))
        if line in t._seen_lines:
            t._count("bpe.encode.repeat_bytes", len(line))
        else:
            t._seen_lines.add(line)


def _scan(t: Tracer, args, result) -> None:
    t._count("windows.scan_windows.windows", len(result))
    t._count("windows.window_lines", sum(len(w.lines) for w in result))
    t._count("windows.body_lines", len(args[0].lines))


def _rebalance(t: Tracer, args, result) -> None:
    t._count("windows.rebalance.in", len(args[0]))
    t._count("windows.rebalance.kept", len(result))


def _written(key: str):
    def count(t: Tracer, args, result) -> None:
        t._count(key, os.path.getsize(args[0]))
    return count


def _digest(t: Tracer, args, result) -> None:
    t._count("cli.digest_bytes", os.path.getsize(args[0]))


def _calls(key: str):
    def count(t: Tracer, args, result) -> None:
        t._count(key, 1)
    return count


def _round_trips(t: Tracer, args, result) -> None:
    t._count("classify.external.round_trips", len(args[1]))


def _records(t: Tracer, args, result) -> None:
    t._count("combine.records", len(result))


def _write_jsonl(t: Tracer, args, result) -> None:
    t._count("jsonl.write_jsonl.bytes", os.path.getsize(args[0]))
    t._count("jsonl.write_jsonl.records", result)


# (owner, attribute, span name, counter) for every traced function. The
# manifest digests get a counter but no span: they are part of cli.self_s.
TRACED = (
    (cli, "run", "cli", None),
    (cli, "_digest", None, _digest),
    (corpus, "split_functions", "corpus.split_functions", _functions),
    (corpus, "read_functions", "corpus.read_functions", None),
    (corpus, "write_functions", "corpus.write_functions", None),
    (markers, "reconcile_function", "markers.reconcile_function", _reconcile),
    (ctext, "find_call_sites", "ctext.find_call_sites", None),
    (bpe, "train_bpe", "bpe.train_bpe", _merges),
    (bpe, "encode", "bpe.encode", _encode),
    (bpe, "load_vocab", "bpe.load_vocab", None),
    (bpe, "save_vocab", "bpe.save_vocab", None),
    (windows, "scan_windows", "windows.scan_windows", _scan),
    (windows, "rebalance", "windows.rebalance", _rebalance),
    (windows, "read_windows", "windows.read_windows", None),
    (windows, "write_windows", "windows.write_windows", _written("windows.write_windows.bytes")),
    (classify, "fit_token_stats", "classify.fit_token_stats", None),
    (classify, "predict_token_stats", "classify.predict_token_stats",
     _calls("classify.predict_token_stats.calls")),
    (classify.ExternalModelClient, "predict", "classify.external", _round_trips),
    (classify, "save_model", "classify.save_model", _written("classify.save_model.bytes")),
    (classify, "load_model", "classify.load_model", None),
    (coalesce, "coalesce", "coalesce.coalesce", _calls("coalesce.coalesce.sequences")),
    (coalesce, "read_label_sequences", "coalesce.read_label_sequences", None),
    (coalesce, "write_label_sequences", "coalesce.write_label_sequences", None),
    (combine, "combine_recoveries", "combine.combine_recoveries", _records),
    (combine, "read_recoveries", "combine.read_recoveries", None),
    (combine, "write_recoveries", "combine.write_recoveries", None),
    (evaluate, "score_recoveries", "evaluate.score_recoveries", None),
    (jsonl, "read_jsonl", "jsonl.read_jsonl", _calls("jsonl.read_jsonl.records")),
    (jsonl, "write_jsonl", "jsonl.write_jsonl", _write_jsonl),
)
