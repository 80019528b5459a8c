"""Per-window label predictors.

Three interchangeable kinds:

* prior: ignores window text, samples labels from training frequencies.
  The window at position i of a sequence takes the draw of (seed, i),
  so a replayed run reproduces every label, and a prefix of a sequence
  draws what the whole sequence draws there.
* token_stats: additive-smoothed per-label token statistics; predicts
  the label maximizing log prior + sum of token log-likelihoods, ties
  toward EMPTY then lexicographic order. Priors are not smoothed: a
  label with no training window has a -inf prior and never wins.
  `predict_token_stats` scores one window; `predict_token_stats_batch`
  scores many from prefix sums over the byte streams they share and
  gives the same labels.
* external: a separate process or socket speaking a newline-delimited
  JSON protocol; this module tokenizes, the endpoint labels.

Wire protocol (one JSON object per line over a byte stream):

    -> {"proto": "uninline-external-labels", "version": 1}
    <- {"proto": "uninline-external-labels", "version": 1}
    -> {"id": 0, "tokens": [105, 110, 116, ...]}
    <- {"id": 0, "label": "memset"}
    -> {"id": 1, "tokens": [...]}
    <- {"id": 1, "label": ""}

Request ids increase strictly over the life of a connection; an empty
label string denotes EMPTY. Replies come in request order, but the
client sends requests ahead of them: the endpoint may hold several
requests unanswered, and one that answers each line as it reads it
qualifies. An unknown label is mapped to EMPTY and logged; a malformed
reply, id mismatch, timeout, or closed stream raises and drops the
whole batch rather than returning partial labels. One loop writes the
requests and reads the replies, no wait on the endpoint lasts over the
client's timeout, and `spawn_external` kills a child whose batch failed.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import select
import subprocess
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import tee
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .bpe import BpeVocab, encode, encode_each, encode_spans
from .jsonl import (COUNT, INTEGER, LIST, NUMBER, STRING, STRINGS, Kind, atomic_write,
                    check, check_text, check_texts, dump_line, field)
from .rng import doubles
from .windows import EMPTY, WindowInstance

log = logging.getLogger(__name__)

PROTOCOL_NAME = "uninline-external-labels"
PROTOCOL_VERSION = 1
DEFAULT_ALPHA = 1.0  # additive smoothing of token counts, `fit_token_stats`'s default


def _label_order(labels: Iterable[str]) -> tuple[str, ...]:
    # EMPTY first so exact score ties resolve toward it, then lexicographic
    return tuple(sorted(set(labels), key=lambda l: (l != EMPTY, l)))


@dataclass(frozen=True, eq=False)
class PriorModel:
    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        if len(self.labels) != len(self.probs) or not len(self.labels):
            raise ValueError("labels and probabilities must align and be nonempty")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")


def fit_prior(train: Sequence[WindowInstance]) -> PriorModel:
    """Label frequency over the training windows, EMPTY included."""
    if not train:
        raise ValueError("cannot fit a prior on an empty training set")
    labels = _label_order(w.label for w in train)
    index = {l: i for i, l in enumerate(labels)}
    counts = np.zeros(len(labels), dtype=np.int64)
    for w in train:
        counts[index[w.label]] += 1
    return PriorModel(labels, counts / counts.sum())


def predict_prior_sequence(
    model: PriorModel, windows: Sequence[WindowInstance], seed: int
) -> list[str]:
    """One label per window; the window at position i takes the draw of (seed, i)."""
    cum = np.cumsum(model.probs).tolist()
    return [_draw(model, cum, seed, i) for i in range(len(windows))]


def _draw(model: PriorModel, cum: list[float], seed: int, position: int) -> str:
    """The label at the first draw of numpy's `default_rng((seed, position))`."""
    idx = bisect_right(cum, next(doubles((seed, position))))
    return model.labels[min(idx, len(model.labels) - 1)]


@dataclass(frozen=True, eq=False)
class TokenStatsModel:
    labels: tuple[str, ...]
    alpha: float
    vocab: BpeVocab
    window_counts: np.ndarray  # (labels,)
    token_counts: np.ndarray  # (labels, vocab.size)

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("smoothing constant must be positive and finite")
        if self.token_counts.shape != (len(self.labels), self.vocab.size):
            raise ValueError("token count table shape disagrees with labels or vocabulary")
        totals = self.token_counts.sum(axis=1, keepdims=True)
        # a bad count or constant is refused by the value it gives, never by a warning:
        # a NaN, an infinity or a log that is not negative
        with np.errstate(all="ignore"):
            priors = np.log(self.window_counts / self.window_counts.sum())
            lik = np.log((self.token_counts + self.alpha)
                         / (totals + self.alpha * self.vocab.size))
        # argmax takes a NaN as the maximum, and is the kernel the scorer uses
        if not -np.inf < priors[priors.argmax()] <= 0:
            raise ValueError("log priors must be finite for some label and never positive")
        if not (np.isfinite(lik).all() and lik.flat[lik.argmax()] < 0):
            raise ValueError("smoothed token log-likelihoods must be finite and negative")
        object.__setattr__(self, "_log_priors", priors)
        object.__setattr__(self, "_log_likelihood", lik)


def fit_token_stats(
    train: Sequence[WindowInstance],
    vocab: BpeVocab,
    alpha: float = DEFAULT_ALPHA,
) -> TokenStatsModel:
    """Count tokens per label of the training windows, and the windows of each label."""
    if not train:
        raise ValueError("cannot fit token statistics on an empty training set")
    labels = _label_order(w.label for w in train)
    index = {l: i for i, l in enumerate(labels)}
    window_counts = np.zeros(len(labels), dtype=np.int64)
    token_counts = np.zeros((len(labels), vocab.size), dtype=np.int64)
    pending = [array("i") for _ in labels]

    def flush(i: int) -> None:
        ids = np.frombuffer(pending[i], dtype=np.intc)
        token_counts[i] += np.bincount(ids, minlength=vocab.size)
        pending[i] = array("i")

    for w, ids in zip(train, encode_each(vocab, (w.text for w in train))):
        i = index[w.label]
        window_counts[i] += 1
        pending[i].fromlist(ids)
        # a bincount costs O(vocab.size): batch that many ids per label, and no more
        if len(pending[i]) >= vocab.size:
            flush(i)
    for i in range(len(labels)):
        flush(i)
    return TokenStatsModel(labels, alpha, vocab, window_counts, token_counts)


def predict_token_stats(model: TokenStatsModel, window: WindowInstance) -> str:
    return _top_label(model, encode(model.vocab, window.text))


def _top_label(model: TokenStatsModel, ids: Sequence[int]) -> str:
    """The label of the largest log prior plus summed token log-likelihoods."""
    scores = model._log_priors.copy()
    if ids:
        scores += model._log_likelihood[:, ids].sum(axis=1)
    # argmax takes the first maximum; label order already favors EMPTY
    return model.labels[int(np.argmax(scores))]


# unit roundoff of float64
_U = 2.0 ** -53


def predict_token_stats_batch(model: TokenStatsModel,
                              windows: Iterable[WindowInstance]) -> list[str]:
    """`predict_token_stats` of each window, scored one byte stream at a time.

    The windows are laid on the byte streams of one pass
    (`bpe.encode_spans`). A window that starts a stream is scored by
    `predict_token_stats`, which encodes it alone, so a body of one
    window is encoded once and has no stream step. Any later window's
    ids are head + toks[lo:hi] + tail of its stream, which is encoded
    once all its windows are laid. For each stream, one
    cumulative sum P of log-likelihoods runs over ids = [0, *toks,
    every window's head and tail ids], so a window's score is prior +
    (P[hi] - P[lo]) + (P[e1] - P[e0]), where ids[e0 + 1..e1] are its
    head and tail. A stream is scored and dropped when the next one
    starts, so memory is bounded by one body.

    The labels are those of `predict_token_stats`, exactly. Any
    summation order of m terms is within gamma_m * sum|terms| of the
    exact sum, gamma_m = m*u / (1 - m*u) (Higham, Accuracy and
    Stability of Numerical Algorithms, section 4). Both the prefix path
    and the direct sum are such orders over at most m = 4 * len(ids) + 1
    terms. No term is positive, an invariant `TokenStatsModel` checks
    (every log-likelihood negative, no log prior positive), so a
    window's sum|terms| for a label is at most its mass, |prior| -
    (P[hi] + P[lo] + P[e1] + P[e0]), up to a factor 1 + gamma_m. Where
    the top score leads the second by more than 16 * gamma_m times the
    largest mass (two scores, each off by both paths' errors, with room
    for the rounding of the mass and the margin), both paths rank the
    same label first. A window inside that margin, exact ties included,
    is scored directly from its ids, as `predict_token_stats` scores
    it. A label with a -inf prior (never seen in training) scores -inf
    on both paths, so it never enters the margin.
    """
    # the largest |prior| of a label seen in training
    prior_mass = -min(p for p in model._log_priors.tolist() if p > -np.inf)
    labels: list[str] = []
    stream, spans = None, []
    windows, laid = tee(windows)
    for w, span in zip(windows, encode_spans(model.vocab, (w.text for w in laid))):
        if span is None:  # a new stream: every window of the last one is in
            _score_stream(model, prior_mass, stream, spans, labels)
            spans = []
            labels.append(predict_token_stats(model, w))
            continue
        head, stream, lo, hi, tail = span
        spans.append((len(labels), head, lo, hi, tail))
        labels.append(EMPTY)
    _score_stream(model, prior_mass, stream, spans, labels)
    return labels


def _score_stream(model: TokenStatsModel, prior_mass: float, toks, spans,
                  labels: list[str]) -> None:
    """Fill in the labels of the windows `spans` that lie on the stream `toks`."""
    if not spans:
        return
    # P[k] sums ids[0..k] and toks[t] is ids[t + 1]: toks[lo:hi] sums to
    # P[hi] - P[lo], and a window's edge ids, ids[e0 + 1..e1], to P[e1] - P[e0]
    ids = [0, *toks[:max(span[3] for span in spans)]]
    ends: list[list[int]] = [[], [], [], []]  # hi, lo, e1, e0 of each window
    for _, head, lo, hi, tail in spans:
        e0 = len(ids) - 1
        for end, at in zip(ends, (hi, lo, e0 + len(head) + len(tail), e0)):
            end.append(at)
        ids += head
        ids += tail
    m = 4 * len(ids) + 1
    gamma = m * _U / (1 - m * _U) if m * _U < 0.01 else np.inf
    P = model._log_likelihood[:, ids]
    np.cumsum(P, axis=1, out=P)
    p_hi, p_lo, p_e1, p_e0 = (P[:, end] for end in ends)
    del P
    scores = model._log_priors[:, None] + ((p_hi - p_lo) + (p_e1 - p_e0))
    mass = prior_mass - (p_hi + p_lo + p_e1 + p_e0)
    cols = np.arange(len(spans))
    best = scores.argmax(axis=0)
    top = scores[best, cols]
    scores[best, cols] = -np.inf
    margins = (top - scores[scores.argmax(axis=0), cols]).tolist()
    masses = mass[mass.argmax(axis=0), cols].tolist()
    for (i, head, lo, hi, tail), b, margin, most in zip(spans, best.tolist(), margins, masses):
        labels[i] = (model.labels[b] if margin > 16 * gamma * most
                     else _top_label(model, [*head, *toks[lo:hi], *tail]))


class ExternalProtocolError(RuntimeError):
    pass


# seconds: the longest a client waits on its labeler at any one time
DEFAULT_TIMEOUT = 60.0
# seconds: poll takes its timeout as a C int of milliseconds
MAX_TIMEOUT = (2 ** 31 - 1) / 1000


def _recv(replies: Iterator[bytes]) -> dict:
    line = next(replies, b"")
    if not line:
        raise ExternalProtocolError("endpoint closed the stream")
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ExternalProtocolError("endpoint sent a non-object line")
    return obj


# bytes of request lines written at once: a write per line would wake the
# labeler for each one, and the two processes would take turns line by line
_BLOCK = 1 << 16


def _blocks(lines: Iterable[bytes], limit: int = _BLOCK) -> Iterator[bytes]:
    """`lines` joined into blocks of at most `limit` bytes; a longer line is a block alone."""
    block: list[bytes] = []
    size = 0
    for line in lines:
        if block and size + len(line) > limit:
            yield b"".join(block)
            block, size = [], 0
        block.append(line)
        size += len(line)
    if block:
        yield b"".join(block)


def _wait(events: dict[int, int], timeout: float) -> bool:
    """Whether one of `events` (descriptor -> poll mask) comes within `timeout` seconds."""
    poller = select.poll()
    for fd, mask in events.items():
        poller.register(fd, mask)
    return bool(poller.poll(timeout * 1000))


class ExternalModelClient:
    """Request/response channel to an external labeler, answered in order.

    reader/writer are unbuffered binary files (subprocess pipes, socket
    makefiles with buffering=0), which may share one descriptor; the
    client makes them non-blocking. No wait lasts over `timeout`
    seconds, which must be positive and at most `MAX_TIMEOUT`. A batch
    error sets `failed`: requests and replies are then out of step for
    good.
    """

    def __init__(
        self,
        reader: BinaryIO,
        writer: BinaryIO,
        vocab: BpeVocab,
        known_labels: Iterable[str] | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        if not 0 < timeout <= MAX_TIMEOUT:
            raise ValueError(f"timeout must be a positive number of seconds, "
                             f"at most {MAX_TIMEOUT}, not {timeout:g}")
        self._reader = reader
        self._writer = writer
        self._in, self._out = reader.fileno(), writer.fileno()
        for fd in (self._in, self._out):
            os.set_blocking(fd, False)
        self._vocab = vocab
        self._known = None if known_labels is None else frozenset(known_labels)
        self._timeout = timeout
        self._buffer = bytearray()  # endpoint bytes not yet taken as lines
        self._next_id = 0
        self._ready = False
        self.failed = False

    def _lines(self, requests: Iterable[bytes]) -> Iterator[bytes]:
        """The endpoint's lines, while `requests` are written as it takes them.

        Each turn writes what the endpoint takes of the pending request
        and reads what it has sent, so neither side waits on the other's
        full pipe. When neither moves, it polls for the endpoint's bytes
        and, while a request is pending, for room to write; a poll that
        waits over the timeout raises TimeoutError.
        """
        requests = iter(requests)
        pending = memoryview(b"")
        while True:
            while end := self._buffer.find(b"\n") + 1:
                line = bytes(self._buffer[:end])
                del self._buffer[:end]
                yield line
            pending = pending or memoryview(next(requests, b""))
            try:
                wrote = os.write(self._out, pending) if pending else 0
            except BlockingIOError:
                wrote = 0
            pending = pending[wrote:]
            try:
                chunk = os.read(self._in, 1 << 16)
            except BlockingIOError:
                if wrote:
                    continue
                events = {self._in: select.POLLIN}
                if pending:  # one socket may serve both ways: one mask holds both events
                    events[self._out] = events.get(self._out, 0) | select.POLLOUT
                if not _wait(events, self._timeout):
                    raise TimeoutError(f"labeler sent nothing for {self._timeout:g} s") from None
                continue
            if not chunk:
                break
            self._buffer += chunk
        if self._buffer:  # the bytes after the stream's last newline
            line = bytes(self._buffer)
            self._buffer.clear()
            yield line

    def handshake(self) -> None:
        hello = dump_line({"proto": PROTOCOL_NAME, "version": PROTOCOL_VERSION})
        reply = _recv(self._lines([hello.encode("utf-8") + b"\n"]))
        try:
            # by kind first: true and 1.0 equal version 1 in Python
            proto = check("proto", reply.get("proto"), STRING)
            version = check("version", reply.get("version"), INTEGER)
        except ValueError as exc:
            raise ExternalProtocolError(f"handshake rejected: {exc}") from None
        if proto != PROTOCOL_NAME or version != PROTOCOL_VERSION:
            raise ExternalProtocolError(f"handshake rejected: {reply!r}")
        self._ready = True

    def predict(self, windows: Sequence[WindowInstance]) -> list[str]:
        labels: list[str] = []
        try:
            if not self._ready:
                self.handshake()
            first = self._next_id
            self._next_id += len(windows)
            ids = encode_each(self._vocab, (w.text for w in windows))
            replies = self._lines(_blocks(
                dump_line({"id": rid, "tokens": toks}).encode("utf-8") + b"\n"
                for rid, toks in enumerate(ids, first)))
            for rid in range(first, self._next_id):
                reply = _recv(replies)
                if check("id", reply.get("id"), INTEGER) != rid:
                    raise ExternalProtocolError(
                        f"response id {reply['id']!r} does not match request {rid}"
                    )
                label = check_text("label", check("label", reply.get("label"), STRING))
                if label != EMPTY and self._known is not None and label not in self._known:
                    log.warning("unknown label %r from endpoint; recorded as EMPTY", label)
                    label = EMPTY
                labels.append(label)
        except (OSError, ValueError) as exc:
            raise ExternalProtocolError(f"batch failed, partial labels discarded: {exc}") from exc
        finally:
            self.failed |= len(labels) < len(windows)  # cut short: replies now out of step
        return labels


def _reap(proc: subprocess.Popen, timeout: float) -> None:
    """Wait at most `timeout` seconds for `proc` to exit, then reap it."""
    try:
        exited = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):  # no pidfd on this system: Popen.wait polls
        proc.wait(timeout)
        return
    try:
        if not _wait({exited: select.POLLIN}, timeout):
            raise TimeoutError(f"labeler did not exit within {timeout:g} s "
                               "of its input closing")
    finally:
        os.close(exited)
    proc.wait()


@contextlib.contextmanager
def spawn_external(
    argv: Sequence[str],
    vocab: BpeVocab,
    known_labels: Iterable[str] | None = None,
    timeout: float = DEFAULT_TIMEOUT,
):
    """Run an external labeler subprocess for the duration of the block.

    No wait on the child lasts over `timeout` seconds: for its
    handshake, for it to accept request bytes, for its next reply
    bytes, or for it to exit. When the block ends, the child's stdin is
    closed, its stdout read to the end and the child reaped; a wait
    there that times out raises ExternalProtocolError. If anything
    raises, or a batch failed, the child is killed.
    """
    with subprocess.Popen(list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          bufsize=0) as proc:  # which closes both pipes on the way out
        try:
            client = ExternalModelClient(proc.stdout, proc.stdin, vocab, known_labels, timeout)
            yield client
            if client.failed:
                return  # its requests and replies are out of step: the child is killed
            try:
                proc.stdin.close()
                for _ in client._lines(()):  # to end of stream, which the child's exit brings
                    pass
                _reap(proc, timeout)
            except (TimeoutError, subprocess.TimeoutExpired) as exc:
                raise ExternalProtocolError(f"{exc}; killed") from None
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()


# one token_counts triple, indented as json.dumps(indent=1) indents it
_TRIPLE = "  [\n   %d,\n   %d,\n   %d\n  ]"


def save_model(path: str | Path, model: PriorModel | TokenStatsModel) -> None:
    if isinstance(model, PriorModel):
        obj = {
            "kind": "prior",
            "labels": list(model.labels),
            "probs": [float(p) for p in model.probs],
        }
    elif isinstance(model, TokenStatsModel):
        obj = {
            "kind": "token_stats",
            "alpha": model.alpha,
            "vocab_size": model.vocab.size,
            "labels": list(model.labels),
            "window_counts": [int(c) for c in model.window_counts],
            "token_counts": [],
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    if isinstance(model, TokenStatsModel) and model.token_counts.any():
        # the (row, col, count) triples, as json.dumps(indent=1) lays them out, at
        # a fraction of the cost of its pure-Python indenting encoder
        rows, cols = np.nonzero(model.token_counts)
        triples = zip(rows.tolist(), cols.tolist(), model.token_counts[rows, cols].tolist())
        listed = ",\n".join([_TRIPLE % triple for triple in triples])
        text = text.replace('\n "token_counts": []', f'\n "token_counts": [\n{listed}\n ]', 1)
    atomic_write(path, text)


def load_model(path: str | Path, vocab: BpeVocab | None = None) -> PriorModel | TokenStatsModel:
    """Read a model file; an error names the path and, for a bad value, its field.

    Nothing is coerced: labels are distinct strings, probabilities and
    the smoothing constant finite numbers, counts non-negative integers,
    and each `token_counts` entry a [label row, token id, count] triple
    for a cell inside the table that no other entry names.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
        return _model_from_json(obj, vocab)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_MAX_COUNT = int(np.iinfo(np.int64).max)
_PROBS = Kind(lambda v: LIST.test(v) and all(NUMBER.test(p) and p >= 0 for p in v),
              "a list of non-negative numbers")
_ALPHA = Kind(lambda v: NUMBER.test(v) and v > 0, "a positive number")


def _model_from_json(obj: dict, vocab: BpeVocab | None) -> PriorModel | TokenStatsModel:
    kind = obj.get("kind")
    if kind not in ("prior", "token_stats"):
        raise ValueError(f"unknown model kind {kind!r}")
    labels = check_texts("labels", field(obj, "labels", STRINGS))
    if len(set(labels)) != len(labels):
        raise ValueError("field 'labels' must be a list of distinct strings")
    if kind == "prior":
        return PriorModel(tuple(labels), np.asarray(field(obj, "probs", _PROBS), dtype=float))
    if vocab is None:
        raise ValueError("loading a token-statistics model requires its vocabulary")
    size = field(obj, "vocab_size", INTEGER)
    if vocab.size != size:
        raise ValueError(f"vocabulary size {vocab.size} does not match the model's {size}")
    alpha = field(obj, "alpha", _ALPHA)
    window_counts = obj["window_counts"]
    if not (LIST.test(window_counts) and len(window_counts) == len(labels)
            and all(COUNT.test(n) and n <= _MAX_COUNT for n in window_counts)
            and any(window_counts)):
        raise ValueError(f"field 'window_counts' must be {len(labels)} non-negative "
                         "integers, one per label, not all zero")
    triples = field(obj, "token_counts", LIST)
    rows = len(labels)
    token_counts = np.zeros((rows, size), dtype=np.int64)
    for triple in triples:
        if not (LIST.test(triple) and len(triple) == 3):
            raise ValueError(f"field 'token_counts' holds {triple!r}, not [row, id, count]")
        r, c, n = triple
        if not (INTEGER.test(r) and INTEGER.test(c) and 0 <= r < rows and 0 <= c < size
                and COUNT.test(n) and n <= _MAX_COUNT):
            raise ValueError(f"field 'token_counts' holds {triple!r}: row, id or count "
                             f"outside a {rows} by {size} table of non-negative integers")
        token_counts[r, c] = n
    if len({(r, c) for r, c, _ in triples}) != len(triples):
        raise ValueError("field 'token_counts' lists a (row, id) cell twice")
    return TokenStatsModel(tuple(labels), float(alpha), vocab,
                           np.asarray(window_counts, dtype=np.int64), token_counts)
