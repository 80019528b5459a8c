"""Per-window label predictors.

Three interchangeable kinds:

* prior: ignores window text, samples labels from training frequencies.
  The draw for a window depends only on (seed, sequence position), so a
  replayed run reproduces every label.
* token_stats: additive-smoothed per-label token statistics; predicts
  the label maximizing log prior + sum of token log-likelihoods, ties
  toward EMPTY then lexicographic order. `predict_token_stats` scores
  one window; `predict_token_stats_batch` scores many from prefix sums
  over the byte streams they share and gives the same labels.
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
label string denotes EMPTY. An unknown label is mapped to EMPTY and
logged; a malformed reply, id mismatch, timeout, or closed stream
raises and drops the whole batch rather than returning partial labels.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import subprocess
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .bpe import BpeVocab, encode, encode_span
from .jsonl import atomic_write
from .windows import EMPTY, WindowInstance

log = logging.getLogger(__name__)

PROTOCOL_NAME = "uninline-external-labels"
PROTOCOL_VERSION = 1


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

    def probability(self, label: str) -> float:
        try:
            return float(self.probs[self.labels.index(label)])
        except ValueError:
            return 0.0


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
    model: PriorModel, windows: Sequence[WindowInstance], seed: int, start_position: int = 0
) -> list[str]:
    cum = np.cumsum(model.probs)
    return [_draw(model, cum, seed, start_position + i) for i in range(len(windows))]


def _draw(model: PriorModel, cum: np.ndarray, seed: int, position: int) -> str:
    u = np.random.default_rng((seed, position)).random()
    idx = int(np.searchsorted(cum, u, side="right"))
    return model.labels[min(idx, len(model.labels) - 1)]


@dataclass(frozen=True, eq=False)
class TokenStatsModel:
    labels: tuple[str, ...]
    alpha: float
    vocab: BpeVocab
    window_counts: np.ndarray  # (labels,)
    token_counts: np.ndarray  # (labels, vocab.size)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("smoothing constant must be positive")
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
    alpha: float = 1.0,
    *,
    extra_labels: Iterable[str] = (),
) -> TokenStatsModel:
    """Count tokens per label; priors stay unsmoothed so unseen labels never win."""
    if not train:
        raise ValueError("cannot fit token statistics on an empty training set")
    labels = _label_order([w.label for w in train] + list(extra_labels))
    index = {l: i for i, l in enumerate(labels)}
    window_counts = np.zeros(len(labels), dtype=np.int64)
    token_counts = np.zeros((len(labels), vocab.size), dtype=np.int64)
    pending = [array("i") for _ in labels]

    def flush(i: int) -> None:
        ids = np.frombuffer(pending[i], dtype=np.intc)
        token_counts[i] += np.bincount(ids, minlength=vocab.size)
        pending[i] = array("i")

    for w in train:
        i = index[w.label]
        window_counts[i] += 1
        pending[i].fromlist(encode(vocab, w.text))
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

    `bpe.encode_span` says where each window lies on the vocabulary's
    stream: its ids are head + toks[lo:hi] + tail. For each stream, one
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
    same label first. A window inside
    that margin, exact ties included, is scored directly from its ids,
    as `predict_token_stats` scores it. A window that lies on no
    indexed stream (the first window of each body) goes to
    `predict_token_stats` itself, which finds it at the start of the
    stream it began. A label with a -inf prior (never seen in training)
    scores -inf on both paths, so it never enters the margin.
    """
    # the largest |prior| of a label seen in training
    prior_mass = -min(p for p in model._log_priors.tolist() if p > -np.inf)
    labels: list[str] = []
    stream, spans = None, []
    for w in windows:
        head, toks, lo, hi, tail = encode_span(model.vocab, w.text)
        if toks is None:  # the window now lies on the stream it started
            labels.append(predict_token_stats(model, w))
            continue
        if toks is not stream:
            _score_stream(model, prior_mass, stream, spans, labels)
            stream, spans = toks, []
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


class ExternalModelClient:
    """Lock-step request/response channel to an external labeler.

    reader/writer are binary streams (subprocess pipes, socket
    makefiles). Read timeouts belong to the transport, e.g.
    socket.settimeout; a timeout surfaces here as a batch error.
    """

    def __init__(
        self,
        reader: BinaryIO,
        writer: BinaryIO,
        vocab: BpeVocab,
        known_labels: Iterable[str] | None = None,
    ):
        self._reader = reader
        self._writer = writer
        self._vocab = vocab
        self._known = None if known_labels is None else frozenset(known_labels)
        self._next_id = 0
        self._ready = False

    def _send(self, obj: dict) -> None:
        payload = json.dumps(obj, separators=(",", ":")) + "\n"
        self._writer.write(payload.encode("utf-8"))
        self._writer.flush()

    def _recv(self) -> dict:
        line = self._reader.readline()
        if not line:
            raise ExternalProtocolError("endpoint closed the stream")
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ExternalProtocolError("endpoint sent a non-object line")
        return obj

    def handshake(self) -> None:
        self._send({"proto": PROTOCOL_NAME, "version": PROTOCOL_VERSION})
        reply = self._recv()
        if reply.get("proto") != PROTOCOL_NAME or reply.get("version") != PROTOCOL_VERSION:
            raise ExternalProtocolError(f"handshake rejected: {reply!r}")
        self._ready = True

    def predict(self, windows: Sequence[WindowInstance]) -> list[str]:
        labels: list[str] = []
        try:
            if not self._ready:
                self.handshake()
            for window in windows:
                rid = self._next_id
                self._next_id += 1
                self._send({"id": rid, "tokens": encode(self._vocab, window.text)})
                reply = self._recv()
                if reply.get("id") != rid:
                    raise ExternalProtocolError(
                        f"response id {reply.get('id')!r} does not match request {rid}"
                    )
                label = reply.get("label")
                if not isinstance(label, str):
                    raise ExternalProtocolError(f"response lacks a string label: {reply!r}")
                if label != EMPTY and self._known is not None and label not in self._known:
                    log.warning("unknown label %r from endpoint; recorded as EMPTY", label)
                    label = EMPTY
                labels.append(label)
        except ExternalProtocolError:
            raise
        except (OSError, ValueError) as exc:
            raise ExternalProtocolError(f"batch failed, partial labels discarded: {exc}") from exc
        return labels


@contextlib.contextmanager
def spawn_external(
    argv: Sequence[str],
    vocab: BpeVocab,
    known_labels: Iterable[str] | None = None,
):
    """Run an external labeler subprocess for the duration of the block.

    On exit the child's stdin is closed, the child is reaped (killed if
    it has not exited within 10 s), and then its stdout is closed.
    """
    proc = subprocess.Popen(list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        yield ExternalModelClient(proc.stdout, proc.stdin, vocab, known_labels)
    finally:
        with contextlib.suppress(OSError):
            proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()


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


def _is_number(value) -> bool:
    # bool is an int subclass; "2" and true are refused
    return type(value) in (int, float) and math.isfinite(value)


def _is_count(value) -> bool:
    return type(value) is int and 0 <= value <= _MAX_COUNT


def _model_from_json(obj: dict, vocab: BpeVocab | None) -> PriorModel | TokenStatsModel:
    kind = obj.get("kind")
    if kind not in ("prior", "token_stats"):
        raise ValueError(f"unknown model kind {kind!r}")
    labels = obj["labels"]
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)
            and len(set(labels)) == len(labels)):
        raise ValueError("field 'labels' must be a list of distinct strings")
    if kind == "prior":
        probs = obj["probs"]
        if not (isinstance(probs, list) and all(_is_number(p) and p >= 0 for p in probs)):
            raise ValueError("field 'probs' must be a list of non-negative numbers")
        return PriorModel(tuple(labels), np.asarray(probs, dtype=float))
    if vocab is None:
        raise ValueError("loading a token-statistics model requires its vocabulary")
    size = obj["vocab_size"]
    if type(size) is not int:
        raise ValueError(f"field 'vocab_size' must be an integer, not {size!r}")
    if vocab.size != size:
        raise ValueError(f"vocabulary size {vocab.size} does not match the model's {size}")
    alpha = obj["alpha"]
    if not (_is_number(alpha) and alpha > 0):
        raise ValueError(f"field 'alpha' must be a positive number, not {alpha!r}")
    window_counts = obj["window_counts"]
    if not (isinstance(window_counts, list) and len(window_counts) == len(labels)
            and all(map(_is_count, window_counts)) and any(window_counts)):
        raise ValueError(f"field 'window_counts' must be {len(labels)} non-negative "
                         "integers, one per label, not all zero")
    triples = obj["token_counts"]
    if not isinstance(triples, list):
        raise ValueError("field 'token_counts' must be a list")
    rows = len(labels)
    token_counts = np.zeros((rows, size), dtype=np.int64)
    for triple in triples:
        if not (type(triple) is list and len(triple) == 3):
            raise ValueError(f"field 'token_counts' holds {triple!r}, not [row, id, count]")
        r, c, n = triple
        if not (type(r) is type(c) is int and 0 <= r < rows and 0 <= c < size and _is_count(n)):
            raise ValueError(f"field 'token_counts' holds {triple!r}: row, id or count "
                             f"outside a {rows} by {size} table of non-negative integers")
        token_counts[r, c] = n
    if len({(r, c) for r, c, _ in triples}) != len(triples):
        raise ValueError("field 'token_counts' lists a (row, id) cell twice")
    return TokenStatsModel(tuple(labels), float(alpha), vocab,
                           np.asarray(window_counts, dtype=np.int64), token_counts)
