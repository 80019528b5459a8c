"""Per-window label predictors.

Three interchangeable kinds:

* prior: ignores window text, samples labels from training frequencies.
  The draw for a window depends only on (seed, sequence position), so a
  replayed run reproduces every label.
* token_stats: additive-smoothed per-label token statistics; predicts
  the label maximizing log prior + sum of token log-likelihoods, ties
  toward EMPTY then lexicographic order.
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
import subprocess
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .bpe import BpeVocab, encode
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


def predict_prior(model: PriorModel, window: WindowInstance, seed: int, position: int = 0) -> str:
    """Sample one label; window text is never read.

    `position` is the window's index in the prediction sequence, making
    each draw a pure function of (seed, position).
    """
    del window
    u = np.random.default_rng((seed, position)).random()
    cum = np.cumsum(model.probs)
    idx = int(np.searchsorted(cum, u, side="right"))
    return model.labels[min(idx, len(model.labels) - 1)]


def predict_prior_sequence(
    model: PriorModel, windows: Sequence[WindowInstance], seed: int, start_position: int = 0
) -> list[str]:
    return [
        predict_prior(model, w, seed, start_position + i) for i, w in enumerate(windows)
    ]


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
        with np.errstate(divide="ignore"):
            priors = np.log(self.window_counts / self.window_counts.sum())
        lik = np.log((self.token_counts + self.alpha) / (totals + self.alpha * self.vocab.size))
        if not np.isfinite(lik).all():
            raise ValueError("smoothed token likelihoods must be finite")
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
    ids = encode(model.vocab, window.text)
    scores = model._log_priors.copy()
    if ids:
        scores += model._log_likelihood[:, ids].sum(axis=1)
    # argmax takes the first maximum; label order already favors EMPTY
    return model.labels[int(np.argmax(scores))]


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


def save_model(path: str | Path, model: PriorModel | TokenStatsModel) -> None:
    if isinstance(model, PriorModel):
        obj = {
            "kind": "prior",
            "labels": list(model.labels),
            "probs": [float(p) for p in model.probs],
        }
    elif isinstance(model, TokenStatsModel):
        rows, cols = np.nonzero(model.token_counts)
        obj = {
            "kind": "token_stats",
            "alpha": model.alpha,
            "vocab_size": model.vocab.size,
            "labels": list(model.labels),
            "window_counts": [int(c) for c in model.window_counts],
            "token_counts": [
                [int(r), int(c), int(model.token_counts[r, c])] for r, c in zip(rows, cols)
            ],
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    atomic_write(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def load_model(path: str | Path, vocab: BpeVocab | None = None) -> PriorModel | TokenStatsModel:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = obj.get("kind")
    if kind == "prior":
        return PriorModel(tuple(obj["labels"]), np.asarray(obj["probs"], dtype=float))
    if kind == "token_stats":
        if vocab is None:
            raise ValueError("loading a token-statistics model requires its vocabulary")
        if vocab.size != obj["vocab_size"]:
            raise ValueError(
                f"vocabulary size {vocab.size} does not match the model's {obj['vocab_size']}"
            )
        labels = tuple(obj["labels"])
        token_counts = np.zeros((len(labels), vocab.size), dtype=np.int64)
        for r, c, n in obj["token_counts"]:
            token_counts[r, c] = n
        return TokenStatsModel(
            labels,
            float(obj["alpha"]),
            vocab,
            np.asarray(obj["window_counts"], dtype=np.int64),
            token_counts,
        )
    raise ValueError(f"{path}: unknown model kind {kind!r}")
