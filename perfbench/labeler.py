"""External window labeler for `uninline predict --external`.

Usage: python3 labeler.py MODEL_JSON

Speaks the lock-step `uninline-external-labels` v1 protocol on stdin and
stdout. It reads a token-statistics model file written by `uninline fit`
and scores each request's token ids exactly as `predict_token_stats`
does, so its labels agree with the in-process predictor. It needs only
numpy, not the uninline package.
"""

from __future__ import annotations

import json
import sys

import numpy as np

PROTOCOL = {"proto": "uninline-external-labels", "version": 1}


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("kind") != "token_stats":
        raise SystemExit(f"{path}: not a token-statistics model")
    labels = obj["labels"]
    size = obj["vocab_size"]
    counts = np.zeros((len(labels), size), dtype=np.int64)
    for row, col, n in obj["token_counts"]:
        counts[row, col] = n
    window_counts = np.asarray(obj["window_counts"], dtype=np.int64)
    alpha = float(obj["alpha"])
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        priors = np.log(window_counts / window_counts.sum())
    likelihood = np.log((counts + alpha) / (totals + alpha * size))
    return labels, priors, likelihood


def serve(model_path: str, reader, writer) -> None:
    labels, priors, likelihood = load(model_path)

    def send(obj: dict) -> None:
        writer.write(json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n")
        writer.flush()

    for line in reader:
        request = json.loads(line)
        if "proto" in request:
            send(PROTOCOL)
            continue
        ids = request["tokens"]
        scores = priors.copy()
        if ids:
            scores += likelihood[:, ids].sum(axis=1)
        send({"id": request["id"], "label": labels[int(np.argmax(scores))]})


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: labeler.py MODEL_JSON")
    serve(sys.argv[1], sys.stdin.buffer, sys.stdout.buffer)
