"""Predictors: prior baseline, token statistics, external protocol."""

from __future__ import annotations

import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from uninline.bpe import encode, train_bpe
from uninline.classify import (
    ExternalProtocolError,
    PriorModel,
    fit_prior,
    fit_token_stats,
    load_model,
    predict_prior,
    predict_prior_sequence,
    predict_token_stats,
    save_model,
    spawn_external,
)
from uninline.corpus import FunctionId
from uninline.windows import EMPTY, WindowInstance

FID = FunctionId("x.c", "f", 0)


def _w(text: str, label: str = EMPTY, start: int = 0) -> WindowInstance:
    return WindowInstance(FID, start, tuple(text.split("\n")), label)


def test_fit_prior_counts_frequencies() -> None:
    train = [_w("a")] * 80 + [_w("b", "memset")] * 20
    model = fit_prior(train)
    assert model.labels == (EMPTY, "memset")
    assert model.probability(EMPTY) == pytest.approx(0.8)
    assert model.probability("memset") == pytest.approx(0.2)


def test_fit_prior_single_label() -> None:
    model = fit_prior([_w("a", "strcpy")] * 7)
    assert model.probability("strcpy") == 1.0


def test_fit_prior_three_label_tally() -> None:
    train = [_w("x")] * 5 + [_w("x", "aa")] * 3 + [_w("x", "bb")] * 2
    model = fit_prior(train)
    assert model.probability(EMPTY) == pytest.approx(0.5)
    assert model.probability("aa") == pytest.approx(0.3)
    assert model.probability("bb") == pytest.approx(0.2)


def test_fit_prior_empty_refused() -> None:
    with pytest.raises(ValueError):
        fit_prior([])


def test_prior_replay_is_identical() -> None:
    model = fit_prior([_w("a")] * 3 + [_w("a", "memset")] * 2)
    ws = [_w("whatever", start=i) for i in range(500)]
    first = predict_prior_sequence(model, ws, seed=42)
    second = predict_prior_sequence(model, ws, seed=42)
    assert first == second
    assert first != predict_prior_sequence(model, ws, seed=43)


def test_prior_degenerate_always_empty() -> None:
    model = PriorModel((EMPTY,), np.array([1.0]))
    assert all(
        predict_prior(model, _w("x"), seed=s, position=p) == EMPTY
        for s in range(5)
        for p in range(50)
    )


def test_prior_never_reads_window_text() -> None:
    model = fit_prior([_w("a")] * 3 + [_w("a", "memset")] * 7)
    a = [predict_prior(model, _w("alpha"), seed=1, position=i) for i in range(100)]
    b = [predict_prior(model, _w("totally different"), seed=1, position=i) for i in range(100)]
    assert a == b


def test_prior_sample_frequencies_within_3_sigma() -> None:
    probs = {EMPTY: 0.7, "aa": 0.2, "bb": 0.1}
    train = (
        [_w("x")] * 70 + [_w("x", "aa")] * 20 + [_w("x", "bb")] * 10
    )
    model = fit_prior(train)
    n = 100_000
    ws = [_w("x", start=i) for i in range(n)]
    drawn = Counter(predict_prior_sequence(model, ws, seed=5))
    for label, p in probs.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(drawn[label] - n * p) <= 3 * sigma, label


def test_prior_model_validation() -> None:
    with pytest.raises(ValueError):
        PriorModel((EMPTY,), np.array([0.5]))  # does not sum to 1
    with pytest.raises(ValueError):
        PriorModel((EMPTY, "a"), np.array([1.5, -0.5]))


TOKEN_TRAIN = (
    [_w("MEMSETPAT(p, 0, n);\niVar1 = iVar1 + 1;", "memset")] * 3
    + [_w("STRCPYPAT(d, s);\niVar1 = iVar1 + 1;", "strcpy")] * 2
    + [_w("iVar1 = iVar1 + 1;\nreturn iVar1;")] * 5
)


def _token_vocab():
    # min_frequency 4 keeps the 3-occurrence pattern text at byte
    # granularity, so probes with fresh arguments still share its tokens
    return train_bpe([w.text for w in TOKEN_TRAIN], vocab_size=300, min_frequency=4)


def test_token_stats_planted_pattern_wins() -> None:
    vocab = _token_vocab()
    model = fit_token_stats(TOKEN_TRAIN, vocab, alpha=1.0)
    probe = _w("MEMSETPAT(q, 0, 64);")
    assert predict_token_stats(model, probe) == "memset"

    # recompute both class scores from raw counts, independently
    ids = encode(vocab, probe.text)
    scores = {}
    for label in (EMPTY, "memset", "strcpy"):
        members = [w for w in TOKEN_TRAIN if w.label == label]
        counts: Counter = Counter()
        for w in members:
            counts.update(encode(vocab, w.text))
        total = sum(counts.values())
        score = math.log(len(members) / len(TOKEN_TRAIN))
        for t in ids:
            score += math.log((counts[t] + 1.0) / (total + 1.0 * vocab.size))
        scores[label] = score
    assert max(scores, key=scores.get) == "memset"
    assert scores["memset"] > scores[EMPTY]
    assert scores["memset"] > scores["strcpy"]


def test_token_stats_empty_text_uses_priors() -> None:
    vocab = _token_vocab()
    model = fit_token_stats(TOKEN_TRAIN, vocab)
    # EMPTY is the most frequent training label
    assert predict_token_stats(model, _w("")) == EMPTY


def test_token_stats_deterministic() -> None:
    vocab = _token_vocab()
    model = fit_token_stats(TOKEN_TRAIN, vocab)
    probe = _w("STRCPYPAT(a, b);")
    assert predict_token_stats(model, probe) == predict_token_stats(model, probe)


def test_token_stats_unseen_label_never_changes_argmax() -> None:
    vocab = _token_vocab()
    base = fit_token_stats(TOKEN_TRAIN, vocab)
    extended = fit_token_stats(TOKEN_TRAIN, vocab, extra_labels=("neverseen",))
    probes = [_w("MEMSETPAT(p, 0, 1);"), _w("STRCPYPAT(d, s);"), _w("iVar1 = iVar1 + 1;")]
    for probe in probes:
        assert predict_token_stats(base, probe) == predict_token_stats(extended, probe)


def test_token_stats_requires_positive_alpha() -> None:
    vocab = _token_vocab()
    with pytest.raises(ValueError):
        fit_token_stats(TOKEN_TRAIN, vocab, alpha=0.0)


def test_model_file_roundtrip_prior(tmp_path) -> None:
    model = fit_prior([_w("a")] * 3 + [_w("b", "memset")] * 1)
    path = tmp_path / "prior.json"
    save_model(path, model)
    back = load_model(path)
    assert back.labels == model.labels
    assert np.allclose(back.probs, model.probs)


def test_model_file_roundtrip_token_stats(tmp_path) -> None:
    vocab = _token_vocab()
    model = fit_token_stats(TOKEN_TRAIN, vocab)
    path = tmp_path / "stats.json"
    save_model(path, model)
    back = load_model(path, vocab)
    for probe in (_w("MEMSETPAT(p, 0, 1);"), _w("unrelated"), _w("")):
        assert predict_token_stats(back, probe) == predict_token_stats(model, probe)
    with pytest.raises(ValueError):
        load_model(path)  # vocabulary required
    small = train_bpe(["zz"], vocab_size=257, min_frequency=2)
    with pytest.raises(ValueError):
        load_model(path, small)  # size mismatch


SERVER_OK = """\
import json, sys
hs = json.loads(sys.stdin.readline())
sys.stdout.write(json.dumps(hs) + "\\n"); sys.stdout.flush()
labels = ["memset", "", "mystery_function"]
for line in sys.stdin:
    req = json.loads(line)
    out = {"id": req["id"], "label": labels[req["id"] % 3]}
    sys.stdout.write(json.dumps(out) + "\\n"); sys.stdout.flush()
"""

SERVER_BAD_HANDSHAKE = """\
import json, sys
sys.stdin.readline()
sys.stdout.write(json.dumps({"proto": "something-else", "version": 0}) + "\\n")
sys.stdout.flush()
"""

SERVER_WRONG_ID = """\
import json, sys
hs = json.loads(sys.stdin.readline())
sys.stdout.write(json.dumps(hs) + "\\n"); sys.stdout.flush()
for line in sys.stdin:
    req = json.loads(line)
    out = {"id": req["id"] + 7, "label": ""}
    sys.stdout.write(json.dumps(out) + "\\n"); sys.stdout.flush()
"""


def _server(tmp_path, code: str) -> list[str]:
    path = tmp_path / "server.py"
    path.write_text(code)
    return [sys.executable, str(path)]


def test_external_predict_and_unknown_label_mapping(tmp_path, caplog) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    ws = [_w("one"), _w("two"), _w("three")]
    with spawn_external(_server(tmp_path, SERVER_OK), vocab, known_labels={"memset"}) as client:
        with caplog.at_level("WARNING"):
            labels = client.predict(ws)
    assert labels == ["memset", EMPTY, EMPTY]
    assert "mystery_function" in caplog.text


def test_external_ids_increase_across_batches(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    with spawn_external(_server(tmp_path, SERVER_OK), vocab) as client:
        first = client.predict([_w("a"), _w("b")])
        second = client.predict([_w("c")])
    # ids 0,1 then 2 -> labels cycle through the server's table
    assert first == ["memset", EMPTY]
    assert second == ["mystery_function"]


def test_external_rejects_bad_handshake(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    with spawn_external(_server(tmp_path, SERVER_BAD_HANDSHAKE), vocab) as client:
        with pytest.raises(ExternalProtocolError):
            client.predict([_w("a")])


def test_external_rejects_id_mismatch(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    with spawn_external(_server(tmp_path, SERVER_WRONG_ID), vocab) as client:
        with pytest.raises(ExternalProtocolError):
            client.predict([_w("a")])


def test_external_reader_closed_when_the_block_exits(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    with spawn_external(_server(tmp_path, SERVER_OK), vocab) as client:
        client.predict([_w("a")])
        assert not client._reader.closed
    assert client._reader.closed


def test_external_reader_closed_after_a_kill(monkeypatch) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    real_wait = subprocess.Popen.wait

    def impatient_wait(self, timeout=None):
        if timeout is not None:
            raise subprocess.TimeoutExpired(self.args, timeout)
        return real_wait(self)

    monkeypatch.setattr(subprocess.Popen, "wait", impatient_wait)
    argv = [sys.executable, "-c", "import time; time.sleep(60)"]  # ignores its stdin
    with spawn_external(argv, vocab) as client:
        pass
    assert client._reader.closed


def test_external_closed_stream_is_batch_error(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    argv = [sys.executable, "-c", "pass"]  # exits immediately
    with spawn_external(argv, vocab) as client:
        with pytest.raises(ExternalProtocolError):
            client.predict([_w("a")])
