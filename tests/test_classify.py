"""Predictors: prior baseline, token statistics, external protocol."""

from __future__ import annotations

import contextlib
import json
import math
import random
import socket
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uninline import bpe, classify
from uninline.bpe import BpeVocab, encode, train_bpe
from uninline.classify import (
    ExternalModelClient,
    ExternalProtocolError,
    PriorModel,
    TokenStatsModel,
    fit_prior,
    fit_token_stats,
    load_model,
    predict_prior_sequence,
    predict_token_stats,
    predict_token_stats_batch,
    save_model,
    spawn_external,
)
from uninline.corpus import FunctionId
from uninline.jsonl import dump_line
from uninline.windows import EMPTY, WindowInstance

FID = FunctionId("x.c", "f", 0)


def _w(text: str, label: str = EMPTY, start: int = 0) -> WindowInstance:
    return WindowInstance(FID, start, text, label)


def test_fit_prior_counts_frequencies() -> None:
    train = [_w("a")] * 80 + [_w("b", "memset")] * 20
    model = fit_prior(train)
    assert model.labels == (EMPTY, "memset")
    assert model.probs.tolist() == pytest.approx([0.8, 0.2])


def test_fit_prior_single_label() -> None:
    model = fit_prior([_w("a", "strcpy")] * 7)
    assert model.labels == ("strcpy",)
    assert model.probs.tolist() == [1.0]


def test_fit_prior_three_label_tally() -> None:
    train = [_w("x")] * 5 + [_w("x", "aa")] * 3 + [_w("x", "bb")] * 2
    model = fit_prior(train)
    assert model.labels == (EMPTY, "aa", "bb")
    assert model.probs.tolist() == pytest.approx([0.5, 0.3, 0.2])


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
    # the window at position i takes the draw of (seed, i): a prefix draws what
    # the whole sequence draws there
    assert predict_prior_sequence(model, ws[:50], seed=42) == first[:50]


def _oracle_prior(model, count, seed):
    """The draw `predict_prior_sequence` replaced: numpy's generator, one per position."""
    cum = np.cumsum(model.probs)
    out = []
    for position in range(count):
        u = np.random.default_rng((seed, position)).random()
        idx = int(np.searchsorted(cum, u, side="right"))
        out.append(model.labels[min(idx, len(model.labels) - 1)])
    return out


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=5).filter(any),
       st.integers(0, 2**70))
def test_prior_draws_what_numpys_generator_draws(counts, seed) -> None:
    labels = tuple([EMPTY] + [f"f{i}" for i in range(1, len(counts))])
    model = PriorModel(labels, np.array(counts) / sum(counts))
    ws = [_w("x")] * 40
    assert predict_prior_sequence(model, ws, seed) == _oracle_prior(model, 40, seed)


def test_prior_degenerate_always_empty() -> None:
    model = PriorModel((EMPTY,), np.array([1.0]))
    assert all(
        predict_prior_sequence(model, [_w("x")] * 50, seed=s) == [EMPTY] * 50
        for s in range(5)
    )


def test_prior_never_reads_window_text() -> None:
    model = fit_prior([_w("a")] * 3 + [_w("a", "memset")] * 7)
    a = predict_prior_sequence(model, [_w("alpha")] * 100, seed=1)
    b = predict_prior_sequence(model, [_w("totally different", start=i) for i in range(100)],
                               seed=1)
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


def _with_unseen(model: TokenStatsModel, unseen) -> TokenStatsModel:
    """`model` plus labels of no training window: zero counts, so -inf priors."""
    labels = classify._label_order([*model.labels, *unseen])
    window_counts = np.zeros(len(labels), dtype=np.int64)
    token_counts = np.zeros((len(labels), model.vocab.size), dtype=np.int64)
    for i, label in enumerate(model.labels):
        window_counts[labels.index(label)] = model.window_counts[i]
        token_counts[labels.index(label)] = model.token_counts[i]
    return TokenStatsModel(labels, model.alpha, model.vocab, window_counts, token_counts)


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
    extended = _with_unseen(base, ("neverseen",))
    probes = [_w("MEMSETPAT(p, 0, 1);"), _w("STRCPYPAT(d, s);"), _w("iVar1 = iVar1 + 1;")]
    for probe in probes:
        assert predict_token_stats(base, probe) == predict_token_stats(extended, probe)


def test_token_stats_requires_positive_alpha() -> None:
    vocab = _token_vocab()
    with pytest.raises(ValueError):
        fit_token_stats(TOKEN_TRAIN, vocab, alpha=0.0)


def _counts(cells: dict, rows: int = 2) -> np.ndarray:
    counts = np.zeros((rows, 256), dtype=np.int64)
    for cell, n in cells.items():
        counts[cell] = n
    return counts


@pytest.mark.parametrize("window_counts, token_counts, alpha", [
    ([0, 0], _counts({(0, 5): 3}), 1.0),  # no label seen: every prior NaN
    ([3, -1], _counts({(0, 5): 3}), 1.0),  # a positive prior beside a NaN
    ([2, 1], _counts({(0, 5): -1}), 1.0),  # a likelihood of 0: log -inf
    ([2, 1], _counts({(0, 5): -2}), 1.0),  # a negative likelihood: log NaN
    ([1], _counts({(0, 0): 10**18}, rows=1), 0.1),  # a likelihood that rounds to 1
    ([2, 1], _counts({(0, 5): 3}), math.inf),
    ([2, 1], _counts({(0, 5): 3}), math.nan),
], ids=["priors-nan", "prior-positive", "likelihood-zero", "likelihood-negative",
        "likelihood-one", "alpha-inf", "alpha-nan"])
def test_token_stats_model_refuses_terms_the_batch_bound_excludes(
        window_counts, token_counts, alpha) -> None:
    labels = (EMPTY, "memset")[:len(window_counts)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused by a ValueError, not a RuntimeWarning
        with pytest.raises(ValueError):
            TokenStatsModel(labels, alpha, BpeVocab(()), np.array(window_counts), token_counts)


# lines of few distinct characters, so windows of different bodies often share lines
_LINE = st.text(alphabet="aab; \xe9", max_size=6)


@st.composite
def _batch_cases(draw):
    """A random vocabulary and model, and windows in the orders predict may see them.

    Each body is slid over by a window of height 1-6 and stride 1-3, its
    windows kept in order, reversed or shuffled; unrelated and empty
    texts go between them. The model is fitted on windows of the bodies
    with random labels and random unseen labels (-inf priors); or every
    label row is a copy of the first, so every window ties; or two
    labels swap the counts of two tokens, so near-ties abound.
    """
    bodies = draw(st.lists(st.lists(_LINE, min_size=1, max_size=12), min_size=1, max_size=3))
    vocab = train_bpe(["\n".join(body) for body in bodies],
                      vocab_size=draw(st.integers(257, 320)), min_frequency=1)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    windows = []
    for body in bodies:
        height, stride = draw(st.integers(1, 6)), draw(st.integers(1, 3))
        slid = [_w("\n".join(body[i:i + height]), start=i)
                for i in range(0, max(1, len(body) - height + 1), stride)]
        order = draw(st.sampled_from(["forward", "reversed", "shuffled"]))
        if order == "reversed":
            slid.reverse()
        elif order == "shuffled":
            rng.shuffle(slid)
        windows += slid
    for _ in range(draw(st.integers(0, 4))):
        other = _w("\n".join(draw(st.lists(_LINE, max_size=4))))
        windows.insert(rng.randint(0, len(windows)), other)
    train = [_w(w.text, rng.choice([EMPTY, "memset", "strcpy"])) for w in windows]
    unseen = draw(st.lists(st.sampled_from(["zeta", "omega"]), max_size=2))
    alpha = draw(st.sampled_from([0.5, 1.0, 1.7]))
    model = _with_unseen(fit_token_stats(train, vocab, alpha), unseen)
    kind = draw(st.sampled_from(["fitted", "ties", "swapped"]))
    counts, window_counts = model.token_counts.copy(), model.window_counts.copy()
    if kind == "ties" and len(model.labels) > 1:
        counts[:] = counts[0]
        window_counts[:] = max(window_counts[0], 1)
    elif kind == "swapped" and len(model.labels) > 1:
        x, y = rng.sample(range(vocab.size), 2)
        counts[1] = counts[0]
        counts[1, [x, y]] = counts[0, [y, x]]
        window_counts[1] = window_counts[0] = max(window_counts[0], 1)
    model = TokenStatsModel(model.labels, model.alpha, vocab, window_counts, counts)
    return model, windows, kind


@settings(max_examples=200, deadline=None)
@given(case=_batch_cases())
def test_batch_scoring_matches_per_window_scoring(case) -> None:
    model, windows, kind = case
    expected = [predict_token_stats(model, w) for w in windows]
    with mock.patch.object(classify, "_top_label", wraps=classify._top_label) as direct:
        assert predict_token_stats_batch(model, windows) == expected
    if kind == "ties" and len(model.labels) > 1:
        assert direct.call_count == len(windows)  # no tie is settled by the prefix sums


def test_batch_scoring_settles_rounding_ties_directly() -> None:
    # two labels that swap the counts of "a" and "b" score every window
    # of as many a's as b's alike, up to rounding; the prefix sums round
    # differently from the direct sums, so the ties must be scored directly
    vocab = BpeVocab(())
    rng = random.Random(0)
    for _ in range(5):
        a, b = rng.sample(range(1, 1000), 2)
        counts = np.zeros((2, vocab.size), dtype=np.int64)
        counts[0, [ord("a"), ord("b")]] = a, b
        counts[1, [ord("a"), ord("b")]] = b, a
        model = TokenStatsModel((EMPTY, "x"), 1.0, vocab, np.array([5, 5]), counts)
        body = ["".join(rng.choice(["ab", "ba"]) for _ in range(rng.randint(1, 6)))
                for _ in range(60)]
        windows = [_w("\n".join(body[i:i + 20]), start=i) for i in range(len(body) - 19)]
        expected = [predict_token_stats(model, w) for w in windows]
        assert predict_token_stats_batch(model, windows) == expected


def test_batch_scoring_on_one_vocab_from_many_threads() -> None:
    # each thread scores windows slid over its own body with one model: each
    # pass owns its streams, and the threads share only the segment memo
    vocab = _token_vocab()
    model = fit_token_stats(TOKEN_TRAIN, vocab)
    lines = [w.text for w in TOKEN_TRAIN] + ["MEMSETPAT(q, 0, 8);", "return 0;"]
    bodies = [lines[i:] + lines[:i] for i in range(4)]
    batches = [[_w("\n".join(body[j:j + 4]), start=j) for j in range(len(body) - 3)] * 10
               for body in bodies]
    expected = [[predict_token_stats(model, w) for w in batch] for batch in batches]
    results: list = [None] * len(batches)

    def work(k: int) -> None:
        results[k] = predict_token_stats_batch(model, batches[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


def test_batch_scoring_encodes_a_one_window_body_once_and_indexes_none() -> None:
    vocab = _token_vocab()
    model = fit_token_stats(TOKEN_TRAIN, vocab)
    bodies = [_w(f"int f{k}(void)\n{{\n  memset(p{k}, 0, {k});\n}}") for k in range(12)]
    expected = [predict_token_stats(model, w) for w in bodies]
    with mock.patch.object(bpe, "_spans", wraps=bpe._spans) as spans, \
            mock.patch.object(bpe, "_joins", wraps=bpe._joins) as joins:
        assert predict_token_stats_batch(model, bodies) == expected
    assert (spans.call_count, joins.call_count) == (0, len(bodies))
    # windows slid over one body lie on one stream, which is encoded once
    slid = [_w("\n".join(w.text for w in bodies[j:j + 4]), start=j) for j in range(9)]
    with mock.patch.object(bpe, "_spans", wraps=bpe._spans) as spans:
        assert predict_token_stats_batch(model, slid) == [
            predict_token_stats(model, w) for w in slid]
    assert spans.call_count == 1


def test_batch_scoring_of_no_windows_and_of_empty_texts() -> None:
    vocab = _token_vocab()
    model = fit_token_stats(TOKEN_TRAIN, vocab)
    assert predict_token_stats_batch(model, []) == []
    windows = [_w(""), _w(""), _w("iVar1 = iVar1 + 1;"), _w(""), _w("iVar1 = iVar1 + 1;")]
    assert predict_token_stats_batch(model, windows) == [
        predict_token_stats(model, w) for w in windows]


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


# replies to request i with the JSON text REPLY_IDS[i] as its id
SERVER_REPLY_IDS = """\
import json, sys
hs = json.loads(sys.stdin.readline())
sys.stdout.write(json.dumps(hs) + "\\n"); sys.stdout.flush()
for line in sys.stdin:
    req = json.loads(line)
    sys.stdout.write('{"id": %s, "label": ""}\\n' % REPLY_IDS[req["id"]]); sys.stdout.flush()
"""


def _server(tmp_path, code: str) -> list[str]:
    path = tmp_path / "server.py"
    path.write_text(code)
    return [sys.executable, str(path)]


@pytest.mark.parametrize("kind", ["fitted", "no-counts"])
def test_token_stats_model_file_is_json_dumps_indent_1(tmp_path, kind) -> None:
    # the token_counts triples are spliced in as text; the file must stay
    # what json.dumps(indent=1, sort_keys=True) writes for the whole object
    model = _with_unseen(fit_token_stats(TOKEN_TRAIN, _token_vocab()), ('say "hi"\n',))
    if kind == "no-counts":
        model = TokenStatsModel(model.labels, model.alpha, model.vocab, model.window_counts,
                                np.zeros_like(model.token_counts))
    rows, cols = np.nonzero(model.token_counts)
    obj = {
        "kind": "token_stats",
        "alpha": model.alpha,
        "vocab_size": model.vocab.size,
        "labels": list(model.labels),
        "window_counts": model.window_counts.tolist(),
        "token_counts": [[int(r), int(c), int(model.token_counts[r, c])]
                         for r, c in zip(rows, cols)],
    }
    path = tmp_path / "stats.json"
    save_model(path, model)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=1, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("reply_ids", [["false"], ["0", "true"], ["0", "1.0"]],
                         ids=["false-for-0", "true-for-1", "float-for-1"])
def test_external_rejects_a_reply_id_that_is_no_json_integer(tmp_path, reply_ids) -> None:
    # each equals its request id in Python, so only the type tells them apart
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    code = f"REPLY_IDS = {reply_ids!r}\n" + SERVER_REPLY_IDS
    with spawn_external(_server(tmp_path, code), vocab) as client:
        with pytest.raises(ExternalProtocolError, match="field 'id' must be an integer"):
            client.predict([_w("a"), _w("b")])


@pytest.mark.parametrize("known", [None, ["memset"]], ids=["any-label", "known-labels"])
def test_external_rejects_a_label_that_holds_a_surrogate_for_no_byte(tmp_path, known) -> None:
    # no labels file could hold it, so it is refused, not written or taken as unknown
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    code = SERVER_REPLY_IDS.replace('"label": ""', '"label": "f\\\\udfff"')
    code = "REPLY_IDS = ['0']\n" + code
    with spawn_external(_server(tmp_path, code), vocab, known) as client:
        with pytest.raises(ExternalProtocolError, match=r"field 'label' holds \\udfff"):
            client.predict([_w("a")])


# copies each line it reads to the file argv[1], and only then answers it with the
# next of argv[2:]: it cannot answer a request before the client has sent it
SERVER_COPY_TO_FILE = """\
import sys
with open(sys.argv[1], "wb") as sent:
    for reply in sys.argv[2:]:
        sent.write(sys.stdin.buffer.readline()); sent.flush()
        sys.stdout.buffer.write(reply.encode() + b"\\n"); sys.stdout.flush()
"""


@contextlib.contextmanager
def _copying_server(tmp_path, *replies: str):
    """Pipes to and from SERVER_COPY_TO_FILE, as (replies, requests) files."""
    argv = [*_server(tmp_path, SERVER_COPY_TO_FILE), str(tmp_path / "sent"), *replies]
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          bufsize=0) as proc:
        yield proc.stdout, proc.stdin


def test_external_client_sends_the_readme_protocol_lines(tmp_path) -> None:
    """The handshake and a request, byte for byte, and as README shows them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    shown = [line.split("-> ", 1)[1] for line in readme.splitlines()
             if line.startswith("client -> ")]
    with _copying_server(tmp_path, '{"proto":"uninline-external-labels","version":1}',
                         '{"id":0,"label":""}') as (replies, requests):
        client = ExternalModelClient(replies, requests, BpeVocab(()))
        assert client.predict([_w("ab")]) == [EMPTY]
    sent = (tmp_path / "sent").read_bytes()
    assert sent == (b'{"proto":"uninline-external-labels","version":1}\n'
                    b'{"id":0,"tokens":[97,98]}\n')
    handshake, request = sent.decode().splitlines()
    assert json.loads(handshake) == json.loads(shown[0])
    assert shown[1].startswith('{"id": 0, "tokens": [')


@pytest.mark.parametrize("reply, field", [
    ('{"proto":"uninline-external-labels","version":true}', "version"),
    ('{"proto":"uninline-external-labels","version":1.0}', "version"),
    ('{"proto":"uninline-external-labels"}', "version"),
    ('{"proto":["uninline-external-labels"],"version":1}', "proto"),
], ids=["version-true", "version-float", "version-missing", "proto-list"])
def test_handshake_checks_reply_kinds_before_values(tmp_path, reply, field) -> None:
    # true and 1.0 equal version 1 in Python, so only the kind tells them apart
    with _copying_server(tmp_path, reply) as (replies, requests):
        client = ExternalModelClient(replies, requests, BpeVocab(()))
        with pytest.raises(ExternalProtocolError, match=f"handshake rejected: field '{field}'"):
            client.handshake()
    assert not client._ready


def test_external_client_bounds_its_own_waits_on_a_socket() -> None:
    # one descriptor serves both ways, and the transport sets no timeout of its own
    with contextlib.ExitStack() as stack:
        ours, _silent = map(stack.enter_context, socket.socketpair())
        reader = stack.enter_context(ours.makefile("rb", buffering=0))
        writer = stack.enter_context(ours.makefile("wb", buffering=0))
        client = ExternalModelClient(reader, writer, BpeVocab(()), timeout=0.3)
        started = time.monotonic()
        with pytest.raises(ExternalProtocolError, match=r"labeler sent nothing for 0\.3 s$"):
            client.predict([_w("a")])
        assert time.monotonic() - started < 2
        assert client.failed


def test_external_client_on_a_socket_moves_more_than_a_buffer_each_way() -> None:
    ws = [_w(f"window {k} " + "x" * 80) for k in range(4000)]
    labels = ["%d" % k + "." * 100 for k in range(len(ws))]

    def answer(peer: socket.socket) -> None:
        # the handshake back as it came, then each request's label as its line is read
        with peer.makefile("rb") as lines, peer.makefile("wb", buffering=0) as out:
            out.write(lines.readline())
            for line in lines:
                rid = json.loads(line)["id"]
                out.write(dump_line({"id": rid, "label": labels[rid]}).encode() + b"\n")

    with contextlib.ExitStack() as stack:
        ours, theirs = map(stack.enter_context, socket.socketpair())
        theirs.settimeout(30)
        buffer = ours.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        sent = sum(len(dump_line({"id": k, "tokens": list(w.text.encode())})) + 1
                   for k, w in enumerate(ws))
        assert min(sent, sum(len(label) for label in labels)) > buffer
        peer = threading.Thread(target=answer, args=(theirs,))
        peer.start()
        with ours.makefile("rb", buffering=0) as reader, \
                ours.makefile("wb", buffering=0) as writer:
            client = ExternalModelClient(reader, writer, BpeVocab(()), timeout=30)
            got = client.predict(ws)
        ours.shutdown(socket.SHUT_RDWR)  # the peer reads to the end of its input
        peer.join(timeout=30)
    assert not peer.is_alive()
    assert got == labels and not client.failed


def test_external_client_writes_short_requests_in_a_few_blocks() -> None:
    """200 short requests go out in a few writes, not one per request line."""
    ws = [_w(f"window {k}") for k in range(200)]

    def answer(peer: socket.socket) -> None:
        with peer.makefile("rb") as lines, peer.makefile("wb", buffering=0) as out:
            out.write(lines.readline())
            for line in lines:
                out.write(dump_line({"id": json.loads(line)["id"], "label": ""}).encode()
                          + b"\n")

    with contextlib.ExitStack() as stack:
        ours, theirs = map(stack.enter_context, socket.socketpair())
        theirs.settimeout(30)
        peer = threading.Thread(target=answer, args=(theirs,))
        peer.start()
        write = stack.enter_context(
            mock.patch.object(classify.os, "write", wraps=classify.os.write))
        with ours.makefile("rb", buffering=0) as reader, \
                ours.makefile("wb", buffering=0) as writer:
            client = ExternalModelClient(reader, writer, BpeVocab(()), timeout=30)
            got = client.predict(ws)
        ours.shutdown(socket.SHUT_RDWR)
        peer.join(timeout=30)
    assert not peer.is_alive()
    assert got == [EMPTY] * len(ws) and not client.failed
    # the client's writes alone: the handshake, then the requests' one block
    assert 2 <= write.call_count <= 5, write.call_count


def test_external_reader_closed_when_the_block_exits(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    with spawn_external(_server(tmp_path, SERVER_OK), vocab) as client:
        client.predict([_w("a")])
        assert not client._reader.closed
    assert client._reader.closed


def test_external_reader_closed_after_a_kill() -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    argv = [sys.executable, "-c", "import time; time.sleep(60)"]  # ignores its stdin
    with pytest.raises(ExternalProtocolError, match="killed"):
        with spawn_external(argv, vocab, timeout=0.5) as client:
            pass
    assert client._reader.closed


def test_external_closed_stream_is_batch_error(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    argv = [sys.executable, "-c", "pass"]  # exits immediately
    with spawn_external(argv, vocab) as client:
        with pytest.raises(ExternalProtocolError):
            client.predict([_w("a")])


# holds three requests before it answers them: a client that waits for each
# reply before its next request waits forever
SERVER_GROUPS_OF_THREE = """\
import json, sys
hs = json.loads(sys.stdin.readline())
sys.stdout.write(json.dumps(hs) + "\\n"); sys.stdout.flush()
held = []
for line in sys.stdin:
    held.append(json.loads(line))
    if len(held) == 3:
        for req in held:
            reply = {"id": req["id"], "label": str(len(req["tokens"]))}
            sys.stdout.write(json.dumps(reply) + "\\n")
        sys.stdout.flush()
        held.clear()
"""


def test_external_endpoint_may_read_requests_ahead_of_its_replies(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    ws = [_w("ab" * k) for k in range(9)]
    with spawn_external(_server(tmp_path, SERVER_GROUPS_OF_THREE), vocab, timeout=30) as client:
        assert client.predict(ws) == [str(len(encode(vocab, w.text))) for w in ws]


# answers each request as it reads it, with a label of about 200 bytes
SERVER_LONG_LABELS = """\
import json, sys
hs = json.loads(sys.stdin.readline())
sys.stdout.write(json.dumps(hs) + "\\n"); sys.stdout.flush()
for line in sys.stdin:
    req = json.loads(line)
    sys.stdout.write(json.dumps({"id": req["id"], "label": "%d" % req["id"] + "." * 200}) + "\\n")
    sys.stdout.flush()
"""


def test_external_batch_larger_than_a_pipe_buffer_each_way(tmp_path) -> None:
    # a client that wrote every request before reading a reply would fill the
    # labeler's output pipe, and the labeler would stop reading its input
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    ws = [_w(f"window {k} " + "x" * 60) for k in range(1500)]
    labels = ["%d" % k + "." * 200 for k in range(len(ws))]
    sent = sum(len(dump_line({"id": k, "tokens": encode(vocab, w.text)})) + 1
               for k, w in enumerate(ws))
    assert min(sent, sum(len(label) for label in labels)) > 1 << 16
    with spawn_external(_server(tmp_path, SERVER_LONG_LABELS), vocab, timeout=30) as client:
        assert client.predict(ws) == labels


# answers its first request with a wrong id, then reads nothing more
SERVER_WRONG_ID_THEN_DEAF = """\
import json, sys, time
sys.stdout.write(sys.stdin.readline()); sys.stdout.flush()
req = json.loads(sys.stdin.readline())
sys.stdout.write(json.dumps({"id": req["id"] + 7, "label": ""}) + "\\n"); sys.stdout.flush()
time.sleep(60)
"""


@pytest.mark.parametrize("caught", ["outside", "inside"])
def test_external_error_mid_batch_ends_the_labeler_at_once(tmp_path, caught) -> None:
    # the labeler reads no more, and the client's requests fill its pipe; the
    # block ends with the batch error or, caught inside it, normally
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    ws = [_w("x" * 80) for _ in range(3000)]
    argv = _server(tmp_path, SERVER_WRONG_ID_THEN_DEAF)
    started = time.monotonic()
    if caught == "inside":
        with spawn_external(argv, vocab, timeout=30) as client:
            with pytest.raises(ExternalProtocolError, match="does not match request 0"):
                client.predict(ws)
    else:
        with pytest.raises(ExternalProtocolError, match="does not match request 0"):
            with spawn_external(argv, vocab, timeout=30) as client:
                client.predict(ws)
    assert time.monotonic() - started < 20
    assert client._reader.closed and client.failed


def test_external_exit_waits_without_sleeping(tmp_path, monkeypatch) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    with spawn_external(_server(tmp_path, SERVER_OK), vocab) as client:
        client.predict([_w("a"), _w("b")])
    assert slept == []
    assert client._reader.closed
