"""End-to-end checks of the pipeline front end."""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest
from conftest import make_body
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uninline import (bpe, classify, cli, coalesce, combine, corpus, evaluate, jsonl, markers,
                      windows)
from uninline.combine import FunctionRecovery, RecoveryMultiset
from uninline.corpus import DecompiledFunction, FunctionId


@pytest.fixture(autouse=True)
def run_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv(cli.RUN_ROOT_ENV, str(root))
    return root


def _manifest(root):
    path = root / cli.MANIFEST_NAME
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_score_identical_files(tmp_path, capsys) -> None:
    path = tmp_path / "rec.jsonl"
    combine.write_recoveries(
        path,
        [
            FunctionRecovery(
                FunctionId("a.c", "f", 0), RecoveryMultiset({"memset": 2})
            )
        ],
    )
    rc = cli.run(["score", "--pred", str(path), "--truth", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.0000  1.0000  1.0000" in out
    assert "unique functions recovered: 1" in out


def test_coalesce_command_worked_example(tmp_path) -> None:
    seq = ["a", "a", "", "", "a", "a", "b", "b", "b", "b",
           "b", "", "c", "", "", "", "", "c", "d", "c"]
    labels_path = tmp_path / "labels.jsonl"
    coalesce.write_label_sequences(
        labels_path, [coalesce.LabelSequence(FunctionId("a.c", "f", 0), tuple(seq))]
    )
    out_path = tmp_path / "rec.jsonl"
    rc = cli.run(["coalesce", "--labels", str(labels_path), "--out", str(out_path)])
    assert rc == 0
    (rec,) = combine.read_recoveries(out_path)
    assert rec.counts.as_dict() == {"a": 1, "b": 1}


def test_coalesce_command_defaults_are_the_library_defaults(tmp_path, monkeypatch) -> None:
    labels_path = tmp_path / "labels.jsonl"
    coalesce.write_label_sequences(
        labels_path, [coalesce.LabelSequence(FunctionId("a.c", "f", 0), ("a",) * 4)])
    used = []
    real = coalesce.coalesce
    monkeypatch.setattr(coalesce, "coalesce",
                        lambda seq, params: used.append(params) or real(seq, params))
    rc = cli.run(["coalesce", "--labels", str(labels_path), "--out", str(tmp_path / "rec.jsonl")])
    assert rc == 0
    assert used == [coalesce.CoalesceParams()]


def test_rebalance_fit_and_score_defaults_are_the_library_defaults(tmp_path, monkeypatch) -> None:
    # each option's default is the value its library function takes when not given one
    win_path = tmp_path / "w.jsonl"
    windows.write_windows(
        win_path, windows.scan_windows(make_body("f", 22), windows.WindowSpec())
    )
    vocab_path = tmp_path / "vocab.tsv"
    bpe.save_vocab(vocab_path, bpe.train_bpe(["ab ab"], vocab_size=257, min_frequency=1))
    rec_path = tmp_path / "rec.jsonl"
    combine.write_recoveries(
        rec_path, [FunctionRecovery(FunctionId("a.c", "f", 0), RecoveryMultiset({"memset": 1}))])
    used = {}

    def spy(owner, name: str, param: str) -> None:
        real = getattr(owner, name)
        signature = inspect.signature(real)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            used[name] = (bound.arguments[param], signature.parameters[param].default)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(windows, "rebalance", "seed")
    spy(classify, "fit_token_stats", "alpha")
    spy(evaluate.EvalReport, "render", "breakdown")
    for argv in (["rebalance", "--windows", str(win_path), "--out", str(tmp_path / "b.jsonl")],
                 ["fit", "--kind", "token-stats", "--windows", str(win_path),
                  "--vocab", str(vocab_path), "--out", str(tmp_path / "model.json")],
                 ["score", "--pred", str(rec_path), "--truth", str(rec_path)]):
        assert cli.run(argv) == 0
    assert sorted(used) == ["fit_token_stats", "rebalance", "render"]
    assert all(value == default for value, default in used.values()), used


def _mk_record(fn_name: str, ordinal: int, labeled: bool) -> DecompiledFunction:
    lines = [f"  iVar{i % 7} = iVar{(i + 1) % 7} + {i};" for i in range(30)]
    labels: tuple = ()
    if labeled:
        lines[4] = "  uStack_40 = uStack_40 & 0xffffff00;"
        lines[5] = "  puVar3 = (undefined *)&uStack_40;"
        lines[6] = "  _zero_fill_span(puVar3, 0x20);"
        labels = (("memset", 5),)
    return DecompiledFunction(
        FunctionId("pipe.c", fn_name, ordinal), tuple(lines), labels, ()
    )


def test_full_pipeline(tmp_path, run_root, capsys) -> None:
    recs = [_mk_record("fa", 0, True), _mk_record("fb", 1, False)]
    fn_path = tmp_path / "functions.jsonl"
    corpus.write_functions(fn_path, recs)

    win_path = tmp_path / "windows.jsonl"
    assert cli.run(["windows", "--functions", str(fn_path), "--out", str(win_path)]) == 0
    assert "22 windows" in capsys.readouterr().out

    bal_path = tmp_path / "balanced.jsonl"
    assert cli.run([
        "rebalance", "--windows", str(win_path), "--out", str(bal_path),
        "--discard-fraction", "0.0", "--seed", "3",
    ]) == 0
    assert len(windows.read_windows(bal_path)) == 22

    vocab_path = tmp_path / "vocab.tsv"
    assert cli.run([
        "bpe-train", "--out", str(vocab_path), "--vocab-size", "300",
        "--min-frequency", "2", "--functions", str(fn_path),
    ]) == 0

    model_path = tmp_path / "stats.json"
    assert cli.run([
        "fit", "--kind", "token-stats", "--windows", str(bal_path),
        "--out", str(model_path), "--vocab", str(vocab_path),
    ]) == 0

    labels_path = tmp_path / "labels.jsonl"
    assert cli.run([
        "predict", "--windows", str(win_path), "--model", str(model_path),
        "--vocab", str(vocab_path), "--out", str(labels_path),
    ]) == 0

    model_rec = tmp_path / "model_rec.jsonl"
    assert cli.run([
        "coalesce", "--labels", str(labels_path), "--out", str(model_rec),
        "--optlevel", "O0",
    ]) == 0
    got = {r.func_id.name: r.counts.as_dict() for r in combine.read_recoveries(model_rec)}
    assert got == {"fa": {"memset": 1}, "fb": {}}

    decomp_rec = tmp_path / "decomp_rec.jsonl"
    combine.write_recoveries(decomp_rec, [
        FunctionRecovery(recs[0].id, RecoveryMultiset()),
        FunctionRecovery(recs[1].id, RecoveryMultiset({"strcpy": 1})),
    ])
    truth_rec = tmp_path / "truth_rec.jsonl"
    combine.write_recoveries(truth_rec, [
        FunctionRecovery(recs[0].id, RecoveryMultiset({"memset": 1})),
        FunctionRecovery(recs[1].id, RecoveryMultiset({"strcpy": 1})),
    ])
    comb_path = tmp_path / "combined.jsonl"
    assert cli.run([
        "combine", "--model", str(model_rec), "--decompiler", str(decomp_rec),
        "--out", str(comb_path),
    ]) == 0

    report_path = tmp_path / "report.json"
    per_name = tmp_path / "per_name.jsonl"
    assert cli.run([
        "score", "--pred", str(comb_path), "--truth", str(truth_rec),
        "--by", "name", "--report", str(report_path), "--per-name-out", str(per_name),
    ]) == 0
    out = capsys.readouterr().out
    assert "unique functions recovered: 2" in out
    report = json.loads(report_path.read_text())
    assert report["overall"]["tp"] == 2
    assert report["overall"]["f1"] == 1.0

    targets_path = tmp_path / "targets.tsv"
    targets_path.write_text("memset\t50\nstrcpy\t10\n")
    corr_path = tmp_path / "corr.json"
    assert cli.run([
        "correlate", "--per-name", str(per_name), "--targets", str(targets_path),
        "--report", str(corr_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "points: 2" in out
    assert "undefined" in out  # metrics are flat at 1.0, so r is undefined
    corr = json.loads(corr_path.read_text())
    assert corr["points"] == 2
    assert corr["r_f1"] is None

    manifest = _manifest(run_root)
    assert [m["command"] for m in manifest] == [
        "windows", "rebalance", "bpe-train", "fit", "predict",
        "coalesce", "combine", "score", "correlate",
    ]
    fit_entry = manifest[3]
    digest = hashlib.sha256(bal_path.read_bytes()).hexdigest()
    assert fit_entry["inputs"][str(bal_path)] == digest
    assert fit_entry["parameters"]["alpha"] == 1.0
    assert manifest[1]["seeds"] == {"seed": 3}
    assert all(m["version"] for m in manifest)


def test_prior_fit_predict(tmp_path, run_root) -> None:
    recs = [make_body(f"f{i}", 10, (("x", 0),), ordinal=i) for i in range(3)]
    fn_path = tmp_path / "f.jsonl"
    corpus.write_functions(fn_path, recs)
    win_path = tmp_path / "w.jsonl"
    assert cli.run(["windows", "--functions", str(fn_path), "--out", str(win_path)]) == 0
    model_path = tmp_path / "prior.json"
    assert cli.run([
        "fit", "--kind", "prior", "--windows", str(win_path), "--out", str(model_path),
    ]) == 0
    out_path = tmp_path / "labels.jsonl"
    assert cli.run([
        "predict", "--windows", str(win_path), "--model", str(model_path),
        "--seed", "9", "--out", str(out_path),
    ]) == 0
    seqs = coalesce.read_label_sequences(out_path)
    assert [s.labels for s in seqs] == [("x",), ("x",), ("x",)]
    assert _manifest(run_root)[-1]["seeds"] == {"seed": 9}


def test_fit_token_stats_requires_vocab(tmp_path) -> None:
    win_path = tmp_path / "w.jsonl"
    windows.write_windows(
        win_path, windows.scan_windows(make_body("f", 5), windows.WindowSpec())
    )
    rc = cli.run([
        "fit", "--kind", "token-stats", "--windows", str(win_path),
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 2


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_fit_alpha_must_be_positive_and_finite(tmp_path, capsys, value) -> None:
    win_path = tmp_path / "w.jsonl"
    windows.write_windows(
        win_path, windows.scan_windows(make_body("f", 5), windows.WindowSpec())
    )
    vocab_path = tmp_path / "vocab.txt"
    bpe.save_vocab(vocab_path, bpe.train_bpe([w.text for w in windows.read_windows(win_path)],
                                             vocab_size=260, min_frequency=2))
    out = tmp_path / "m.json"
    assert cli.run(["fit", "--kind", "token-stats", "--windows", str(win_path),
                    "--vocab", str(vocab_path), "--out", str(out), "--alpha", value]) == 2
    assert capsys.readouterr().err == (
        f"uninline fit: error: --alpha must be a positive finite number, not {value}\n")
    assert not out.exists()


def test_bpe_train_refuses_a_stream_past_int32_with_exit_2(tmp_path, capsys,
                                                           monkeypatch) -> None:
    text = tmp_path / "body.c"
    text.write_text("abcdef")
    vocab = tmp_path / "vocab.txt"
    monkeypatch.setattr(bpe, "_MAX_STREAM", 7)  # the 6 bytes need 8 positions
    assert cli.run(["bpe-train", "--out", str(vocab), str(text)]) == 2
    assert capsys.readouterr().err.startswith(
        "uninline bpe-train: error: 6 bytes of training text overflow ")
    assert not vocab.exists()


C_SOURCE = """\
#include <string.h>
#include <stdio.h>

int main(void)
{
    char buf[64];
    sprintf(buf, "%d", 42);
    memset(buf, 0, sizeof buf);
    return 0;
}
"""


def test_inject_command(tmp_path, capsys) -> None:
    src = tmp_path / "prog.c"
    src.write_text(C_SOURCE)
    targets = tmp_path / "targets.txt"
    targets.write_text("sprintf\nmemset\n")
    out_dir = tmp_path / "marked"
    rc = cli.run([
        "inject", "--targets", str(targets), "--out-dir", str(out_dir),
        "--array-size", "16", str(src),
    ])
    assert rc == 0
    assert "2 call sites marked" in capsys.readouterr().out
    marked = out_dir / "prog.marked.c"
    content = marked.read_bytes()
    assert b"[16];" in content
    assert b"FUNCMARK:sprintf" in content
    assert b"FUNCMARK:memset" in content
    plan = json.loads((out_dir / "prog.markplan.json").read_text())
    assert [name for _, name, _, _ in plan["assignments"]] == ["sprintf", "memset"]

    # marking an already-marked file is a data error
    rc = cli.run([
        "inject", "--targets", str(targets), "--out-dir", str(out_dir), str(marked),
    ])
    assert rc == 2


@pytest.mark.parametrize("size", ["0", "-3"])
def test_inject_refuses_an_array_size_below_1(tmp_path, run_root, capsys, size) -> None:
    src = tmp_path / "prog.c"
    src.write_text("int main(void)\n{\n    return 0;\n}\n")  # no call sites
    out_dir = tmp_path / "marked"
    rc = cli.run(["inject", "--targets", str(tmp_path / "missing.txt"), "--out-dir",
                  str(out_dir), "--array-size", size, str(src)])
    assert rc == 2
    # refused before the targets file is read, naming the option
    assert f"error: --array-size must be at least 1, not {size}" in capsys.readouterr().err
    assert not out_dir.exists()
    assert _manifest(run_root) == []
    source = corpus.SourceFile(str(src), src.read_bytes(), corpus.Language.C)
    with pytest.raises(ValueError, match="array_size"):
        markers.inject_markers(source, corpus.TargetFunctionSet.from_names(["memset"]), 0)


RECONCILE_LINES = (
    "undefined4 __cdecl doit(char *out)",
    "{",
    "  char local_20 [32];",
    '  funcmark_0011aabbccdd[0] = "FUNCMARK:sprintf";',
    "  _builtin_format(local_20);",
    '  funcmark_0011aabbccdd[1] = "FUNCMARK:sprintf";',
    "  _builtin_format(local_20);",
    "  sprintf(out, local_20);",
    '  funcmark_0011aabbccdd[2] = "FUNCMARK:entercriticalsection";',
    "  _lock_acquire();",
    "  return 0;",
    "}",
)


def test_reconcile_command(tmp_path, capsys) -> None:
    rec = DecompiledFunction(FunctionId("prog.c", "doit", 0), RECONCILE_LINES)
    fn_path = tmp_path / "functions.jsonl"
    corpus.write_functions(fn_path, [rec])
    targets = tmp_path / "targets.txt"
    targets.write_text("sprintf\nentercriticalsection\n")
    out_path = tmp_path / "labeled.jsonl"
    truth_path = tmp_path / "truth.jsonl"
    recov_path = tmp_path / "recovered.jsonl"
    rc = cli.run([
        "reconcile", "--functions", str(fn_path), "--targets", str(targets),
        "--out", str(out_path), "--optlevel", "O2",
        "--truth-out", str(truth_path), "--recovered-out", str(recov_path),
    ])
    assert rc == 0
    assert "2 inlined markers kept, 1 plain calls" in capsys.readouterr().out

    (labeled,) = corpus.read_functions(out_path)
    # the plain sprintf call consumed the earliest sprintf marker
    assert labeled.true_labels == (("sprintf", 5), ("entercriticalsection", 8))
    assert labeled.recovered == ("sprintf",)

    (truth,) = combine.read_recoveries(truth_path)
    assert truth.counts.as_dict() == {"sprintf": 1, "entercriticalsection": 1}
    assert truth.optlevel == "O2"
    (recov,) = combine.read_recoveries(recov_path)
    assert recov.counts.as_dict() == {"sprintf": 1}


EXTERNAL_SERVER = """\
import json
import sys

hello = json.loads(sys.stdin.readline())
sys.stdout.write(json.dumps(hello) + "\\n")
sys.stdout.flush()
for line in sys.stdin:
    req = json.loads(line)
    sys.stdout.write(json.dumps({"id": req["id"], "label": "memset"}) + "\\n")
    sys.stdout.flush()
"""


def test_predict_external(tmp_path) -> None:
    from uninline import bpe

    script = tmp_path / "server.py"
    script.write_text(EXTERNAL_SERVER)
    vocab_path = tmp_path / "vocab.tsv"
    bpe.save_vocab(vocab_path, bpe.train_bpe(["ab ab"], vocab_size=257, min_frequency=1))
    targets = tmp_path / "targets.txt"
    targets.write_text("memset\n")

    win_path = tmp_path / "w.jsonl"
    windows.write_windows(
        win_path, windows.scan_windows(make_body("f", 22), windows.WindowSpec())
    )
    out_path = tmp_path / "labels.jsonl"
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    rc = cli.run([
        "predict", "--windows", str(win_path), "--external", command,
        "--vocab", str(vocab_path), "--targets", str(targets), "--out", str(out_path),
    ])
    assert rc == 0
    (seq,) = coalesce.read_label_sequences(out_path)
    assert seq.labels == ("memset",) * 3


# answers the handshake unless ANSWERED is negative, then that many requests,
# then stops answering but stays alive
STALLING_SERVER = """\
import json, sys, time
answered = int(sys.argv[1])
if answered >= 0:
    sys.stdout.write(sys.stdin.readline()); sys.stdout.flush()
for line in sys.stdin:
    if answered <= 0:
        time.sleep(60)
    answered -= 1
    sys.stdout.write(json.dumps({"id": json.loads(line)["id"], "label": ""}) + "\\n")
    sys.stdout.flush()
"""


def _external_predict_argv(tmp_path, command: str, *extra: str) -> list[str]:
    vocab_path = tmp_path / "vocab.tsv"
    bpe.save_vocab(vocab_path, bpe.train_bpe(["ab ab"], vocab_size=257, min_frequency=1))
    win_path = tmp_path / "w.jsonl"
    windows.write_windows(
        win_path, windows.scan_windows(make_body("f", 22), windows.WindowSpec())
    )
    return ["predict", "--windows", str(win_path), "--external", command,
            "--vocab", str(vocab_path), "--out", str(tmp_path / "labels.jsonl"), *extra]


@pytest.mark.parametrize("answered", [-1, 1], ids=["no-handshake", "mid-batch"])
def test_predict_external_timeout_kills_a_silent_labeler(tmp_path, capsys, answered) -> None:
    script = tmp_path / "server.py"
    script.write_text(STALLING_SERVER)
    command = shlex.join([sys.executable, str(script), str(answered)])
    argv = _external_predict_argv(tmp_path, command, "--external-timeout", "0.5")
    started = time.monotonic()
    assert cli.run(argv) == 2
    assert time.monotonic() - started < 10  # the labeler alone would take 60 s
    err = capsys.readouterr().err
    assert err == ("uninline predict: error: batch failed, partial labels discarded: "
                   "labeler sent nothing for 0.5 s\n")
    assert not (tmp_path / "labels.jsonl").exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e7", "1e300"])
def test_predict_external_timeout_must_be_positive(tmp_path, capsys, value) -> None:
    """poll waits at most 2**31 - 1 ms, so a longer timeout is refused with the others."""
    command = shlex.join([sys.executable, "-c", "pass"])
    argv = _external_predict_argv(tmp_path, command, "--external-timeout", value)
    assert cli.run(argv) == 2
    assert (f"uninline predict: error: --external-timeout must be a positive number of "
            f"seconds, at most 2147483.647, not {float(value):g}") in capsys.readouterr().err
    reader, writer = os.pipe()
    with open(reader, "rb", buffering=0) as out, open(writer, "wb", buffering=0) as into:
        with pytest.raises(ValueError, match="timeout must be a positive number of seconds"):
            classify.ExternalModelClient(out, into, bpe.BpeVocab(()), timeout=float(value))


def test_predict_requires_model_or_external(tmp_path) -> None:
    win_path = tmp_path / "w.jsonl"
    windows.write_windows(
        win_path, windows.scan_windows(make_body("f", 5), windows.WindowSpec())
    )
    rc = cli.run(["predict", "--windows", str(win_path), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_predict_rejects_scattered_function_windows(tmp_path) -> None:
    wa = windows.scan_windows(make_body("fa", 25, ordinal=0), windows.WindowSpec())
    wb = windows.scan_windows(make_body("fb", 25, ordinal=1), windows.WindowSpec())
    win_path = tmp_path / "w.jsonl"
    windows.write_windows(win_path, [wa[0], wb[0], wa[1]])
    rc = cli.run(["predict", "--windows", str(win_path), "--out", str(tmp_path / "o")])
    assert rc == 2


PSEUDO_FILES = {
    "dec/b.c": b"int second(void) {\n  memset(p, 0, 4);\n}\n",
    "dec/a.c": b"int first(int x)\n{\n  if (x) { return \"}\"[0]; }\n  return 0;\n}\n"
               b"/* void gone(void) { */\nvoid tail(void) {\n",
    # in address order, as a decompiler lists them: the names fall
    "dec/c.c": b"int main(void) {\n}\nvoid _init(void) {\n}\nint FUN_00101020(void) {\n}\n",
}


def test_split_writes_the_records_split_functions_gives(tmp_path, run_root, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    for path, content in PSEUDO_FILES.items():
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_bytes(content)
    rc = cli.run(["split", "--out", "funcs.jsonl", *PSEUDO_FILES])
    assert rc == 0
    expected = []
    for path in sorted(PSEUDO_FILES):
        expected += corpus.split_functions(
            corpus.SourceFile(path, PSEUDO_FILES[path], corpus.Language.PSEUDO_C))
    corpus.write_functions("expected.jsonl", expected)
    assert (tmp_path / "funcs.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
    assert [tuple(f.id)[1:] for f in corpus.read_functions("funcs.jsonl")] == [
        ("first", 0), ("tail", 1), ("second", 0), ("FUN_00101020", 2), ("_init", 1), ("main", 0)]
    (record,) = _manifest(run_root)
    assert record["command"] == "split"
    assert record["inputs"] == {
        path: hashlib.sha256(content).hexdigest() for path, content in sorted(PSEUDO_FILES.items())
    }
    assert record["outputs"] == ["funcs.jsonl"]


@pytest.mark.parametrize("names, message", [
    (["a.c", "missing.c"], "missing.c"),
    (["a.c", "a.c"], "a.c: given twice"),
    (["d/b.c", "d/./b.c"], "d/b.c: given twice, also as d/./b.c"),
])
def test_split_refuses_a_missing_or_repeated_file(tmp_path, run_root, capsys, monkeypatch,
                                                  names, message) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.c").write_bytes(b"int f(void) {\n}\n")
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "b.c").write_bytes(b"int f(void) {\n}\n")
    rc = cli.run(["split", "--out", "funcs.jsonl", *names])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "funcs.jsonl").exists()
    assert _manifest(run_root) == []


# bytes that are no UTF-8: each of 0x80-0xff alone, and sequences broken off or ill-formed
_NOT_UTF8 = [bytes([b]) for b in range(0x80, 0x100)] + [
    b"\xe2\x82", b"\xf0\x9f\x98", b"\xc3(", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf8\x88\x80\x80\x80"]


def _body_of_raw_bytes(name: str, chunks: list[bytes]) -> bytes:
    """A pseudo-C function whose string literals and comments hold `chunks`."""
    lines = [f"int {name}(char *p)".encode(), b"{"]
    for i, chunk in enumerate(chunks):
        lines.append(b'  p = "' + chunk + b'";' if i % 2 else b"  /* " + chunk + b" */")
        lines.append(b"  memset(p, 0, 4);" if i % 5 == 0 else b"  q = p;")
    return b"\n".join(lines + [b"}", b""])


def test_every_byte_of_a_body_survives_split_to_score(tmp_path, monkeypatch) -> None:
    """Bytes that are no UTF-8 reach each window as they were in the source file."""
    monkeypatch.chdir(tmp_path)
    source = b"".join(_body_of_raw_bytes(f"f{i}", _NOT_UTF8[i::4]) for i in range(4))
    (tmp_path / "raw.c").write_bytes(source)
    (tmp_path / "targets.txt").write_text("memset\n")
    chain = [
        ["split", "--out", "funcs.jsonl", "raw.c"],
        ["reconcile", "--functions", "funcs.jsonl", "--targets", "targets.txt",
         "--out", "labeled.jsonl", "--truth-out", "truth.jsonl", "--recovered-out", "rec.jsonl"],
        ["windows", "--functions", "labeled.jsonl", "--out", "windows.jsonl",
         "--window-height", "4"],
        ["bpe-train", "--functions", "--vocab-size", "300", "--out", "vocab.txt",
         "labeled.jsonl"],
        ["fit", "--kind", "token-stats", "--windows", "windows.jsonl", "--vocab", "vocab.txt",
         "--out", "model.json"],
        ["predict", "--windows", "windows.jsonl", "--model", "model.json", "--vocab",
         "vocab.txt", "--out", "labels.jsonl"],
        ["coalesce", "--labels", "labels.jsonl", "--out", "model_rec.jsonl"],
        ["combine", "--model", "model_rec.jsonl", "--decompiler", "rec.jsonl",
         "--out", "combined.jsonl"],
        ["score", "--pred", "combined.jsonl", "--truth", "truth.jsonl"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in chain:
            assert cli.run(argv) == 0, argv
    bodies = {f.id: f.text.encode("utf-8", "surrogateescape").split(b"\n")
              for f in corpus.read_functions("labeled.jsonl")}
    assert len(bodies) == 4
    assert all(b"\n".join(lines) in source for lines in bodies.values())
    seen = b""
    for w in windows.read_windows("windows.jsonl"):
        raw = w.text.encode("utf-8", "surrogateescape")
        assert raw == b"\n".join(bodies[w.func_id][w.start:w.start + 4])
        seen += raw
    assert all(chunk in seen for chunk in _NOT_UTF8)


@pytest.mark.parametrize("escape", ["\\ud800", "\\udc7f", "\\udd00", "\\uDFFF"])
@pytest.mark.parametrize("stage, field", [("windows", "lines"), ("rebalance", "text")])
def test_a_surrogate_that_stands_for_no_byte_exits_2_at_its_line(tmp_path, capsys, stage, field,
                                                                 escape) -> None:
    """A body's text may hold U+DC80-U+DCFF, each a byte; any other surrogate is refused."""
    if field == "lines":
        good, bad = {**FUNCTION, "lines": ["\udc80\udcff"]}, {**FUNCTION, "id": _OTHER_ID,
                                                            "lines": ["x@"]}
    else:
        good, bad = {**WINDOW, "text": "\udc80\udcff"}, {**WINDOW, "text": "x@"}
    path, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    path.write_text(jsonl.dump_line(good) + "\n" + json.dumps(bad).replace("@", escape) + "\n")
    argv = {"windows": ["--functions", path, "--out", out],
            "rebalance": ["--windows", path, "--out", out]}[stage]
    assert cli.run([stage, *map(str, argv)]) == 2
    assert capsys.readouterr().err == (
        f"uninline {stage}: error: {path}:2: field '{field}' holds \\{escape[1:].lower()}, "
        "a surrogate that stands for no byte\n")
    assert not out.exists()


def test_usage_errors_exit_1(tmp_path) -> None:
    with pytest.raises(SystemExit) as exc:
        cli.run(["score", "--pred", str(tmp_path / "x")])  # missing --truth
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 1


def test_predict_refuses_a_model_and_an_external_labeler_together(tmp_path, capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        cli.run(["predict", "--windows", str(tmp_path / "w.jsonl"), "--out",
                 str(tmp_path / "labels.jsonl"), "--model", str(tmp_path / "model.json"),
                 "--external", "labeler"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: uninline predict")
    assert "argument --external: not allowed with argument --model" in err
    assert not (tmp_path / "labels.jsonl").exists()


def test_data_errors_exit_2(tmp_path, capsys) -> None:
    missing = tmp_path / "missing.jsonl"
    rc = cli.run(["score", "--pred", str(missing), "--truth", str(missing)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"func_id": ["a.c", "f", 0]}\n')  # no counts field
    rc = cli.run(["score", "--pred", str(bad), "--truth", str(bad)])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


FUNCTION = {"id": ["a.c", "f", 0], "lines": ["int f(void)", "{", "}"],
            "true_labels": [], "recovered": []}
RECOVERY = {"func_id": ["a.c", "f", 0], "counts": {"memset": 1}}
WINDOW = {"func_id": ["a.c", "f", 0], "start": 0, "label": "memset", "text": "{\n}"}
LABELS = {"func_id": ["a.c", "f", 0], "labels": ["memset", ""]}
# over the 256 byte tokens of a vocabulary with no merges
MODEL = {"kind": "token_stats", "alpha": 1.0, "vocab_size": 256, "labels": ["", "memset"],
         "window_counts": [2, 1], "token_counts": [[0, 123, 3], [1, 10, 2]]}
PRIOR = {"kind": "prior", "labels": ["", "memset"], "probs": [0.5, 0.5]}
PER_NAME = {"name": "memset", "tp": 1, "fp": 0, "fn": 0,
            "precision": 1.0, "recall": 1.0, "f1": 1.0}


@pytest.mark.parametrize("record, field", [
    ({**FUNCTION, "lines": "abc"}, "lines"),
    ({**FUNCTION, "lines": ["int f(void)", 7]}, "lines"),
    ({**FUNCTION, "lines": ["int f(void)", "{\n}"]}, "lines"),
    ({**FUNCTION, "true_labels": None}, "true_labels"),
    ({**FUNCTION, "truncated": "yes"}, "truncated"),
    ({**RECOVERY, "counts": {"memset": 1.7}}, "counts"),
    ({**RECOVERY, "counts": {"memset": "2"}}, "counts"),
    ({**RECOVERY, "counts": {"memset": True}}, "counts"),
    ({**RECOVERY, "counts": {"memset": -1}}, "counts"),
    ({**RECOVERY, "optlevel": 5}, "optlevel"),
    ({**FUNCTION, "id": [None, "f", 0]}, "path"),
    ({**FUNCTION, "id": ["a.c", 5, 0]}, "name"),
    ({**FUNCTION, "id": ["a.c", "f", 1.9]}, "ordinal"),
    ({**FUNCTION, "id": ["a.c", "f", True]}, "ordinal"),
    ({**RECOVERY, "func_id": ["a.c", "f", "0"]}, "ordinal"),
    ({**FUNCTION, "true_labels": [["memset", 1.7]]}, "true_labels"),
    ({**FUNCTION, "true_labels": [["memset", "2"]]}, "true_labels"),
    ({**FUNCTION, "true_labels": [[5, 1]]}, "true_labels"),
    ({**FUNCTION, "true_labels": [["memset"]]}, "true_labels"),
    ({**FUNCTION, "recovered": [5]}, "recovered"),
    ({**WINDOW, "start": 1.9}, "start"),
    ({**WINDOW, "start": "1"}, "start"),
    ({**WINDOW, "start": True}, "start"),
    ({**WINDOW, "label": 5}, "label"),
    ({**WINDOW, "text": None}, "text"),
    ({**LABELS, "labels": [None, 3]}, "labels"),
    ({**LABELS, "labels": "memset"}, "labels"),
    ({**LABELS, "labels": [["memset"]]}, "labels"),
    ({**MODEL, "token_counts": [[99, 10, 2]]}, "token_counts"),
    ({**MODEL, "token_counts": [[-1, 10, 2]]}, "token_counts"),
    ({**MODEL, "token_counts": [[1, 256, 2]]}, "token_counts"),
    ({**MODEL, "token_counts": [[1, 10, 1.7]]}, "token_counts"),
    ({**MODEL, "token_counts": [[1, 10]]}, "token_counts"),
    ({**MODEL, "token_counts": [[1, 10, 2], [0, 5, 1], [1, 10, 5000]]}, "token_counts"),
    ({**MODEL, "alpha": "2"}, "alpha"),
    ({**MODEL, "window_counts": [-1, 3]}, "window_counts"),
    ({**MODEL, "window_counts": [2]}, "window_counts"),
    ({**MODEL, "window_counts": [0, 0]}, "window_counts"),
    ({**MODEL, "labels": ["", 5]}, "labels"),
    ({**MODEL, "vocab_size": "256"}, "vocab_size"),
    ({**PRIOR, "probs": ["0.5", 0.5]}, "probs"),
    ([MODEL], None),
    ({**PER_NAME, "precision": math.nan}, "precision"),
    ({**PER_NAME, "recall": math.inf}, "recall"),
    ({**PER_NAME, "f1": "0.5"}, "f1"),
    ({**PER_NAME, "precision": True}, "precision"),
    ({**PER_NAME, "name": 5}, "name"),
], ids=["lines-string", "lines-number", "lines-newline", "true_labels-null", "truncated-string",
        "count-float", "count-string", "count-bool", "count-negative", "optlevel-number",
        "path-null", "name-number",
        "ordinal-float", "ordinal-bool", "recovery-ordinal-string", "anchor-float",
        "anchor-string", "label-name-number", "label-short", "recovered-number",
        "window-start-float", "window-start-string", "window-start-bool",
        "window-label-number", "window-text-null",
        "labels-null-number", "labels-string", "labels-nested",
        "model-row-past-end", "model-row-negative", "model-id-past-end", "model-count-float",
        "model-triple-short", "model-cell-repeated", "model-alpha-string",
        "model-window-count-negative", "model-window-counts-short", "model-window-counts-zero",
        "model-label-number", "model-vocab-size-string", "prior-probability-string",
        "model-list", "metric-nan", "metric-infinity", "metric-string", "metric-bool",
        "per-name-number"])
def test_ill_typed_record_field_exits_2(tmp_path, capsys, record, field) -> None:
    path = tmp_path / "in.jsonl"
    out = tmp_path / "out.jsonl"
    if isinstance(record, list) or "kind" in record:
        _check_ill_typed_model(tmp_path, capsys, record, field)
        return
    if "f1" in record:
        targets = tmp_path / "targets.tsv"
        targets.write_text("memset\t50\n")
        good, argv = PER_NAME, ["correlate", "--per-name", str(path), "--targets", str(targets),
                                "--report", str(out)]
    elif "counts" in record:
        good, argv = RECOVERY, ["score", "--pred", str(path), "--truth", str(path),
                                "--report", str(out)]
    elif "start" in record:
        good, argv = WINDOW, ["rebalance", "--windows", str(path), "--out", str(out)]
    elif "labels" in record:
        good, argv = LABELS, ["coalesce", "--labels", str(path), "--out", str(out)]
    else:
        good, argv = FUNCTION, ["windows", "--functions", str(path), "--out", str(out)]
    # a blank line counts toward the location too
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(record) + "\n")
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}:3: " in err
    assert f"'{field}'" in err
    assert not out.exists()


_OTHER_ID = ["b.c", "g", 0]


@pytest.mark.parametrize("stage, records, field", [
    ("reconcile", [FUNCTION, {**FUNCTION, "id": _OTHER_ID}, FUNCTION], "id"),
    ("windows", [FUNCTION, {**FUNCTION, "id": _OTHER_ID}, FUNCTION], "id"),
    ("predict", [WINDOW, {**WINDOW, "start": 1}, WINDOW], "start"),
    ("predict", [WINDOW, {**WINDOW, "func_id": _OTHER_ID}, WINDOW], "func_id"),
    ("coalesce", [LABELS, {**LABELS, "func_id": _OTHER_ID}, LABELS], "func_id"),
    ("combine", [RECOVERY, {**RECOVERY, "func_id": _OTHER_ID}, RECOVERY], "func_id"),
    ("score", [RECOVERY, {**RECOVERY, "func_id": _OTHER_ID}, RECOVERY], "func_id"),
], ids=["reconcile", "windows", "predict-start", "predict-apart", "coalesce", "combine",
        "score"])
def test_repeated_function_exits_2_at_its_line(tmp_path, capsys, stage, records, field) -> None:
    """A second body of one function is refused where it starts, never merged into the first."""
    path, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    # a blank line counts toward the location too
    path.write_text(json.dumps(records[0]) + "\n" + json.dumps(records[1]) + "\n\n"
                    + json.dumps(records[2]) + "\n")
    targets, model, other = tmp_path / "targets.txt", tmp_path / "model.json", tmp_path / "o"
    targets.write_text("memset\n")
    model.write_text(json.dumps(PRIOR))
    other.write_text(json.dumps(RECOVERY) + "\n")
    argv = {
        "reconcile": ["--functions", path, "--targets", targets, "--out", out],
        "windows": ["--functions", path, "--out", out],
        "predict": ["--windows", path, "--model", model, "--out", out],
        "coalesce": ["--labels", path, "--out", out],
        "combine": ["--model", path, "--decompiler", other, "--out", out],
        "score": ["--pred", path, "--truth", other, "--report", out],
    }[stage]
    assert cli.run([stage, *map(str, argv)]) == 2
    err = capsys.readouterr().err
    assert f"uninline {stage}: error: {path}:4: " in err and f"'{field}'" in err, err
    if field in ("id", "func_id") and stage != "predict":
        assert "of line 1" in err
    assert not out.exists()


def _stage_reading(stage: str, path, out) -> list[str]:
    return {
        "rebalance": ["rebalance", "--windows", str(path), "--out", str(out)],
        "coalesce": ["coalesce", "--labels", str(path), "--out", str(out)],
        "score": ["score", "--pred", str(path), "--truth", str(path), "--report", str(out)],
        "windows": ["windows", "--functions", str(path), "--out", str(out)],
    }[stage]


def _check_ill_typed_model(tmp_path, capsys, model, field) -> None:
    """`predict --model` must refuse the model file, naming it and the field."""
    vocab, win, path = tmp_path / "vocab.txt", tmp_path / "w.jsonl", tmp_path / "model.json"
    bpe.save_vocab(vocab, bpe.BpeVocab(()))
    win.write_text(json.dumps(WINDOW) + "\n")
    good = PRIOR if isinstance(model, dict) and model["kind"] == "prior" else MODEL

    def predict(out):
        return cli.run(["predict", "--windows", str(win), "--model", str(path),
                        "--vocab", str(vocab), "--out", str(out)])

    path.write_text(json.dumps(good))
    assert predict(tmp_path / "good.jsonl") == 0
    path.write_text(json.dumps(model))
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert predict(out) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    assert f"'{field}'" in err if field else "expected a JSON object" in err
    assert not out.exists()


_NO_BYTE = "\ud800"  # json.dumps writes it as the escape \ud800


@pytest.mark.parametrize("stage, good, bad, field", [
    ("reconcile", FUNCTION, {**FUNCTION, "id": ["b.c", "g" + _NO_BYTE, 0]}, "name"),
    ("reconcile", FUNCTION, {**FUNCTION, "id": ["b" + _NO_BYTE, "g", 0]}, "path"),
    ("windows", FUNCTION, {**FUNCTION, "id": _OTHER_ID, "true_labels": [["f" + _NO_BYTE, 1]]},
     "true_labels"),
    ("windows", FUNCTION, {**FUNCTION, "id": _OTHER_ID, "recovered": ["memset", _NO_BYTE]},
     "recovered"),
    ("rebalance", WINDOW, {**WINDOW, "label": "free" + _NO_BYTE}, "label"),
    ("coalesce", LABELS, {**LABELS, "func_id": _OTHER_ID, "labels": ["", _NO_BYTE]}, "labels"),
    ("coalesce", LABELS, {**LABELS, "func_id": ["b.c", _NO_BYTE, 0]}, "name"),
    ("combine", RECOVERY, {**RECOVERY, "func_id": _OTHER_ID, "counts": {_NO_BYTE: 1}},
     "counts"),
    ("combine", RECOVERY, {**RECOVERY, "func_id": _OTHER_ID, "optlevel": _NO_BYTE},
     "optlevel"),
], ids=["reconcile-name", "reconcile-path", "windows-true_labels", "windows-recovered",
        "rebalance-label", "coalesce-labels", "coalesce-name", "combine-counts",
        "combine-optlevel"])
def test_a_name_holding_a_surrogate_for_no_byte_exits_2_at_its_line(tmp_path, capsys, stage,
                                                                    good, bad, field) -> None:
    """Every string a stage writes again is refused on read if it could not be written."""
    path, out, other = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "o.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("memset\n")
    other.write_text(json.dumps(RECOVERY) + "\n")
    argv = {"reconcile": ["--functions", path, "--targets", targets, "--out", out],
            "windows": ["--functions", path, "--out", out],
            "rebalance": ["--windows", path, "--out", out],
            "coalesce": ["--labels", path, "--out", out],
            "combine": ["--model", path, "--decompiler", other, "--out", out]}[stage]
    assert cli.run([stage, *map(str, argv)]) == 2
    assert capsys.readouterr().err == (
        f"uninline {stage}: error: {path}:2: field '{field}' holds \\ud800, "
        "a surrogate that stands for no byte\n")
    assert not out.exists()


def test_a_model_label_holding_a_surrogate_for_no_byte_is_refused(tmp_path, capsys) -> None:
    _check_ill_typed_model(tmp_path, capsys, {**PRIOR, "labels": ["", _NO_BYTE]}, "labels")


@pytest.mark.parametrize("stage, line", [
    ("rebalance", "[1, 2]"),
    ("coalesce", '"x"'),
    ("score", "[1, 2]"),
    ("windows", "null"),
])
def test_non_object_record_exits_2_with_location(tmp_path, capsys, stage, line) -> None:
    path = tmp_path / "in.jsonl"
    path.write_text(f"\n{line}\n")
    out = tmp_path / "out.jsonl"
    assert cli.run(_stage_reading(stage, path, out)) == 2
    assert f"error: {path}:2: expected a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, record, field", [
    ("rebalance", {k: v for k, v in WINDOW.items() if k != "start"}, "start"),
    ("coalesce", {k: v for k, v in LABELS.items() if k != "func_id"}, "func_id"),
    ("score", {k: v for k, v in RECOVERY.items() if k != "counts"}, "counts"),
])
def test_missing_record_field_names_its_location(tmp_path, capsys, stage, record, field) -> None:
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(record) + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.run(_stage_reading(stage, path, out)) == 2
    assert f"error: {path}:1: missing field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_invalid_utf8_names_its_location(tmp_path, capsys, end) -> None:
    path = tmp_path / "w.jsonl"
    path.write_bytes(json.dumps(WINDOW).encode() + end + b'{"label": "\xff\xfe"}' + end)
    rc = cli.run(["rebalance", "--windows", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error: {path}:2: invalid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("record, field", [
    ({**PER_NAME, "precision": "0.5"}, "precision"),
    ({**PER_NAME, "recall": True}, "recall"),
    ({**PER_NAME, "f1": None}, "f1"),
    ({**PER_NAME, "name": ["memset"]}, "name"),
], ids=["precision-string", "recall-bool", "f1-null", "name-list"])
def test_correlate_refuses_non_numeric_metrics(tmp_path, capsys, record, field) -> None:
    targets = tmp_path / "targets.tsv"
    targets.write_text("memset\t50\nstrcpy\t10\n")
    path = tmp_path / "per_name.jsonl"
    path.write_text(json.dumps({**PER_NAME, "name": "strcpy"}) + "\n"
                    + json.dumps(record) + "\n")
    report = tmp_path / "corr.json"
    argv = ["correlate", "--per-name", str(path), "--targets", str(targets),
            "--report", str(report)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}:2: field '{field}'" in err
    assert not report.exists()


@pytest.mark.parametrize("frequency", ["abc", "2.5", "-5", "1_000"])
def test_bad_target_frequency_names_its_location(tmp_path, capsys, frequency) -> None:
    targets = tmp_path / "targets.tsv"
    targets.write_text(f"# name\tfrequency\nstrcpy\t10\nmemset\t{frequency}\n")
    path = tmp_path / "per_name.jsonl"
    path.write_text(json.dumps(PER_NAME) + "\n")
    assert cli.run(["correlate", "--per-name", str(path), "--targets", str(targets)]) == 2
    err = capsys.readouterr().err
    assert (f"error: {targets}:3: frequency must be a non-negative integer, not {frequency!r}"
            in err)


@pytest.mark.parametrize("metric", ["precision", "recall", "f1"])
@pytest.mark.parametrize("value", [1e308, -1e308, 1.5, -0.25])
def test_correlate_refuses_a_metric_that_is_no_ratio(tmp_path, capsys, metric, value) -> None:
    # 1e308 and -1e308 are finite, but overflowed the correlation into NaN
    targets = tmp_path / "targets.tsv"
    targets.write_text("memset\t50\nstrcpy\t10\n")
    path = tmp_path / "per_name.jsonl"
    path.write_text(json.dumps({**PER_NAME, metric: value}) + "\n"
                    + json.dumps({**PER_NAME, "name": "strcpy", metric: 0.5}) + "\n")
    report = tmp_path / "corr.json"
    argv = ["correlate", "--per-name", str(path), "--targets", str(targets),
            "--report", str(report)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {path}:1: field '{metric}' must be a ratio in [0, 1]" in captured.err
    assert "nan" not in captured.out
    assert not report.exists()


@pytest.mark.parametrize("frequency", [str(10**400), str(10**300), str(2**53 + 1),
                                       "0" * 40 + str(2**60)],
                         ids=["1e400", "1e300", "2**53+1", "zero-padded-2**60"])
def test_target_frequency_past_2_53_names_its_location(tmp_path, capsys, frequency) -> None:
    targets = tmp_path / "targets.tsv"
    targets.write_text(f"strcpy\t10\nmemset\t{frequency}\n")
    path = tmp_path / "per_name.jsonl"
    path.write_text(json.dumps(PER_NAME) + "\n")
    assert cli.run(["correlate", "--per-name", str(path), "--targets", str(targets)]) == 2
    assert f"error: {targets}:2: frequency must be at most 2**53" in capsys.readouterr().err


def test_target_frequency_of_2_53_is_taken_exactly(tmp_path, capsys) -> None:
    targets = tmp_path / "targets.tsv"
    targets.write_text(f"strcpy\t{'0' * 30}10\nmemset\t{2**53}\n")
    path = tmp_path / "per_name.jsonl"
    path.write_text(json.dumps(PER_NAME) + "\n"
                    + json.dumps({**PER_NAME, "name": "strcpy", "f1": 0.5}) + "\n")
    report = tmp_path / "corr.json"
    assert cli.run(["correlate", "--per-name", str(path), "--targets", str(targets),
                    "--report", str(report)]) == 0
    assert json.loads(report.read_text())["r_f1"] == pytest.approx(1.0)
    assert corpus.load_targets(targets).frequencies == {"strcpy": 10, "memset": 2**53}


def test_correlate_counts_a_target_name_padded_with_spaces(tmp_path, caplog) -> None:
    targets = tmp_path / "targets.tsv"
    targets.write_text("memset \t50\nstrcpy\t10\n")
    path = tmp_path / "per_name.jsonl"
    path.write_text(json.dumps(PER_NAME) + "\n"
                    + json.dumps({**PER_NAME, "name": "strcpy", "f1": 0.5}) + "\n")
    report = tmp_path / "corr.json"
    assert cli.run(["correlate", "--per-name", str(path), "--targets", str(targets),
                    "--report", str(report)]) == 0
    assert json.loads(report.read_text())["points"] == 2
    assert "no frequency" not in caplog.text


def _prior_stage_argvs(tmp_path, seed: str) -> list[list[str]]:
    """rebalance at fractions 0 and 0.5, and predict with a prior model, at `seed`."""
    win = tmp_path / "w.jsonl"
    windows.write_windows(win, [windows.WindowInstance(FunctionId("a.c", "f", 0), i, "x",
                                                       "memset" if i % 3 == 0 else "")
                                for i in range(30)])
    model = tmp_path / "prior.json"
    model.write_text(json.dumps(PRIOR))
    out = str(tmp_path / "out.jsonl")
    return [["rebalance", "--windows", str(win), "--out", out, "--discard-fraction", "0",
             "--seed", seed],
            ["rebalance", "--windows", str(win), "--out", out, "--seed", seed],
            ["predict", "--windows", str(win), "--model", str(model), "--out", out,
             "--seed", seed]]


def test_negative_seed_exits_2_naming_the_option(tmp_path, capsys) -> None:
    for argv in _prior_stage_argvs(tmp_path, "-1"):
        assert cli.run(argv) == 2, argv
        assert f"uninline {argv[0]}: error: --seed must be a non-negative integer, not -1" \
            in capsys.readouterr().err


def test_seeded_stages_load_no_numpy_random(tmp_path) -> None:
    """rebalance and prior predict draw from uninline.rng, in a fresh interpreter."""
    code = ("import sys\nfrom uninline import cli\n"
            f"for argv in {_prior_stage_argvs(tmp_path, '7')!r}:\n"
            "    assert cli.run(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p),
           cli.RUN_ROOT_ENV: str(tmp_path / "runs")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("edit, line", [
    (lambda lines: [lines[0], "0\tx\t97"], 2),
    (lambda lines: [lines[0], "0\t97\t300"], 2),
    # the id table of a vocabulary with no merges: id i is on line 4 + i
    (lambda lines: lines[:8] + ["5\tx"] + lines[9:], 9),
    (lambda lines: lines + ["256\tx"], 260),
    (lambda lines: lines[:8] + ["5\tx"] + lines[8:], 9),
    (lambda lines: lines[:9] + [lines[8]] + lines[9:], 10),
    (lambda lines: lines[:-1], None),
], ids=["non-integer", "undefined-id", "table-wrong-text", "table-id-out-of-range",
        "table-wrong-text-then-right", "table-id-listed-again", "table-incomplete"])
def test_malformed_vocab_exits_2_with_location(tmp_path, capsys, edit, line) -> None:
    vocab = tmp_path / "vocab.txt"
    bpe.save_vocab(vocab, bpe.BpeVocab(()))
    vocab.write_text("\n".join(edit(vocab.read_text().splitlines())) + "\n")
    train = tmp_path / "windows.jsonl"
    train.write_text("")
    out = tmp_path / "model.json"
    argv = ["fit", "--kind", "token-stats", "--windows", str(train), "--vocab", str(vocab),
            "--out", str(out)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    # a table that leaves ids out has no line to name
    assert f"error: {vocab}:{line}: " in err if line else f"error: {vocab}: id table" in err
    assert not out.exists()


def test_version_flag(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        cli.run(["--version"])
    assert exc.value.code == 0
    assert "uninline" in capsys.readouterr().out


# ---- malformed JSONL at every record-reading stage

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_RAW_LINE = st.one_of(
    st.sampled_from([b"", b"{", b"[1, 2]", b"null", b'"x"', b"{}", b"1e999", b'{"a": NaN}',
                     b"\xff\xfe", b"\x00"]),
    st.binary(max_size=12).filter(lambda raw: b"\n" not in raw and b"\r" not in raw))


@st.composite
def _jsonl(draw, good: dict) -> bytes:
    """Lines of `good` records, each kept, or with a field dropped, retyped
    or given a retyped element, or with an extra field, or replaced by a
    raw line that may be no JSON, a non-object, or invalid UTF-8."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        record = json.loads(json.dumps(good))
        key = draw(st.sampled_from(sorted(record)))
        how = draw(st.sampled_from(["keep", "drop", "retype", "element", "extra", "raw"]))
        if how == "raw":
            lines.append(draw(_RAW_LINE))
            continue
        if how == "drop":
            del record[key]
        elif how == "retype":
            record[key] = draw(_JSON)
        elif how == "element" and isinstance(record[key], list) and record[key]:
            record[key][draw(st.integers(0, len(record[key]) - 1))] = draw(_JSON)
        elif how == "extra":
            record[draw(st.text(max_size=4))] = draw(_JSON)
        lines.append(json.dumps(record).encode())
    return b"\n".join(lines) + b"\n"


_LABELED = {**FUNCTION, "lines": list(RECONCILE_LINES), "true_labels": [["sprintf", 5]],
            "recovered": ["sprintf"]}
_FUZZ_INPUT = {"reconcile": _LABELED, "windows": _LABELED, "rebalance": WINDOW, "fit": WINDOW,
               "coalesce": LABELS, "combine": RECOVERY, "score": RECOVERY, "correlate": PER_NAME}


@st.composite
def _malformed_stage_input(draw):
    stage = draw(st.sampled_from(sorted(_FUZZ_INPUT)))
    good = _FUZZ_INPUT[stage]
    other = draw(st.one_of(st.just(json.dumps(good).encode() + b"\n"), _jsonl(good)))
    return stage, draw(_jsonl(good)), other


# the autouse run root is shared by the examples: each stage only appends a manifest line
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_malformed_stage_input())
def test_malformed_jsonl_exits_0_or_2_never_a_traceback(tmp_path, case) -> None:
    stage, data, other = case
    path, second, out = tmp_path / "in.jsonl", tmp_path / "other.jsonl", tmp_path / "out"
    path.write_bytes(data)
    second.write_bytes(other)
    targets, vocab = tmp_path / "targets.txt", tmp_path / "vocab.txt"
    targets.write_text("sprintf\t3\nmemset\t5\n")
    bpe.save_vocab(vocab, bpe.train_bpe(["{\n}", "int f(void)"], vocab_size=260,
                                        min_frequency=1))
    argv = {
        "reconcile": ["--functions", path, "--targets", targets, "--optlevel", "O2",
                      "--truth-out", second, "--recovered-out", tmp_path / "rec.jsonl",
                      "--out", out],
        "windows": ["--functions", path, "--out", out],
        "rebalance": ["--windows", path, "--out", out],
        "fit": ["--kind", "token-stats", "--windows", path, "--vocab", vocab, "--out", out],
        "coalesce": ["--labels", path, "--out", out],
        "combine": ["--model", path, "--decompiler", second, "--out", out],
        "score": ["--pred", path, "--truth", second, "--report", out],
        "correlate": ["--per-name", path, "--targets", targets, "--report", out],
    }[stage]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run([stage, *map(str, argv)])
    assert rc in (0, 2)


# ---- the streaming stages: reconcile, windows and bpe-train --functions

_BODY_LINES = ["int f(void)", "{", "}", "  x = 1;", "", "  sprintf(out, buf);",
               '  funcmark_0011aabbccdd[0] = "FUNCMARK:sprintf";', "  memset(p, 0, n);",
               '  funcmark_0011aabbccdd[1] = "FUNCMARK:memset";', "  /* é */"]


@st.composite
def _function_file(draw) -> list[dict]:
    """Function records in id order, of bodies with markers and calls."""
    ids = draw(st.lists(st.tuples(st.sampled_from(["a.c", "b.c"]), st.sampled_from("fgh"),
                                  st.integers(0, 3)), min_size=1, max_size=8, unique=True))
    return [{"id": list(fid), "true_labels": [], "recovered": [],
             "lines": draw(st.lists(st.sampled_from(_BODY_LINES), max_size=30))}
            for fid in sorted(ids)]


def _write_records(path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _reconcile(functions, out, targets, truth, recovered) -> list[str]:
    return ["reconcile", "--functions", str(functions), "--targets", str(targets),
            "--out", str(out), "--optlevel", "O2", "--truth-out", str(truth),
            "--recovered-out", str(recovered)]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_function_file(), order=st.randoms(use_true_random=False))
def test_streaming_stages_write_what_the_sorted_list_gives(tmp_path, records, order) -> None:
    """reconcile, windows and bpe-train --functions on records in id order give the
    bytes of the stages that read every record, sorted them and wrote them at the end;
    on the records in another order they exit 2 and write nothing."""
    functions, targets = tmp_path / "functions.jsonl", tmp_path / "targets.txt"
    _write_records(functions, records)
    targets.write_text("sprintf\nmemset\n")
    out = {name: tmp_path / f"{name}.jsonl" for name in
           ("labeled", "truth", "recovered", "windows", "vocab")}
    argv = {
        "reconcile": _reconcile(functions, out["labeled"], targets, out["truth"],
                                out["recovered"]),
        "windows": ["windows", "--functions", str(out["labeled"]), "--out", str(out["windows"])],
        "bpe-train": ["bpe-train", "--functions", "--vocab-size", "300", "--min-frequency", "1",
                      "--out", str(out["vocab"]), str(functions)],
    }
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in argv.values():
            assert cli.run(stage) == 0

    # the oracle: each stage as it was, on a sorted list of every record
    names = corpus.load_targets(targets)
    every = sorted((DecompiledFunction.from_json(r) for r in records), key=lambda r: r.id)
    labeled = [markers.reconcile_function(r, names) for r in every]
    want = {name: tmp_path / f"want-{name}" for name in out}
    corpus.write_functions(want["labeled"], labeled)
    for name, counts in (("truth", "true_counts"), ("recovered", "recovered_counts")):
        combine.write_recoveries(want[name], (
            FunctionRecovery(r.id, RecoveryMultiset(getattr(r, counts)), "O2")
            for r in labeled))
    spec = windows.WindowSpec()
    windows.write_windows(want["windows"], [w for r in labeled
                                            for w in windows.scan_windows(r, spec)])
    bpe.save_vocab(want["vocab"], bpe.train_bpe(
        ["\n".join(r.lines) for r in every], vocab_size=300, min_frequency=1))
    for name in out:
        assert out[name].read_bytes() == want[name].read_bytes(), name

    # in any other order, each stage refuses its input and leaves its outputs as they were
    places = list(range(len(records)))
    order.shuffle(places)
    if places == sorted(places):
        return
    lines = out["labeled"].read_text().splitlines()
    _write_records(functions, [records[i] for i in places])
    out["labeled"].write_text("".join(lines[i] + "\n" for i in places))
    for stage in argv.values():
        assert cli.run(stage) == 2
    for name in ("truth", "recovered", "windows", "vocab"):
        assert out[name].read_bytes() == want[name].read_bytes(), name
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("stage", ["reconcile", "windows", "bpe-train"])
def test_records_out_of_id_order_exit_2_at_the_later_line(tmp_path, capsys, stage) -> None:
    """Two records swapped: the second of them, whose id falls, is refused at its line."""
    records = _function_records(4)
    records[1], records[2] = records[2], records[1]
    path, out, targets = tmp_path / "in.jsonl", tmp_path / "out", tmp_path / "targets.txt"
    _write_records(path, records)
    targets.write_text("memset\n")
    argv = {
        "reconcile": ["--functions", path, "--targets", targets, "--out", out],
        "windows": ["--functions", path, "--out", out],
        "bpe-train": ["--functions", "--out", out, path],
    }[stage]
    assert cli.run([stage, *map(str, argv)]) == 2
    assert capsys.readouterr().err == (
        f"uninline {stage}: error: {path}:3: field 'id' is ['mem.c', 'f00001', 1], "
        "not past the ['mem.c', 'f00002', 2] of line 2\n")
    assert not out.exists()


@pytest.mark.parametrize("stage", ["reconcile", "windows", "bpe-train"])
def test_malformed_body_line_with_a_line_break_exits_2(tmp_path, capsys, stage) -> None:
    """A line holding a newline would split into more lines than the record gave."""
    path, out, targets = tmp_path / "in.jsonl", tmp_path / "out", tmp_path / "targets.txt"
    targets.write_text("memset\n")
    _write_records(path, [FUNCTION, {**FUNCTION, "id": _OTHER_ID,
                                     "lines": ["int g(void)", "{\n  x = 1;", "}"]}])
    argv = {
        "reconcile": ["--functions", path, "--targets", targets, "--out", out],
        "windows": ["--functions", path, "--out", out],
        "bpe-train": ["--functions", "--out", out, path],
    }[stage]
    assert cli.run([stage, *map(str, argv)]) == 2
    err = capsys.readouterr().err
    assert f"uninline {stage}: error: {path}:2: field 'lines' must be a list of strings " \
           "without line breaks" in err, err
    assert not out.exists() and not list(tmp_path.glob("*.tmp"))


def _function_records(count: int) -> list[dict]:
    """`count` labeled 30-line bodies in id order, one marker each: 11 windows apiece."""
    return [{"id": ["mem.c", f"f{k:05d}", k], "recovered": [],
             "lines": [f"  iVar{i} = iVar{i} * {k} + 0x{i * k:x};" for i in range(14)]
             + ['  funcmark_0011aabbccdd[0] = "FUNCMARK:memset";']
             + [f"  uVar{i} = memset(p, {i}, {k});" for i in range(15)],
             "true_labels": [["memset", 14]]} for k in range(count)]


def _traced_peak(argv: list[str]) -> int:
    """The tracemalloc peak of one in-process CLI run, above what was held when it began."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(argv)  # once untraced, so first-use costs (imports, caches) are paid
        tracemalloc.start()
        try:
            assert cli.run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_windows_peak_memory_does_not_grow_with_its_input(tmp_path) -> None:
    """windows holds one body and its windows at a time, not the file's."""
    peaks = []
    for count in (30, 300):
        path, out = tmp_path / f"f{count}.jsonl", tmp_path / f"w{count}.jsonl"
        _write_records(path, _function_records(count))
        peaks.append(_traced_peak(["windows", "--functions", str(path), "--out", str(out)]))
    assert peaks[1] < 2 * peaks[0], peaks


def test_split_peak_memory_does_not_grow_with_its_file_count(tmp_path) -> None:
    """split holds one file's text and records at a time, not every file's."""
    peaks = []
    for count in (10, 100):
        folder = tmp_path / f"c{count}"
        folder.mkdir()
        for k in range(count):
            (folder / f"m{k:03d}.c").write_text("".join(
                f"int f{k}_{n}(int p)\n{{\n" + "".join(
                    f"  iVar{i} = iVar{i} * {n} + 0x{i * k:x};\n" for i in range(20)) + "}\n"
                for n in range(8)))
        paths = sorted(str(path) for path in folder.glob("*.c"))
        peaks.append(_traced_peak(["split", "--out", str(tmp_path / f"f{count}.jsonl"), *paths]))
    assert peaks[1] < 2 * peaks[0], peaks


def test_reconcile_logs_a_bad_marker_once_whatever_the_order(tmp_path, caplog) -> None:
    """Each body is labeled once, so its warning is logged once."""
    records = _function_records(6)
    records[-1]["lines"][3] = '  x = "FUNCMARK:";'
    path, targets = tmp_path / "functions.jsonl", tmp_path / "targets.txt"
    _write_records(path, records)
    targets.write_text("memset\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(_reconcile(path, tmp_path / "out.jsonl", targets, tmp_path / "truth.jsonl",
                                  tmp_path / "recovered.jsonl")) == 0
    assert caplog.text.count("malformed marker payload") == 1, caplog.text


def test_reconcile_peak_memory_per_input_byte(tmp_path) -> None:
    """reconcile keeps each body's id and label names, not the bodies.

    On these 300 bodies (332 kB), the traced peak per input byte read
    3.41 when the stage held every record, and 0.74 since they stream in
    one pass: about 105 kB that does not grow with the input, and 250 to
    470 bytes a body for its id and label names.
    """
    path = tmp_path / "functions.jsonl"
    _write_records(path, _function_records(300))
    targets = tmp_path / "targets.txt"
    targets.write_text("memset\n")
    peak = _traced_peak(_reconcile(path, tmp_path / "out.jsonl", targets,
                                   tmp_path / "truth.jsonl", tmp_path / "recovered.jsonl"))
    assert peak / path.stat().st_size < 1.6, peak / path.stat().st_size
