"""End-to-end checks of the pipeline front end."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys

import pytest
from conftest import make_body
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uninline import bpe, cli, coalesce, combine, corpus, markers, windows
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
    assert [f.id.name for f in corpus.read_functions("funcs.jsonl")] == ["first", "tail", "second"]
    (record,) = _manifest(run_root)
    assert record["command"] == "split"
    assert record["inputs"] == {
        path: hashlib.sha256(content).hexdigest() for path, content in sorted(PSEUDO_FILES.items())
    }
    assert record["outputs"] == ["funcs.jsonl"]


@pytest.mark.parametrize("names, message", [
    (["a.c", "missing.c"], "missing.c"),
    (["a.c", "a.c"], "a.c: given twice"),
])
def test_split_refuses_a_missing_or_repeated_file(tmp_path, run_root, capsys, monkeypatch,
                                                  names, message) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.c").write_bytes(b"int f(void) {\n}\n")
    rc = cli.run(["split", "--out", "funcs.jsonl", *names])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "funcs.jsonl").exists()
    assert _manifest(run_root) == []


def test_usage_errors_exit_1(tmp_path) -> None:
    with pytest.raises(SystemExit) as exc:
        cli.run(["score", "--pred", str(tmp_path / "x")])  # missing --truth
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 1


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


@pytest.mark.parametrize("record, field", [
    ({**FUNCTION, "lines": "abc"}, "lines"),
    ({**FUNCTION, "lines": ["int f(void)", 7]}, "lines"),
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
], ids=["lines-string", "lines-number", "true_labels-null", "truncated-string",
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
        "model-list"])
def test_ill_typed_record_field_exits_2(tmp_path, capsys, record, field) -> None:
    path = tmp_path / "in.jsonl"
    out = tmp_path / "out.jsonl"
    if isinstance(record, list) or "kind" in record:
        _check_ill_typed_model(tmp_path, capsys, record, field)
        return
    if "counts" in record:
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


PER_NAME = {"name": "memset", "tp": 1, "fp": 0, "fn": 0,
            "precision": 1.0, "recall": 1.0, "f1": 1.0}


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


@pytest.mark.parametrize("line", ["0\tx\t97", "0\t97\t300"], ids=["non-integer", "undefined-id"])
def test_malformed_vocab_exits_2_with_location(tmp_path, capsys, line) -> None:
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(f"# byte-level bpe vocabulary\n{line}\n")
    train = tmp_path / "windows.jsonl"
    train.write_text("")
    out = tmp_path / "model.json"
    argv = ["fit", "--kind", "token-stats", "--windows", str(train), "--vocab", str(vocab),
            "--out", str(out)]
    assert cli.run(argv) == 2
    assert f"error: {vocab}:2: " in capsys.readouterr().err
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
               "coalesce": LABELS, "combine": RECOVERY, "score": RECOVERY}


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
    targets.write_text("sprintf\nmemset\n")
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
    }[stage]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run([stage, *map(str, argv)])
    assert rc in (0, 2)
