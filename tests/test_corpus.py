"""Corpus model: line splitting, manifests, targets, function splitting."""

from __future__ import annotations

import pytest

from uninline.corpus import (
    DecompiledFunction,
    FunctionId,
    Language,
    OptLevel,
    SourceFile,
    TargetFunctionSet,
    load_corpus,
    load_targets,
    parse_manifest,
    read_functions,
    split_functions,
    split_lines,
    write_functions,
)


def test_split_lines_lf_and_crlf() -> None:
    assert split_lines(b"a\nb\r\nc\n") == ["a", "b", "c"]


def test_split_lines_trailing_fragment_counts() -> None:
    assert split_lines(b"a\nb") == ["a", "b"]
    assert split_lines(b"") == []


def test_split_lines_lossless_on_arbitrary_bytes() -> None:
    raw = b"\xff\xfe weird \x80\nnext\n"
    lines = split_lines(raw)
    assert len(lines) == 2
    # surrogateescape round-trips the undecodable bytes
    assert lines[0].encode("utf-8", "surrogateescape") == b"\xff\xfe weird \x80"


def test_parse_manifest_happy_and_errors() -> None:
    entries, errors = parse_manifest(
        [
            "# comment",
            "",
            "original\tO2\tsrc/a.c",
            "decompiled\tO2\tdec/a.c",
            "weird\tO2\tdec/b.c",
            "decompiled\tO9\tdec/c.c",
            "decompiled\tO2\tdec/a.c",
            "too\tfew",
        ]
    )
    assert [e.path for e in entries] == ["src/a.c", "dec/a.c"]
    assert entries[0].optlevel is OptLevel.O2
    messages = " | ".join(err.message for err in errors)
    assert "undeclared role" in messages
    assert "unknown optimization level" in messages
    assert "duplicate path" in messages
    assert len(errors) == 4


def test_load_corpus_collects_missing_files(tmp_path) -> None:
    (tmp_path / "good.c").write_bytes(b"int x;\n")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("original\tO0\tgood.c\ndecompiled\tO0\tmissing.c\n")
    load = load_corpus(tmp_path, manifest)
    assert [f.path for f in load.files] == ["good.c"]
    assert load.files[0].language is Language.C
    assert len(load.errors) == 1
    assert "unreadable" in load.errors[0].message


def test_load_corpus_sorted_by_path(tmp_path) -> None:
    for name in ("z.c", "a.c"):
        (tmp_path / name).write_bytes(b"int x;\n")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("original\tO0\tz.c\noriginal\tO0\ta.c\n")
    load = load_corpus(tmp_path, manifest)
    assert [f.path for f in load.files] == ["a.c", "z.c"]


def test_targets_normalize_and_lookup() -> None:
    targets = TargetFunctionSet.from_names(["MemSet", "strcpy", "memset"])
    assert targets.names == ("memset", "strcpy")
    assert "MEMSET" in targets
    assert "free" not in targets


def test_targets_reject_unnormalized() -> None:
    with pytest.raises(ValueError):
        TargetFunctionSet(names=("MemSet",))


def test_load_targets_with_frequencies(tmp_path) -> None:
    path = tmp_path / "targets.txt"
    path.write_text("# frequent first\nsprintf\t120\nmemset\t80\nwifexited\n")
    targets = load_targets(path)
    assert targets.names == ("sprintf", "memset", "wifexited")
    assert targets.frequencies == {"sprintf": 120, "memset": 80}


def test_function_record_roundtrip(tmp_path) -> None:
    fn = DecompiledFunction(
        id=FunctionId("dec/a.c", "main", 0),
        lines=("int main(void)", "{", "  return 0;", "}"),
        true_labels=(("memset", 2),),
        recovered=("sprintf", "sprintf"),
    )
    cut = DecompiledFunction(FunctionId("dec/a.c", "tail", 1), ("int tail(void)", "{"),
                             truncated=True)
    path = tmp_path / "fns.jsonl"
    assert write_functions(path, [fn, cut]) == 2
    back = read_functions(path)
    assert back == [fn, cut]
    assert back[1].truncated
    # the flag is written only when set, so untruncated records keep their old bytes
    assert set(fn.as_json()) == {"id", "lines", "true_labels", "recovered"}
    assert cut.as_json()["truncated"] is True


def test_function_record_validates_anchor() -> None:
    with pytest.raises(ValueError):
        DecompiledFunction(
            id=FunctionId("x.c", "f", 0), lines=("a",), true_labels=(("m", 5),)
        )


PSEUDO = b"""\
int helper(int x)

{
  if (x < 0) {
    return -x;
  }
  return x;
}

void __thiscall doit(undefined4 *param_1) {
  *param_1 = helper(3);
  return;
}
"""


def test_split_functions_finds_both() -> None:
    sf = SourceFile("dec/a.c", PSEUDO, Language.PSEUDO_C, OptLevel.O2)
    fns = split_functions(sf)
    assert [fn.id.name for fn in fns] == ["helper", "doit"]
    assert [fn.id.ordinal for fn in fns] == [0, 1]
    # header through closing brace, inclusive
    assert fns[0].lines[0] == "int helper(int x)"
    assert fns[0].lines[-1] == "}"
    assert fns[1].lines[0].startswith("void __thiscall doit")


def test_split_functions_ignores_file_scope_noise() -> None:
    content = b"""\
int table[3] = {1, 2, 3};
/* int fake(void) { */
extern int ext_func(int);

int real(void) {
  return ext_func(table[0]);
}
"""
    sf = SourceFile("dec/b.c", content, Language.PSEUDO_C, OptLevel.O0)
    fns = split_functions(sf)
    assert [fn.id.name for fn in fns] == ["real"]


def test_split_functions_flags_truncated_tail() -> None:
    content = b"int f(void) {\n  int a = 1;\n"
    sf = SourceFile("dec/c.c", content, Language.PSEUDO_C, OptLevel.O0)
    fns = split_functions(sf)
    assert len(fns) == 1
    assert fns[0].truncated


def test_split_functions_rejects_original_c() -> None:
    sf = SourceFile("a.c", b"int f(void) { return 0; }\n", Language.C, OptLevel.O0)
    with pytest.raises(ValueError):
        split_functions(sf)
