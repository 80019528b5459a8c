"""Corpus model: line splitting, targets, function splitting."""

from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ctext import LINES, oracle_code_view

from uninline import corpus, ctext
from uninline.corpus import (
    DecompiledFunction,
    FunctionId,
    Language,
    OptLevel,
    SourceFile,
    TargetFunctionSet,
    load_targets,
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


def test_targets_normalize_and_lookup() -> None:
    targets = TargetFunctionSet.from_names(["MemSet", "strcpy", "memset"])
    assert targets.names == ("memset", "strcpy")
    assert targets.name_set == frozenset({"memset", "strcpy"})


def test_targets_reject_unnormalized() -> None:
    with pytest.raises(ValueError):
        TargetFunctionSet(names=("MemSet",))


@pytest.mark.parametrize("frequency", [1.7, "5", True, -1])
def test_target_frequency_must_be_a_count(frequency) -> None:
    with pytest.raises(ValueError, match="'frequency' must be a non-negative integer"):
        TargetFunctionSet.from_names(["memset"], {"memset": frequency})


def test_load_targets_with_frequencies(tmp_path) -> None:
    path = tmp_path / "targets.txt"
    path.write_text("# frequent first\nsprintf\t120\nmemset\t80\nwifexited\n")
    targets = load_targets(path)
    assert targets.names == ("sprintf", "memset", "wifexited")
    assert targets.frequencies == {"sprintf": 120, "memset": 80}


def test_load_targets_strips_both_fields(tmp_path) -> None:
    path = tmp_path / "targets.txt"
    path.write_text("memset \t5\nStrCpy\t 7\nfree \n")
    targets = load_targets(path)
    assert targets.names == ("memset", "strcpy", "free")
    assert targets.frequencies == {"memset": 5, "strcpy": 7}


@pytest.mark.parametrize("line, error", [
    ("memset\t5\t9", "expected name or name<TAB>frequency, not 3 tab-separated fields"),
    (" \t7", "empty name before the frequency"),
    ("memset\t", "frequency must be a non-negative integer, not ''"),
    ("memset\t ", "frequency must be a non-negative integer, not ''"),
], ids=["third-field", "empty-name", "empty-frequency", "blank-frequency"])
def test_load_targets_refuses_a_malformed_line(tmp_path, line, error) -> None:
    path = tmp_path / "targets.txt"
    path.write_text(f"strcpy\t10\n{line}\n")
    with pytest.raises(ValueError) as exc:
        load_targets(path)
    assert str(exc.value) == f"{path}:2: {error}"


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


# lines as split_lines gives them: no newline, but "", a lone "\r", non-ASCII
# and surrogate-escaped bytes are all lines
BODY_LINE = st.one_of(
    st.sampled_from(["", "\r", "{", "}", "  return 0;", "  /* é */", "\udcff\udcfe"]),
    st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
            max_size=12),
    st.binary(max_size=8).map(lambda raw: raw.decode("utf-8", "surrogateescape"))
    .filter(lambda line: "\n" not in line))
BODY_LINES = st.one_of(st.just(()), st.tuples(BODY_LINE), st.lists(BODY_LINE, max_size=30)
                       .map(tuple))


@settings(max_examples=200, deadline=None)
@given(lines=BODY_LINES, data=st.data())
def test_a_body_held_as_text_gives_its_lines_back(lines, data) -> None:
    anchors = data.draw(st.lists(st.integers(0, len(lines) - 1), max_size=3)) if lines else []
    body = DecompiledFunction(FunctionId("a.c", "f", 0), lines,
                              tuple(("memset", a) for a in anchors), ("strcpy",) * len(anchors),
                              truncated=data.draw(st.booleans()))
    assert body.lines == lines
    assert body.text == ("\n".join(lines) if lines else None)
    assert DecompiledFunction.from_json(body.as_json()) == body
    assert DecompiledFunction(body.id, list(lines)) == DecompiledFunction.from_text(body.id,
                                                                                   body.text)


def test_no_lines_and_one_empty_line_are_different_bodies() -> None:
    fid = FunctionId("a.c", "f", 0)
    empty, blank = DecompiledFunction(fid, ()), DecompiledFunction(fid, ("",))
    assert (empty.text, blank.text) == (None, "")
    assert (empty.lines, blank.lines) == ((), ("",))
    assert empty != blank
    assert empty.as_json()["lines"] == [] and blank.as_json()["lines"] == [""]


@pytest.mark.parametrize("lines", [("a\nb",), ("int f(void)", "{\n}"), ("\n",), "abc",
                                   ("a", 7), ["a", None]])
def test_a_body_refuses_lines_that_would_not_split_back(lines) -> None:
    with pytest.raises(ValueError, match="field 'lines' must be a list of strings "
                                         "without line breaks"):
        DecompiledFunction(FunctionId("a.c", "f", 0), lines)


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
    # in id order; an ordinal is the body's place in the file
    assert [fn.id.name for fn in fns] == ["doit", "helper"]
    assert [fn.id.ordinal for fn in fns] == [1, 0]
    # header through closing brace, inclusive
    assert fns[1].lines[0] == "int helper(int x)"
    assert fns[1].lines[-1] == "}"
    assert fns[0].lines[0].startswith("void __thiscall doit")


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


def oracle_match_header(views: list[str], start: int) -> tuple[str, int, int] | None:
    """The per-character header reader that `_match_header` replaced."""
    view = views[start]
    paren = view.find("(")
    if paren < 0:
        return None
    prefix = view[:paren]
    if not re.fullmatch(r"[A-Za-z0-9_\s\*]*", prefix):
        return None
    idents = ctext.IDENT_RE.findall(prefix)
    if not idents or idents[-1] in corpus._NON_NAMES:
        return None
    name = idents[-1]

    depth = 0
    line_idx, col = start, paren
    while line_idx < len(views):
        text = views[line_idx]
        while col < len(text):
            ch = text[col]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return corpus._find_open_brace(views, name, line_idx, col + 1)
            elif ch in "{};":
                return None
            col += 1
        line_idx += 1
        col = 0
    return None


def oracle_scan_body(views: list[str], open_line: int, open_col: int) -> int | None:
    """The per-character brace matcher that `_scan_body` replaced."""
    depth = 0
    col = open_col
    for line_idx in range(open_line, len(views)):
        text = views[line_idx]
        while col < len(text):
            if text[col] == "{":
                depth += 1
            elif text[col] == "}":
                depth -= 1
                if depth == 0:
                    return line_idx
            col += 1
        col = 0
    return None


# Code views as `split_functions` sees them: headers, parens, braces and
# semicolons, with the whitespace and names around them.
VIEW_PIECES = ["int ", "f", "if", "*", " ", "\t", "\xa0", "(", ")", "{", "}", ";", "x", "{}", "} {"]
VIEW_TEXT = st.lists(st.sampled_from(VIEW_PIECES), max_size=10).map("".join)
HEADERS = st.builds(
    "{}f({}){}".format,
    st.lists(st.sampled_from(["int ", "*", " ", "\t", "\xa0", "x", "if ", ";"]),
             max_size=4).map("".join),
    st.lists(st.sampled_from(["x", " ", "(", ")", ",", "{", ";"]), max_size=6).map("".join),
    st.sampled_from(["", " ", " {", "{ }", " ;", " x", ")", "(", " {}}"]),
)
VIEWS = st.lists(st.one_of(VIEW_TEXT, HEADERS, st.sampled_from(["{", "}", "", "  x;"])),
                 min_size=1, max_size=8)
# Files: lines a decompiler writes, mixed with lines of lexer pieces.
FILE_LINES = st.lists(
    st.one_of(
        st.sampled_from(["int f(void)", "void g(int a) {", "{", "}", "  } else {",
                         "  h(x);", "/* {", "*/ }", "  s = \"}\";", ""]),
        LINES,
    ),
    max_size=14,
)


@settings(max_examples=500, deadline=None)
@given(VIEWS)
def test_scanners_match_character_loops(views) -> None:
    for start in range(len(views)):
        assert corpus._match_header(views, start) == oracle_match_header(views, start)
    # every start, braces or not, including one past the end of a line
    for line, view in enumerate(views):
        for col in range(len(view) + 2):
            assert corpus._scan_body(views, line, col) == oracle_scan_body(views, line, col)


@settings(max_examples=300, deadline=None)
@given(FILE_LINES)
def test_split_functions_matches_character_loops(lines) -> None:
    source = SourceFile("r.c", "\n".join(lines).encode("utf-8", "surrogateescape"),
                        Language.PSEUDO_C)
    fast = split_functions(source)
    with mock.patch.object(ctext, "code_view", oracle_code_view), \
            mock.patch.object(corpus, "_match_header", oracle_match_header), \
            mock.patch.object(corpus, "_scan_body", oracle_scan_body):
        slow = split_functions(source)
    assert fast == slow
