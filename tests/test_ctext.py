"""Lexical scanning: code views and call-site location."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uninline.ctext import (
    IDENT_RE,
    START_STATE,
    CallSite,
    ScanState,
    code_view,
    code_views,
    find_call_sites,
)


def test_code_view_blanks_string_literals() -> None:
    view, state = code_view('x = strcpy(a, "memset(b)");')
    assert view == 'x = strcpy(a,            );'
    assert state == START_STATE


def test_code_view_preserves_length_and_columns() -> None:
    line = 'if (p->kind == \'x\') { free(p); } /* free(q); */'
    view, _ = code_view(line)
    assert len(view) == len(line)
    assert view.index("free") == line.index("free")
    assert "free(q)" not in view


def test_code_view_line_comment_ends_scan() -> None:
    line = "a = 1; // b = memset(x)"
    view, state = code_view(line)
    assert view == "a = 1; ".ljust(len(line))
    assert not state.in_comment


def test_block_comment_spans_lines() -> None:
    views = code_views(["start(); /* comment", "still comment", "done */ end();"])
    assert views[0].startswith("start(); ")
    assert views[1] == " " * len("still comment")
    assert views[2].endswith(" end();")


def test_directive_blanked_with_continuation() -> None:
    views = code_views(["#define CALL(x) \\", "    memset(x, 0, 1)", "memset(y, 0, 1);"])
    assert views[0].strip() == ""
    assert views[1].strip() == ""
    assert "memset" in views[2]


def test_unterminated_literal_closes_at_eol() -> None:
    # decompilers sometimes emit broken lines; the scanner must not leak state
    view, state = code_view('s = "unterminated')
    assert view == "s = " + " " * len('"unterminated')
    assert state == START_STATE


def test_find_call_sites_basic() -> None:
    lines = [
        "int main(void) {",
        "    memset(buf, 0, 16);",
        "    x = strcpy (dst, src);",
        "}",
    ]
    sites = find_call_sites(lines, frozenset({"memset", "strcpy"}))
    assert sites == [CallSite(1, 4, "memset"), CallSite(2, 8, "strcpy")]


def test_find_call_sites_case_insensitive() -> None:
    lines = ["void f(void) {", "    EnterCriticalSection(&cs);", "}"]
    sites = find_call_sites(lines, frozenset({"entercriticalsection"}))
    assert [s.name for s in sites] == ["entercriticalsection"]


def test_member_access_is_not_a_call_site() -> None:
    lines = ["void f(S *p) {", "    p->free(p);", "    q.free(q);", "    free(r);", "}"]
    sites = find_call_sites(lines, frozenset({"free"}))
    assert [(s.line, s.name) for s in sites] == [(3, "free")]


def test_file_scope_mentions_are_skipped() -> None:
    # prototypes and definition headers sit at depth 0
    lines = [
        "void memset_wrapper(void *p);",
        "int memset(void *p, int c, int n);",
        "void g(void) {",
        "    memset(p, 0, n);",
        "}",
    ]
    sites = find_call_sites(lines, frozenset({"memset"}))
    assert [(s.line, s.name) for s in sites] == [(3, "memset")]


def test_calls_inside_strings_and_comments_ignored() -> None:
    lines = [
        "void f(void) {",
        '    log("memset(0) happened");',
        "    /* memset(p, 0, 1); */",
        "    memset(p, 0, 1);",
        "}",
    ]
    sites = find_call_sites(lines, frozenset({"memset"}))
    assert [s.line for s in sites] == [3]


def test_depth_tracks_across_lines_and_same_line_braces() -> None:
    lines = [
        "int f(void) { memset(a, 0, 1); }",
        "int unused;",
        "int g(void)",
        "{",
        "    if (x) { memset(b, 0, 1); }",
        "}",
    ]
    sites = find_call_sites(lines, frozenset({"memset"}))
    assert [s.line for s in sites] == [0, 4]


def oracle_code_view(line: str, state: ScanState = START_STATE) -> tuple[str, ScanState]:
    """The per-character lexer that `code_view` replaced, kept as its reference."""
    if state.in_directive or (not state.in_comment and line.lstrip().startswith("#")):
        continued = line.endswith("\\")
        return " " * len(line), ScanState(in_comment=False, in_directive=continued)

    out = [" "] * len(line)
    mode = "comment" if state.in_comment else "code"
    escaped = False
    i = 0
    while i < len(line):
        ch = line[i]
        if mode == "code":
            if ch == '"':
                mode = "string"
            elif ch == "'":
                mode = "char"
            elif ch == "/" and line.startswith("//", i):
                break
            elif ch == "/" and line.startswith("/*", i):
                mode = "comment"
                i += 2
                continue
            else:
                out[i] = ch
        elif mode in ("string", "char"):
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif (ch == '"' and mode == "string") or (ch == "'" and mode == "char"):
                mode = "code"
        else:  # comment
            if ch == "*" and line.startswith("*/", i):
                mode = "code"
                i += 2
                continue
        i += 1
    return "".join(out), ScanState(in_comment=(mode == "comment"), in_directive=False)


# Pieces of pseudo-C that steer the lexer: every character that opens or
# closes a lexeme, escapes, the whitespace `str.lstrip` removes before a
# directive's `#` (form feed, \x1c, no-break space), a CR, an LF (a
# record's line may hold one), a lone surrogate from surrogateescape,
# and the lexemes that overlap.
PIECES = list("\"'\\/*#a {}(\t\x0c\x1c\xa0\r\n\udcff") + [
    "/*/", "/**/", "*/", "->", "//", " #", "\\\"", "\\'", "x(",
]
LINES = st.lists(st.sampled_from(PIECES), max_size=16).map("".join)
STATES = st.builds(ScanState, st.booleans(), st.booleans())


@settings(max_examples=1000, deadline=None)
@given(LINES, STATES)
@example('s = "a\\', START_STATE)  # trailing escape inside a literal
@example("/*/ x", START_STATE)  # `/*/` does not close
@example("a */ b /* c", ScanState(in_comment=True))
@example("\t# x \\", START_STATE)  # a directive after whitespace, continued
@example("\x1c#", ScanState(in_comment=True))
def test_code_view_matches_character_loop(line, state) -> None:
    assert code_view(line, state) == oracle_code_view(line, state)


@settings(max_examples=300, deadline=None)
@given(st.lists(LINES, max_size=8))
def test_code_views_carry_state_like_character_loop(lines) -> None:
    state = START_STATE
    expected = []
    for line in lines:
        view, state = oracle_code_view(line, state)
        expected.append(view)
    assert code_views(lines) == expected


def oracle_find_call_sites(lines, names) -> list[CallSite]:
    """The loop that matched every identifier of every line, kept as the
    reference for `find_call_sites`, which skips lines that hold no name."""
    sites = []
    depth = 0
    for lineno, view in enumerate(code_views(lines)):
        for match in IDENT_RE.finditer(view):
            if match.group(0).lower() not in names:
                continue
            rest = view[match.end():].lstrip()
            if not rest.startswith("("):
                continue
            before = view[: match.start()].rstrip()
            if before.endswith(".") or before.endswith("->"):
                continue
            here = depth + view[: match.start()].count("{") - view[: match.start()].count("}")
            if here >= 1:
                sites.append(CallSite(lineno, match.start(), match.group(0).lower()))
        depth += view.count("{") - view.count("}")
    return sites


# names that hold one another, in mixed case, a name that is no lowercase
# identifier, and characters whose lowercase form is longer (U+0130) or ASCII
# (U+212A, the Kelvin sign): `find_call_sites` searches lowercased lines
NAMES = ["memset", "mem", "set", "memsetx", "x", "Free", "k", "é"]
CALL_PIECES = [*NAMES, "MEMSET", "MemSet", "FREE", "free", "İ", "K", "K", "_",
               "1", " ", "(", ")", "{", "}", ".", "->", ";", "\t", '"', "'", "//", "/*",
               "*/", "#", "\\"]
CALL_LINES = st.lists(st.sampled_from(CALL_PIECES), max_size=14).map("".join)


@settings(max_examples=500, deadline=None)
@given(lines=st.lists(CALL_LINES, max_size=8),
       names=st.sets(st.sampled_from(NAMES), max_size=4))
@example(lines=["{", 'memset("memset(") /* memset( */ x.memset(); MEMSET (', "}"],
         names={"memset", "set"})
@example(lines=["{ İmemset(", "K(", "k("], names={"memset", "k"})
@example(lines=["{", "free(", "Free("], names={"Free"})
def test_find_call_sites_matches_every_line_loop(lines, names) -> None:
    names = frozenset(names)
    assert find_call_sites(lines, names) == oracle_find_call_sites(lines, names)
