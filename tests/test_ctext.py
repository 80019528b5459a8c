"""Lexical scanning: code views and call-site location."""

from __future__ import annotations

from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uninline.ctext import IDENT_RE, CallSite, code_text, find_call_sites

# a line after the one under test: it is kept as code only when no comment,
# literal or directive carries over into it
NEXT = "\nf();"


def test_code_view_blanks_string_literals() -> None:
    view = code_text('x = strcpy(a, "memset(b)");' + NEXT)
    assert view == 'x = strcpy(a,            );' + NEXT


def test_code_view_preserves_length_and_columns() -> None:
    line = 'if (p->kind == \'x\') { free(p); } /* free(q); */'
    view = code_text(line)
    assert len(view) == len(line)
    assert view.index("free") == line.index("free")
    assert "free(q)" not in view


def test_code_view_line_comment_ends_scan() -> None:
    line = "a = 1; // b = memset(x)"
    view = code_text(line + NEXT)
    assert view == "a = 1; ".ljust(len(line)) + NEXT


def test_block_comment_spans_lines() -> None:
    views = code_text("start(); /* comment\nstill comment\ndone */ end();").split("\n")
    assert views[0].startswith("start(); ")
    assert views[1] == " " * len("still comment")
    assert views[2].endswith(" end();")


def test_directive_blanked_with_continuation() -> None:
    views = code_text("#define CALL(x) \\\n    memset(x, 0, 1)\nmemset(y, 0, 1);").split("\n")
    assert views[0].strip() == ""
    assert views[1].strip() == ""
    assert "memset" in views[2]


def test_unterminated_literal_closes_at_eol() -> None:
    # decompilers sometimes emit broken lines; the scanner must not leak state
    view = code_text('s = "unterminated' + NEXT)
    assert view == "s = " + " " * len('"unterminated') + NEXT


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


class ScanState(NamedTuple):
    """What the per-character lexer carries from one line into the next."""

    in_comment: bool = False
    in_directive: bool = False


START_STATE = ScanState()


def oracle_code_view(line: str, state: ScanState = START_STATE) -> tuple[str, ScanState]:
    """The per-character lexer of one line, kept as the reference for `code_text`."""
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


def oracle_code_text(text: str) -> str:
    """`oracle_code_view` carried line by line over the lines of `text`."""
    state = START_STATE
    views = []
    for line in text.split("\n"):
        view, state = oracle_code_view(line, state)
        views.append(view)
    return "\n".join(views)


# Pieces of pseudo-C that steer the lexer: every character that opens or
# closes a lexeme, escapes, the whitespace `str.lstrip` removes before a
# directive's `#` (form feed, \x1c, no-break space), a CR, an LF that
# ends a line, a lone surrogate from surrogateescape, the lexemes that
# overlap, and characters whose lowercase form is longer (U+0130) or
# ASCII (U+212A, the Kelvin sign; U+017F, the long s).
PIECES = list("\"'\\/*#a {}(\t\x0c\x1c\xa0\r\n\udcff\u0130\u212a\u017f") + [
    "/*/", "/**/", "*/", "->", "//", " #", "\\\"", "\\'", "x(",
]
TEXTS = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)


@settings(max_examples=1500, deadline=None)
@given(TEXTS)
@example('s = "a\\\nx')  # trailing escape inside a literal
@example("/*/ x\ny */ z")  # `/*/` does not close
@example("/*\na */ b /* c\nd")
@example("\t# x \\\n/* y\nz")  # a directive after whitespace, continued past a `/*`
@example("/*\n\x1c#\nx")  # no directive inside a comment
def test_code_view_matches_character_loop(text) -> None:
    assert code_text(text) == oracle_code_text(text)


# One line of a file: the pieces above without the LF that ends a line.
LINES = st.lists(st.sampled_from([p for p in PIECES if "\n" not in p]), max_size=16).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(LINES, max_size=8))
def test_code_views_carry_state_like_character_loop(lines) -> None:
    """Lexing a file's lines as one text carries an open comment or a
    continued directive from a line to the next, as the per-character
    loop does when handed each line with the state the last one left."""
    state = START_STATE
    expected = []
    for line in lines:
        view, state = oracle_code_view(line, state)
        expected.append(view)
    assert code_text("\n".join(lines)).split("\n") == (expected or [""])


def oracle_find_call_sites(lines, names) -> list[CallSite]:
    """The loop that matched every identifier of every line, kept as the
    reference for `find_call_sites`, which skips lines that hold no name.
    It lexes with the per-character lexer."""
    sites = []
    depth = 0
    state = START_STATE
    for lineno, line in enumerate(lines):
        view, state = oracle_code_view(line, state)
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
# (U+212A, the Kelvin sign): `find_call_sites` searches the lowercased text
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
@example(lines=["{İİİk(", "x"], names={"k"})  # lowered, the call would stand on the next line
@example(lines=["{", "free(", "Free("], names={"Free"})
def test_find_call_sites_matches_every_line_loop(lines, names) -> None:
    names = frozenset(names)
    assert find_call_sites(lines, names) == oracle_find_call_sites(lines, names)
