"""Lexical helpers for C and decompiler pseudo-C.

Nothing here parses C properly. The pipeline only needs to know which
characters are *code* (outside string/char literals, comments, and
preprocessor directives) so that brace counting and call-site matching
do not trip over braces in string literals or commented-out code.

The lexer has no per-character Python loop. A character-class search
(`_SPECIAL_RE`) finds, left to right, each `"`, `'` or `/`, and one
anchored regular expression (`_LEXEME_RE`) takes the literal or
comment it opens; the text between lexemes is code and is kept, the
lexemes are blanked. Literals and `//` comments end at end of
line. A `/*` comment with no `*/` after its two opening characters
carries over: the next line is blank up to its first `*/`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class ScanState:
    """Carry-over lexical state between consecutive lines."""

    in_comment: bool = False
    in_directive: bool = False


START_STATE = ScanState()
_IN_COMMENT = ScanState(in_comment=True)

# The characters that can open a literal or a comment.
_SPECIAL_RE = re.compile(r"[\"'/]")
# Anchored at such a character: a literal runs to its closing quote or to
# end of line (an escape may be a trailing backslash), `//` runs to end of
# line, `/*` to the first `*/` after its own two characters; a comment
# with no `*/` is `open` and carries into the next line. A `/` that opens
# neither comment is `slash` and stays code. re.S lets `.` take any
# character, as the per-character rules did.
_LEXEME_RE = re.compile(
    r"""\"(?:[^"\\]|\\.?)*"?|'(?:[^'\\]|\\.?)*'?|//.*|/\*.*?\*/|(?P<open>/\*.*)|(?P<slash>/)""",
    re.S,
)


def code_view(line: str, state: ScanState = START_STATE) -> tuple[str, ScanState]:
    """Return `line` with every non-code character blanked to a space.

    The result has the same length as the input, so column offsets are
    preserved. String and character literals (quotes included), `//` and
    `/* */` comments, and preprocessor directives (with backslash
    continuations) are all blanked. Literals are assumed not to span
    lines; an unterminated literal is closed at end of line.

    A line that starts inside a comment is blank up to the first `*/`.
    From there, each `"`, `'` or `/` that `_SPECIAL_RE` finds is matched
    once against `_LEXEME_RE`: a literal or comment is blanked, a lone
    `/` is copied, and the text before it is copied as it is. The line
    ends inside a comment when its last lexeme opened `/*` with no `*/`
    after those two characters, so `/*/` stays open.
    """
    if state.in_directive or (not state.in_comment and line.lstrip().startswith("#")):
        continued = line.endswith("\\")
        return " " * len(line), ScanState(in_comment=False, in_directive=continued)

    pos = 0
    if state.in_comment:
        close = line.find("*/")
        if close < 0:
            return " " * len(line), _IN_COMMENT
        pos = close + 2
    special = _SPECIAL_RE.search(line, pos)
    if special is None and not pos:
        return line, START_STATE
    parts = [" " * pos]
    kind = None
    while special is not None:
        start = special.start()
        lexeme = _LEXEME_RE.match(line, start)
        kind = lexeme.lastgroup
        parts.append(line[pos:start])
        pos = lexeme.end()
        parts.append("/" if kind == "slash" else " " * (pos - start))
        special = _SPECIAL_RE.search(line, pos)
    parts.append(line[pos:])
    return "".join(parts), _IN_COMMENT if kind == "open" else START_STATE


def code_views(lines: Iterable[str]) -> list[str]:
    """Blank out non-code characters across a whole file."""
    state = START_STATE
    views = []
    for line in lines:
        view, state = code_view(line, state)
        views.append(view)
    return views


class CallSite(NamedTuple):
    line: int
    col: int
    name: str


def find_call_sites(
    lines: Iterable[str], names: frozenset[str] | set[str], min_depth: int = 1
) -> list[CallSite]:
    """Locate invocations of `names`: an identifier directly followed by `(`.

    Matching is lexical and case-insensitive against the (lowercased)
    `names`. Member accesses (`p->free(..)`, `obj.free(..)`) are skipped,
    as is anything at brace depth below `min_depth`, which excludes
    declarations, prototypes, and definition headers at file scope.
    Results are in source order.
    """
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
            if here >= min_depth:
                sites.append(CallSite(lineno, match.start(), match.group(0).lower()))
        depth += view.count("{") - view.count("}")
    return sites
