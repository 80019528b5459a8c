"""Lexical helpers for C and decompiler pseudo-C.

Nothing here parses C properly. The pipeline only needs to know which
characters are *code* (outside string/char literals, comments, and
preprocessor directives) so that brace counting and call-site matching
do not trip over braces in string literals or commented-out code.

`code_text` lexes a whole text with one `re.sub` of `_LEXEME_RE`, with
no per-character Python loop, and gives one code view per text. Every
lexeme starts with `"`, `'`, `/` or a newline, so the regex engine skips
straight to those characters. The text between lexemes is code and is
kept; each lexeme is blanked but for its newlines, so the view has the
text's lines and columns.
"""

from __future__ import annotations

import functools
import re
import string
from typing import Iterable, NamedTuple

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# A literal runs to its closing quote or to end of line (an escape may be
# a trailing backslash), `//` to end of line, `/*` to the first `*/` after
# its own two characters or to the end of the text. A directive, a line
# whose first character past the whitespace `str.lstrip` removes is `#`,
# is taken with the newline before it and runs on while a line ends in a
# backslash; `code_text` puts a newline in front of the first line.
_LEXEME_RE = re.compile(
    r"""\"(?:[^"\\\n]|\\[^\n]?)*"?|'(?:[^'\\\n]|\\[^\n]?)*'?|//[^\n]*|/\*.*?(?:\*/|\Z)"""
    r"""|\n[^\S\n]*\#(?:[^\n]*\\\n)*[^\n]*""",
    re.S,
)


def _blank(lexeme: re.Match) -> str:
    text = lexeme.group()
    if "\n" in text:
        return "\n".join(" " * len(line) for line in text.split("\n"))
    return " " * len(text)


def code_text(text: str) -> str:
    """Return `text` with every non-code character but newlines blanked to a space.

    Line and column offsets are preserved. String and character literals
    (quotes included), `//` and `/* */` comments, and preprocessor
    directives (with backslash continuations) are all blanked. Literals
    are assumed not to span lines; an unterminated one closes at end of line.
    """
    return _LEXEME_RE.sub(_blank, "\n" + text)[1:]


class CallSite(NamedTuple):
    line: int
    col: int
    name: str


_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def find_call_sites(lines: Iterable[str], names: frozenset[str] | set[str]) -> list[CallSite]:
    """Locate invocations of `names`: an identifier directly followed by `(`.

    Matching is lexical and case-insensitive against the (lowercased)
    `names`. Member accesses (`p->free(..)`, `obj.free(..)`) are skipped,
    as is anything at file scope (brace depth 0): declarations,
    prototypes and definition headers. Results are in source order.

    The lines are lexed once, joined. A line whose lowercased code holds
    no name holds no call of one, so only the lines where a name occurs
    are visited; the braces before each are counted in the view.
    """
    view = code_text("\n".join(lines))
    lowered = view.lower()
    if len(lowered) != len(view):  # U+0130 lowers to two characters; identifiers are ASCII
        lowered = view.translate(_ASCII_LOWER)
    search = _name_search(frozenset(names))
    sites = []
    lineno = depth = counted = pos = 0
    # an empty name matches anywhere, so each search starts past the line just visited
    while pos <= len(view) and (hit := search(lowered, pos)) is not None:
        start = view.rfind("\n", 0, hit.start()) + 1
        end = view.find("\n", hit.start())
        if end < 0:
            end = len(view)
        lineno += view.count("\n", counted, start)
        depth += view.count("{", counted, start) - view.count("}", counted, start)
        counted = start
        for match in IDENT_RE.finditer(view, start, end):
            name, col = match.group().lower(), match.start()
            if (name in names and view[match.end():end].lstrip().startswith("(")
                    and not view[start:col].rstrip().endswith((".", "->"))
                    and depth + view.count("{", start, col) - view.count("}", start, col) >= 1):
                sites.append(CallSite(lineno, col - start, name))
        pos = end + 1
    return sites


@functools.lru_cache(maxsize=8)
def _name_search(names: frozenset[str]):
    """The `search` of a pattern that finds any of `names` in a text.

    An identifier is ASCII, so its lowercase form stands where it does in
    the lowercased text: a line that holds none of `names` calls none.
    """
    return re.compile("|".join(map(re.escape, sorted(names)))).search
