"""Marker injection, extraction, reconciliation, and stripping."""

from __future__ import annotations

import json
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uninline import markers

from uninline.corpus import (
    DecompiledFunction,
    FunctionId,
    Language,
    OptLevel,
    SourceFile,
    TargetFunctionSet,
)
from uninline.markers import (
    AlreadyInstrumentedError,
    ArrayOverflowError,
    MarkerAssignment,
    MarkerPlan,
    RecoveredMarker,
    array_name_for,
    extract_markers,
    inject_markers,
    marked_path,
    reconcile,
    reconcile_function,
    strip_instrumentation,
)

TARGETS = TargetFunctionSet.from_names(["sprintf", "entercriticalsection", "memset"])


def _source(content: bytes, path: str = "proj/a.c") -> SourceFile:
    return SourceFile(path, content, Language.C, OptLevel.O2)


SIMPLE = b"""\
#include <stdio.h>

void report(char *buf, int n) {
    sprintf(buf, "%d", n);
    EnterCriticalSection(&lock);
    sprintf(buf + 8, "%d", n * 2);
}
"""


def test_inject_adds_declaration_and_assignments() -> None:
    inst, plan = inject_markers(_source(SIMPLE), TARGETS)
    text = inst.content.decode()
    lines = text.split("\n")
    array = plan.file_array_name
    assert lines[0] == f"const char *{array}[2000];"
    assert f'{array}[0] = "FUNCMARK:sprintf";' in text
    assert f'{array}[1] = "FUNCMARK:entercriticalsection";' in text
    assert f'{array}[2] = "FUNCMARK:sprintf";' in text
    # each assignment sits on its own line directly above its call
    idx = lines.index(f'    {array}[0] = "FUNCMARK:sprintf";')
    assert "sprintf(buf" in lines[idx + 1]
    assert inst.path == "proj/a.marked.c"


def test_inject_slot_order_follows_source_order() -> None:
    _, plan = inject_markers(_source(SIMPLE), TARGETS)
    assert [(a.slot, a.name) for a in plan.assignments] == [
        (0, "sprintf"),
        (1, "entercriticalsection"),
        (2, "sprintf"),
    ]


def test_array_name_depends_on_path_and_content() -> None:
    a = array_name_for("a.c", b"x")
    b = array_name_for("b.c", b"x")
    c = array_name_for("a.c", b"y")
    assert a != b and a != c
    assert a.startswith("funcmark_") and len(a) == len("funcmark_") + 12


def test_strip_restores_bytes_exactly() -> None:
    for content in (
        SIMPLE,
        SIMPLE.replace(b"\n", b"\r\n"),
        SIMPLE.rstrip(b"\n"),  # no trailing newline
        b"void f(void) {\n\tsprintf(b, \"\x80\xff\", 1);\n}\n",  # undecodable bytes
    ):
        inst, _ = inject_markers(_source(content), TARGETS)
        assert strip_instrumentation(inst.content) == content


def test_double_injection_refused() -> None:
    inst, _ = inject_markers(_source(SIMPLE), TARGETS)
    with pytest.raises(AlreadyInstrumentedError):
        inject_markers(_source(inst.content), TARGETS)


def test_overflow_lists_excess_sites() -> None:
    body = b"void f(void) {\n" + b"    memset(p, 0, 1);\n" * 5 + b"}\n"
    with pytest.raises(ArrayOverflowError) as err:
        inject_markers(_source(body), TARGETS, array_size=3)
    assert len(err.value.overflow) == 2


def test_plan_roundtrip_and_slot_validation() -> None:
    _, plan = inject_markers(_source(SIMPLE), TARGETS)
    # the plan file `inject` writes holds each assignment as [slot, name, line, col]
    obj = json.loads(json.dumps(plan.as_json()))
    assert MarkerPlan(obj["array"], obj["array_size"],
                      tuple(MarkerAssignment(*a) for a in obj["assignments"])) == plan
    with pytest.raises(ValueError):
        MarkerPlan("funcmark_0", 2, plan.assignments)  # slots exceed array


def test_marked_path_suffix() -> None:
    assert marked_path("x/y/z.c") == "x/y/z.marked.c"
    assert marked_path("noext") == "noext.marked.c"


def _body(lines: list[str]) -> DecompiledFunction:
    return DecompiledFunction(FunctionId("dec.c", "f", 0), tuple(lines))


def test_extract_markers_in_line_order() -> None:
    body = _body(
        [
            "void f(void) {",
            '  funcmark_ab[0] = "FUNCMARK:sprintf";',
            "  x = 1;",
            '  funcmark_ab[1] = "FUNCMARK:memset";',
            "}",
        ]
    )
    assert extract_markers(body) == [
        RecoveredMarker("sprintf", 1),
        RecoveredMarker("memset", 3),
    ]


def test_extract_two_markers_on_one_line() -> None:
    body = _body(['a = "FUNCMARK:sprintf"; b = "FUNCMARK:memset";'])
    assert [m.name for m in extract_markers(body)] == ["sprintf", "memset"]


def test_extract_skips_malformed_payload(caplog) -> None:
    body = _body(['s = "FUNCMARK:";', 's2 = "FUNCMARK:memset";'])
    with caplog.at_level("WARNING"):
        markers = extract_markers(body)
    assert [m.name for m in markers] == ["memset"]
    assert "malformed" in caplog.text


def test_extract_lowercases_names() -> None:
    body = _body(['s = "FUNCMARK:EnterCriticalSection";'])
    assert extract_markers(body)[0].name == "entercriticalsection"


def oracle_extract_markers(body: DecompiledFunction) -> tuple[list, list]:
    """The line-by-line search that `extract_markers` replaced, kept as its
    reference: the markers it finds and the (id, line) of each malformed one."""
    found, malformed = [], []
    for lineno, line in enumerate(body.lines):
        for match in markers._PAYLOAD_RE.finditer(line):
            if match.group(1) is None:
                malformed.append((body.id, lineno))
            else:
                found.append(RecoveredMarker(match.group(1).lower(), lineno))
    return found, malformed


MARKER_PIECES = ["FUNCMARK:", "FUNCMARK:memset", "FUNCMARK:Sprintf_2", "FUNCMARK", ":", "M",
                 "_", "9", " ", '"', "\n", "\n\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(MARKER_PIECES), max_size=20).map("".join))
@example("\nFUNCMARK:\nx FUNCMARK:a FUNCMARK:\n\nFUNCMARK:B")
def test_extract_markers_matches_line_by_line_search(text) -> None:
    body = DecompiledFunction.from_text(FunctionId("dec.c", "f", 0), text)
    with mock.patch.object(markers.log, "warning") as warning:
        found = extract_markers(body)
    expected, malformed = oracle_extract_markers(body)
    assert found == expected
    assert [call.args[1:] for call in warning.call_args_list] == malformed


def test_reconcile_removes_earliest_first() -> None:
    markers = [
        RecoveredMarker("sprintf", 2),
        RecoveredMarker("sprintf", 8),
        RecoveredMarker("memset", 5),
    ]
    residual, removed = reconcile(markers, Counter({"sprintf": 1}))
    # the earliest sprintf marker is consumed; survivors come back in line order
    assert residual == (("memset", 5), ("sprintf", 8))
    assert removed == Counter({"sprintf": 1})


def test_reconcile_ignores_recovered_without_marker() -> None:
    residual, removed = reconcile([], Counter({"memset": 2}))
    assert residual == ()
    assert removed == Counter()


def test_reconcile_caps_at_marker_count() -> None:
    markers = [RecoveredMarker("memset", 1)]
    residual, removed = reconcile(markers, Counter({"memset": 3}))
    assert residual == ()
    assert removed == Counter({"memset": 1})


def test_reconcile_function_full_pipeline() -> None:
    # 3 sprintf + 1 entercriticalsection inlined at source; the
    # decompiler still sees one plain sprintf call
    body = DecompiledFunction(
        FunctionId("dec.c", "f", 0),
        (
            "void f(void) {",
            '  funcmark_aa[0] = "FUNCMARK:sprintf";',
            "  inlined_body_a();",
            '  funcmark_aa[1] = "FUNCMARK:sprintf";',
            "  sprintf(buf, fmt, x);",
            '  funcmark_aa[2] = "FUNCMARK:entercriticalsection";',
            "  lock_inline_body();",
            '  funcmark_aa[3] = "FUNCMARK:sprintf";',
            "  more_inlined();",
            "}",
        ),
    )
    out = reconcile_function(body, TARGETS)
    assert out.recovered == ("sprintf",)
    # earliest sprintf marker reconciled away; two remain, plus the lock
    assert out.true_counts == Counter({"sprintf": 2, "entercriticalsection": 1})
    assert out.true_labels == (
        ("sprintf", 3),
        ("entercriticalsection", 5),
        ("sprintf", 7),
    )


def test_reconcile_function_drops_foreign_markers() -> None:
    body = _body(['x = "FUNCMARK:not_a_target";', "y();"])
    out = reconcile_function(body, TARGETS)
    assert out.true_labels == ()
