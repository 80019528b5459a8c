"""The JSONL codec: one record per line, errors named by `path:line`."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uninline.jsonl import dump_line, read_jsonl

_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
_RECORDS = st.dictionaries(st.text(max_size=6), _VALUES, max_size=4)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_RECORDS, max_size=5))
def test_records_round_trip_as_json_dumps_writes_them(tmp_path_factory, records) -> None:
    lines = [dump_line(r) for r in records]
    assert lines == [json.dumps(r, ensure_ascii=False, separators=(",", ":"), sort_keys=True)
                     for r in records]
    path = tmp_path_factory.mktemp("jsonl") / "r.jsonl"
    path.write_text("".join(f"  {line} \n\n" for line in lines), encoding="utf-8")
    assert list(read_jsonl(path)) == [json.loads(line) for line in lines]


@pytest.mark.parametrize("line", [
    '{"a": 1} x', '{"a": 1}{}', '{"a": ', "nope", '{"a": NaN', '"\\ud800', "\ufeff{}",
    '{"a": 1,}', "[1, 2", "{'a': 1}",
])
def test_bad_line_error_is_json_loads_error_at_its_line(tmp_path, line) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text('{"ok": true}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as loads_error:
        json.loads(line.strip())
    with pytest.raises(ValueError) as error:
        list(read_jsonl(path))
    assert str(error.value) == f"{path}:2: bad JSON record: {loads_error.value}"


def test_non_object_line_is_refused_at_its_line(tmp_path) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text('{"ok": true}\n[1]\n', encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:2: expected a JSON object$"):
        list(read_jsonl(path))
