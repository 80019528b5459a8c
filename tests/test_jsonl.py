"""The JSONL codec: one record per line, errors named by `path:line`."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uninline.jsonl import (INTEGER, check, dump_line, iter_records, iter_records_by_key,
                            read_jsonl, read_records, write_jsonl)

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


def test_iter_records_decodes_a_few_records_ahead_not_the_file(tmp_path) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps({"n": n}) + "\n" for n in range(1000)))
    decoded = []
    records = iter_records(path, lambda obj: decoded.append(obj["n"]) or obj["n"])
    assert [next(records) for _ in range(3)] == [0, 1, 2]
    assert 3 <= len(decoded) <= 64
    assert [*records] == list(range(3, 1000)) and decoded == list(range(1000))


def test_a_repeated_key_names_the_line_that_held_it_first(tmp_path) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps({"key": k}) + "\n\n" for k in [4, 5, 6, 5]))

    class Record:
        def __init__(self, obj):
            self.key = obj["key"]

    with pytest.raises(ValueError, match=f"^{path}:7: field 'key' repeats 5 of line 3$"):
        read_records(path, Record, key="key")


class Keyed:
    def __init__(self, obj):
        self.key, self.text = check("key", obj["key"], INTEGER), obj["text"]


def _by_key(path) -> list[tuple[int, str]]:
    return [(r.key, r.text) for r in iter_records_by_key(
        path, Keyed, "key", lambda v: check("key", v, INTEGER))]


# how a record's line may be laid out: its key first, as write_jsonl puts it, or not
_LAYOUTS = ['{{"key":{k},"text":{t}}}', '{{"text":{t},"key":{k}}}', '{{ "key": {k}, "text": {t} }}',
            '{{"key":"{k}","text":{t},"key":{k}}}']


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(st.tuples(st.integers(-20, 200), st.text(max_size=6)),
                        unique_by=lambda r: r[0]),
       data=st.data())
def test_iter_records_by_key_yields_every_record_in_key_order(tmp_path, records, data) -> None:
    """Whatever the file's order, line endings, blank lines and multi-byte text."""
    lines = []
    for key, text in records:
        layout = data.draw(st.sampled_from(_LAYOUTS))
        lines.append(layout.format(k=key, t=json.dumps(text, ensure_ascii=False)))
        lines.append(data.draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n  \r\n"])))
    path = tmp_path / "r.jsonl"
    path.write_bytes("".join(lines).encode("utf-8"))
    assert _by_key(path) == sorted(records)


def test_iter_records_by_key_refuses_a_repeated_key_naming_both_lines(tmp_path) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text('{"key":9,"text":""}\n{"key":4,"text":""}\n\n{"text":"","key":9}\n'
                    '{"key":4,"text":""}\n')
    with pytest.raises(ValueError, match=f"^{path}:4: field 'key' repeats 9 of line 1$"):
        _by_key(path)


@pytest.mark.parametrize("line, error", [
    ('{"key":2,"key":1,"text":""}', "field 'key' is given twice"),
    ('{"key":2}', "missing field 'text'"),
    ('{"key":2.5,"text":""}', "field 'key' must be an integer, not 2.5"),
    ('{"key":[2,"text":""}', "bad JSON record"),
])
def test_iter_records_by_key_names_a_bad_line(tmp_path, line, error) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text(f'{{"key":3,"text":""}}\n{line}\n')
    with pytest.raises(ValueError, match=f"^{path}:2: {error}"):
        _by_key(path)


def test_write_jsonl_leaves_the_old_file_and_no_tmp_file_when_records_raise(tmp_path) -> None:
    path = tmp_path / "out.jsonl"
    path.write_text("old\n")

    def records():
        yield {"n": 1}
        raise ValueError("bad record")

    with pytest.raises(ValueError, match="bad record"):
        write_jsonl(path, records(), dict)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
    assert write_jsonl(path, range(40), lambda n: {"n": n}) == 40
    assert [*read_jsonl(path)] == [{"n": n} for n in range(40)]
