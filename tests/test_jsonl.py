"""The JSONL codec: one record per line, errors named by `path:line`."""

from __future__ import annotations

import json
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uninline import cli, coalesce, combine, corpus, windows
from uninline.jsonl import (INTEGER, check, dump_line, iter_records, read_jsonl, read_records,
                            record_line, write_jsonl)

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


def _rising(path) -> list[tuple[int, str]]:
    return [(r.key, r.text) for r in iter_records(path, Keyed, key="key")]


# how a record's line may be laid out: its key first, as write_jsonl puts it, or not
_LAYOUTS = ['{{"key":{k},"text":{t}}}', '{{"text":{t},"key":{k}}}',
            '{{ "key": {k}, "text": {t} }}']
# each line ending, and the lines it makes
_ENDINGS = {"\n": 1, "\r\n": 1, "\r": 1, "\n\n": 2, "\n  \r\n": 2}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(st.tuples(st.integers(-20, 200), st.text(max_size=6)),
                        unique_by=lambda r: r[0]),
       data=st.data())
def test_iter_records_rising_yields_every_record_in_key_order(tmp_path, records, data) -> None:
    """Records in key order are read as they are, whatever the line endings, blank
    lines and multi-byte text; the first record out of order is refused at its line."""
    if data.draw(st.booleans()):
        records.sort()
    chunks, starts = [], []
    lineno = 1
    for key, text in records:
        layout = data.draw(st.sampled_from(_LAYOUTS))
        ending = data.draw(st.sampled_from(sorted(_ENDINGS)))
        chunks += [layout.format(k=key, t=json.dumps(text, ensure_ascii=False)), ending]
        starts.append(lineno)
        lineno += _ENDINGS[ending]
    path = tmp_path / "r.jsonl"
    path.write_bytes("".join(chunks).encode("utf-8"))
    falls = [i for i in range(1, len(records)) if records[i][0] < records[i - 1][0]]
    if not falls:
        assert _rising(path) == records
        return
    i = falls[0]
    with pytest.raises(ValueError) as error:
        _rising(path)
    assert str(error.value) == (f"{path}:{starts[i]}: field 'key' is {records[i][0]}, not past "
                                f"the {records[i - 1][0]} of line {starts[i - 1]}")


def test_iter_records_rising_refuses_a_repeated_key_naming_both_lines(tmp_path) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text('{"key":4,"text":""}\n{"key":9,"text":""}\n\n{"text":"","key":4}\n')
    with pytest.raises(ValueError, match=f"^{path}:4: field 'key' repeats 4 of line 1$"):
        _rising(path)


@pytest.mark.parametrize("line, error", [
    ('{"key":2}', "missing field 'text'"),
    ('{"key":2.5,"text":""}', "field 'key' must be an integer, not 2.5"),
    ('{"key":[2,"text":""}', "bad JSON record"),
    ('{"key":3,"text":""}', "field 'key' repeats 3 of line 1"),
    ('{"key":2,"text":""}', "field 'key' is 2, not past the 3 of line 1"),
])
def test_iter_records_rising_names_a_bad_line(tmp_path, line, error) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text(f'{{"key":3,"text":""}}\n{line}\n')
    with pytest.raises(ValueError, match=f"^{path}:2: {error}"):
        _rising(path)


def _seen_set_records(path, decode, key) -> list:
    """The keyed reader as it was before every keyed file had one order, the oracle:
    it holds every key, refuses only a repeated one, and takes any order."""
    get = attrgetter(*((key,) if isinstance(key, str) else key))
    seen, records = set(), []
    for index, obj in enumerate(read_jsonl(path)):
        record = decode(obj)
        if (value := get(record)) in seen:
            raise ValueError(f"{path}:{record_line(path, index)}: key {value} repeats")
        seen.add(value)
        records.append(record)
    return records


_FUNC_IDS = st.tuples(st.sampled_from(["a.c", "b.c"]), st.sampled_from("fgh"),
                      st.integers(0, 3)).map(list)
# each keyed record kind: its key's fields, the strategy of a key, the record of a key,
# its decoder, and the reader its stages call
_KINDS = {
    "function": (("id",), _FUNC_IDS.map(lambda f: (f,)),
                 lambda f: {"id": f, "lines": ["{", "}"], "true_labels": [], "recovered": []},
                 corpus.DecompiledFunction.from_json, corpus.read_functions),
    "window": (("func_id", "start"), st.tuples(_FUNC_IDS, st.integers(0, 3)),
               lambda f, s: {"func_id": f, "start": s, "label": "", "text": "{"},
               windows.WindowInstance.from_json, windows.read_windows),
    "label sequence": (("func_id",), _FUNC_IDS.map(lambda f: (f,)),
                       lambda f: {"func_id": f, "labels": ["", "memset"]},
                       coalesce.LabelSequence.from_json, coalesce.read_label_sequences),
    "recovery": (("func_id",), _FUNC_IDS.map(lambda f: (f,)),
                 lambda f: {"func_id": f, "counts": {"memset": 1}},
                 combine.FunctionRecovery.from_json, combine.read_recoveries),
    "per-name": (("name",), st.text("abmstz", min_size=1, max_size=4).map(lambda n: (n,)),
                 lambda n: {"name": n, "tp": 1, "fp": 0, "fn": 0, "precision": 1.0,
                            "recall": 1.0, "f1": 1.0},
                 cli._per_name_row,
                 lambda path: read_records(path, cli._per_name_row, key="name")),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_KINDS)), data=st.data())
def test_every_keyed_record_kind_reads_in_key_order_and_refuses_any_other(
        tmp_path_factory, kind, data) -> None:
    """Records in key order read as the oracle reads them; two adjacent records swapped,
    or a record given again, are refused at the later one's line, naming the first field
    in which it differs from the record before it (for a window, `func_id`, or `start`
    when both windows belong to one function)."""
    names, keys, make, decode, read = _KINDS[kind]
    objs = [make(*k) for k in sorted(data.draw(st.lists(keys, min_size=2, max_size=6,
                                                        unique_by=repr)))]
    path = tmp_path_factory.mktemp("keyed") / "r.jsonl"

    def refused(records) -> str:
        write_jsonl(path, records, dict)
        with pytest.raises(ValueError) as error:
            read(path)
        return str(error.value)

    def named(obj, before) -> str:
        return "start" if kind == "window" and obj["func_id"] == before["func_id"] else names[0]

    write_jsonl(path, objs, dict)
    assert read(path) == _seen_set_records(path, decode, names) == [*map(decode, objs)]

    i = data.draw(st.integers(1, len(objs) - 1), label="swapped with the record before it")
    later, before = objs[i - 1], objs[i]
    name = named(later, before)
    assert refused([*objs[:i - 1], before, later, *objs[i + 1:]]) == (
        f"{path}:{i + 1}: field {name!r} is {later[name]!r}, "
        f"not past the {before[name]!r} of line {i}")

    j = data.draw(st.integers(0, len(objs) - 1), label="repeated")
    at = data.draw(st.integers(j + 1, len(objs)), label="where it repeats")
    name = named(objs[j], objs[at - 1])
    assert refused([*objs[:at], objs[j], *objs[at:]]) == (
        f"{path}:{at + 1}: field {name!r} repeats {objs[j][name]!r} of line {j + 1}")


# text as a body holds it: bytes of any kind, each that is no UTF-8 decoded to U+DC80-U+DCFF
_BODY_TEXT = st.binary(max_size=12).map(lambda raw: raw.decode("utf-8", "surrogateescape"))


@settings(max_examples=300, deadline=None)
@given(record=st.dictionaries(_BODY_TEXT, st.lists(_BODY_TEXT | st.text(max_size=4),
                                                   max_size=4), max_size=3))
def test_dump_line_writes_every_byte_a_string_stands_for(tmp_path_factory, record) -> None:
    line = dump_line(record)
    assert json.loads(line) == record
    path = tmp_path_factory.mktemp("jsonl") / "r.jsonl"
    assert write_jsonl(path, [record], dict) == 1
    assert list(read_jsonl(path)) == [record]


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
