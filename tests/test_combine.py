"""Recovery multisets and the model + decompiler merge."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from uninline.combine import (
    FunctionRecovery,
    RecoveryMultiset,
    combine,
    combine_recoveries,
    read_recoveries,
    write_recoveries,
)
from uninline.corpus import FunctionId


def test_worked_example() -> None:
    model = RecoveryMultiset({"sprintf": 2, "entercriticalsection": 1})
    decomp = RecoveryMultiset({"sprintf": 1})
    got = combine(model, decomp)
    assert got.as_dict() == {"sprintf": 3, "entercriticalsection": 1}


def test_empty_is_identity() -> None:
    m = RecoveryMultiset({"memset": 4})
    empty = RecoveryMultiset()
    assert combine(m, empty) == m
    assert combine(empty, m) == m
    assert not empty
    assert m


def test_sum_matches_counter_oracle(rng: np.random.Generator) -> None:
    names = ["alpha", "beta", "gamma", "delta"]
    for _ in range(200):
        a = Counter(
            {n: int(rng.integers(0, 5)) for n in names if rng.random() < 0.7}
        )
        b = Counter(
            {n: int(rng.integers(0, 5)) for n in names if rng.random() < 0.7}
        )
        got = combine(RecoveryMultiset(a), RecoveryMultiset(b))
        want = {n: c for n, c in (a + b).items() if c > 0}
        assert got.as_dict() == want


def test_sum_is_commutative_and_associative() -> None:
    a = RecoveryMultiset({"x": 1, "y": 2})
    b = RecoveryMultiset({"y": 3})
    c = RecoveryMultiset({"x": 1, "z": 5})
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


def test_total_is_additive() -> None:
    a = RecoveryMultiset({"x": 1, "y": 2})
    b = RecoveryMultiset({"y": 3, "z": 4})
    assert (a + b).total == a.total + b.total == 10


def test_multiset_semantics() -> None:
    m = RecoveryMultiset({"b": 2, "a": 1, "c": 0})
    assert m.counts == (("a", 1), ("b", 2))  # zero dropped, sorted
    assert m.as_dict() == {"a": 1, "b": 2}
    assert m and not RecoveryMultiset({"a": 0})
    with pytest.raises(ValueError):
        RecoveryMultiset({"a": -1})


def test_equal_regardless_of_input_order() -> None:
    assert RecoveryMultiset([("b", 1), ("a", 2)]) == RecoveryMultiset(
        {"a": 2, "b": 1}
    )


FID_A = FunctionId("lib.c", "doit", 0)
FID_B = FunctionId("lib.c", "helper", 1)
FID_C = FunctionId("other.c", "main", 0)


def test_record_roundtrip(tmp_path) -> None:
    records = [
        FunctionRecovery(FID_A, RecoveryMultiset({"sprintf": 2}), optlevel="O2"),
        FunctionRecovery(FID_B, RecoveryMultiset()),
    ]
    path = tmp_path / "rec.jsonl"
    assert write_recoveries(path, records) == 2
    assert read_recoveries(path) == records
    # optlevel is omitted from the record when untagged
    assert "optlevel" not in records[1].as_json()
    assert records[0].as_json()["optlevel"] == "O2"


def test_combine_recoveries_sums_shared_ids() -> None:
    model = [FunctionRecovery(FID_A, RecoveryMultiset({"sprintf": 2, "memset": 1}))]
    decomp = [FunctionRecovery(FID_A, RecoveryMultiset({"sprintf": 1}))]
    (got,) = combine_recoveries(model, decomp)
    assert got.counts.as_dict() == {"sprintf": 3, "memset": 1}


def test_combine_recoveries_union_and_order() -> None:
    model = [
        FunctionRecovery(FID_A, RecoveryMultiset({"x": 1})),
        FunctionRecovery(FID_B, RecoveryMultiset({"y": 1})),
    ]
    decomp = [
        FunctionRecovery(FID_C, RecoveryMultiset({"z": 1})),
        FunctionRecovery(FID_A, RecoveryMultiset({"x": 1})),
    ]
    got = combine_recoveries(model, decomp)
    # model order first, then decompiler-only ids in their order
    assert [r.func_id for r in got] == [FID_A, FID_B, FID_C]
    assert got[0].counts.as_dict() == {"x": 2}
    assert got[1].counts.as_dict() == {"y": 1}
    assert got[2].counts.as_dict() == {"z": 1}


def test_combine_recoveries_optlevel_from_either_side() -> None:
    model = [FunctionRecovery(FID_A, RecoveryMultiset({"x": 1}))]
    decomp = [FunctionRecovery(FID_A, RecoveryMultiset(), optlevel="O1")]
    (got,) = combine_recoveries(model, decomp)
    assert got.optlevel == "O1"


def test_combine_recoveries_optlevel_disagreement_keeps_model(caplog) -> None:
    model = [FunctionRecovery(FID_A, RecoveryMultiset(), optlevel="O2")]
    decomp = [FunctionRecovery(FID_A, RecoveryMultiset(), optlevel="O3")]
    with caplog.at_level("WARNING", logger="uninline.combine"):
        (got,) = combine_recoveries(model, decomp)
    assert got.optlevel == "O2"
    assert any("disagree" in r.message for r in caplog.records)


def test_combine_recoveries_rejects_duplicate_ids() -> None:
    dup = [
        FunctionRecovery(FID_A, RecoveryMultiset()),
        FunctionRecovery(FID_A, RecoveryMultiset()),
    ]
    with pytest.raises(ValueError):
        combine_recoveries(dup, [])
    with pytest.raises(ValueError):
        combine_recoveries([], dup)
