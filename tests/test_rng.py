"""The pure-Python seeded stream against numpy's default generator, its oracle."""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uninline.rng import doubles

SEEDS = st.integers(0, 2**300)


def _numpy_draws(entropy, n: int = 64) -> list[float]:
    gen = np.random.default_rng(entropy)
    return [gen.random() for _ in range(n)]


# 2**96 and 2**128 - 1 fill the four-word pool exactly; 2**128 and 2**300 mix in extra words
@settings(max_examples=300, deadline=None)
@given(st.one_of(SEEDS, st.lists(SEEDS, min_size=1, max_size=8).map(tuple)))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**96)
@example(2**128 - 1)
@example(2**128)
@example(())
@example((0, 0))
@example((2**300,) * 8)
def test_doubles_equal_numpys_default_rng(entropy) -> None:
    assert list(islice(doubles(entropy), 64)) == _numpy_draws(entropy)


@pytest.mark.parametrize("entropy", [-1, True, 1.0, "1", None, [1], np.int64(1),
                                     (1, -1), (1, False), (1, 2.0), ((1,),)])
def test_anything_but_counts_is_refused_before_a_draw(entropy) -> None:
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        doubles(entropy)
