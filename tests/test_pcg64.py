"""thm1's sample stream: numpy's PCG64 as default_rng(seed) seeds it, held
in the package so that the samples do not hang on numpy.random."""

from __future__ import annotations

import numpy as np
import pytest

from gammacert._pcg64 import PCG64
from gammacert.errors import ParameterError
from gammacert.suites import RATIO_SAMPLE_SEED, ratio_samples

#: thm1's bounds on (y, log10 t, log10(x + y + 1))
LOW, HIGH = (-0.9, -2.0, -2.0), (5.0, 2.0, 3.0)


@pytest.mark.parametrize("seed", [RATIO_SAMPLE_SEED, 0, 1, 2**32 + 5, 2**70 + 3])
def test_the_stream_is_numpys_bit_for_bit(seed):
    ours, numpys = PCG64(seed), np.random.default_rng(seed)
    for rows in (205, 3, 1, 50):  # one batch after another from one stream
        got = ours.uniform(LOW, HIGH, rows)
        want = numpys.uniform(LOW, HIGH, (rows, 3)).tolist()
        assert [[v.hex() for v in row] for row in got] == \
            [[v.hex() for v in row] for row in want]


@pytest.mark.parametrize("seed", [-1, 2.0, 1.5, True, "1", None, np.float64(3.0)])
def test_a_seed_is_an_integer_at_or_above_zero(seed):
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        ratio_samples(5, seed)


@pytest.mark.parametrize("count", [-1, 2.0, True])
def test_a_count_is_an_integer_at_or_above_zero(count):
    with pytest.raises(ParameterError, match="count must be an integer >= 0"):
        ratio_samples(count)


def test_a_numpy_integer_seed_is_its_int():
    assert ratio_samples(20, np.int64(7)) == ratio_samples(20, 7)
