"""The seed rule: a (seed, stream) pair keys one Philox generator."""

import numpy as np
import pytest

from funcsel.seeds import rng_for


@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 2**32 + 3), (2**64 - 1, 2**64 - 1)])
def test_stream_is_the_philox_key(seed, stream):
    key = np.array([seed, stream], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key)).integers(0, 2**63, size=8)
    np.testing.assert_array_equal(rng_for(seed, stream).integers(0, 2**63, size=8), expected)

