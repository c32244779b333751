"""The seed rule: how a seed becomes a random stream.

Every random draw of the package comes from the counter-based Philox
generator keyed by the two uint64 words (seed, stream), so a seed gives the
same draws on every platform and a stream's draws do not depend on how many
other streams run. A Monte Carlo replication j draws from streams j and
j + 2^32, and a bootstrap from stream 0. A seed must lie in [0, 2^64), the
range of a key word. Only :func:`rng_for` touches ``numpy.random``, so a job
that draws nothing does not import it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_seed", "rng_for"]


def check_seed(seed: int) -> None:
    """Raises ValueError unless the seed fits a uint64 key word; unlike a
    call of :func:`rng_for`, without importing numpy.random."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed (seed, stream), the one place a seed
    becomes a random stream."""
    check_seed(seed)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
