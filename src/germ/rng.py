"""Counter-based random streams for reproducible parallel experiments.

Every source of randomness in this package flows through ``philox_stream``:
replication ``r`` of an experiment seeded with ``base_seed`` always uses the
generator ``philox_stream(base_seed, r)``, no matter which worker runs it or
in what order.  Philox is a 64-bit counter-based generator keyed by the
(seed, stream) pair, with platform-independent output, so recorded fixtures
stay stable across machines and across degrees of parallelism.

This choice is frozen: changing the generator family or the key layout
invalidates every stored seed and fixture.
"""

from __future__ import annotations

import numpy as np

_UINT64_MAX = 2**64 - 1


def philox_stream(base_seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream) cell of an experiment.

    Parameters
    ----------
    base_seed:
        Experiment-level seed, a 64-bit unsigned integer.
    stream:
        Stream index (replication number), a 64-bit unsigned integer.
        Distinct (base_seed, stream) pairs yield non-overlapping streams.

    Returns
    -------
    numpy.random.Generator
        Generator owned by the caller; never shared between replications.
    """
    for label, value in (("base_seed", base_seed), ("stream", stream)):
        if not 0 <= int(value) <= _UINT64_MAX:
            raise ValueError(f"{label} must fit in an unsigned 64-bit integer, got {value}")
    key = np.array([base_seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_signs(rng: np.random.Generator, k: int) -> np.ndarray:
    """Draw k fair random signs as an int64 array of +1/-1 values.

    Each sign consumes one 32-bit word of the stream, and a half-used
    64-bit output carries over to the next call.  So ``draw_signs(rng, a +
    b)`` returns exactly ``draw_signs(rng, a)`` followed by
    ``draw_signs(rng, b)``: consumption depends on the number of signs
    drawn, not on how they are split into calls.  The Monte Carlo engine
    relies on this to draw a block of steps' signs at once.
    """
    if k < 1:
        raise ValueError(f"need at least one sign, got k={k}")
    return 2 * rng.integers(0, 2, size=k) - 1
