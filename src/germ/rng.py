"""Counter-based random streams for reproducible parallel experiments.

Every source of randomness in this package is the stream of one
(base_seed, r) key: replication ``r`` of an experiment seeded with
``base_seed`` always draws the output of ``philox_stream(base_seed, r)``,
no matter which worker runs it or in what order.  Philox is a 64-bit
counter-based generator keyed by the (seed, stream) pair, with
platform-independent output, so recorded fixtures stay stable across
machines and across degrees of parallelism.  ``fill_uniforms`` reads the
same streams without building a generator per stream: it re-keys one
Philox per row, and a test pins its rows to ``philox_stream``'s.

This choice is frozen: changing the generator family or the key layout
invalidates every stored seed and fixture.
"""

from __future__ import annotations

import numbers

import numpy as np

_UINT64_MAX = 2**64 - 1


def check_integer(value, label: str) -> int:
    """``value`` as an int; ValueError unless it is a Python or NumPy integer.

    Booleans and floats are rejected, integral or not: ``int()`` would turn
    True into 1 and 1.5 into 1 without a word.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _check_key(base_seed, stream) -> None:
    for label, value in (("base_seed", base_seed), ("stream", stream)):
        check_integer(value, label)
        if not 0 <= value <= _UINT64_MAX:
            raise ValueError(f"{label} must fit in an unsigned 64-bit integer, got {value}")


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
    _check_key(base_seed, stream)
    key = np.array([base_seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fill_uniforms(base_seed: int, first_stream: int, out: np.ndarray) -> None:
    """Set ``out[i]`` to ``philox_stream(base_seed, first_stream + i).random(n)``.

    ``out`` is a C-contiguous float64 array of shape (rows, n).  One Philox
    is re-keyed to (base_seed, stream) with counter 0 and an empty buffer
    before each row, the state a fresh ``philox_stream`` starts in, so no
    generator is built per row.
    """
    _check_key(base_seed, first_stream)
    _check_key(base_seed, first_stream + max(len(out) - 1, 0))
    bits = np.random.Philox(key=np.array([base_seed, first_stream], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    for i, row in enumerate(out):
        state["state"]["key"] = np.array([base_seed, first_stream + i], dtype=np.uint64)
        bits.state = state
        gen.random(out=row)


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
