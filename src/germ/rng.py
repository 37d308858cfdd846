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

Signs (``draw_signs``) come from the same stream, and ``seek_signs`` moves
a generator to where a given number of signs would leave it without
drawing them.  The layout it relies on, pinned by a test: the stream is a
sequence of 64-bit words, word j being word j % 4 of the block that
Philox makes with counter j // 4 + 1; a state reads word
4 * (counter - 1) + buffer_pos next, after its pending 32-bit half if it
has one (``has_uint32``).  Each sign is bit 31 of one 32-bit half, low half
first.

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
    """Set ``out[i]`` to the first n words of ``philox_stream(base_seed,
    first_stream + i)``: uniform 64-bit integers, the words its ``random(n)``
    turns into uniform floats.

    ``out`` is a uint64 array of shape (rows, n).  One Philox is re-keyed to
    (base_seed, stream) with counter 0 and an empty buffer before each row,
    the state a fresh ``philox_stream`` starts in, so no generator is built
    per row.
    """
    _check_key(base_seed, first_stream)
    _check_key(base_seed, first_stream + max(len(out) - 1, 0))
    bits = np.random.Philox(key=np.array([base_seed, first_stream], dtype=np.uint64))
    state = bits.state
    for i, row in enumerate(out):
        state["state"]["key"] = np.array([base_seed, first_stream + i], dtype=np.uint64)
        bits.state = state
        row[:] = bits.random_raw(len(row))


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


def seek_signs(rng: np.random.Generator, start: dict, offset: int) -> None:
    """Set ``rng`` to the state in which ``draw_signs`` calls totalling
    ``offset`` signs would leave it, from ``start``, a Philox
    ``bit_generator.state`` record; nothing is drawn from the skipped words.

    The state, buffer and pending half included, equals the sequential
    one: the block holding the last word read is made again by
    ``random_raw`` and becomes the buffer.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.Philox):
        raise ValueError(f"seeking needs a Philox generator, got {type(bits).__name__}")
    if offset < 0:
        raise ValueError(f"cannot seek to a negative offset, got {offset}")
    pending = start["has_uint32"]
    if offset <= pending:
        bits.state = {**start, "has_uint32": pending - offset}
        return
    halves = offset - pending
    key = start["state"]["key"]
    counter = sum(limb << shift for limb, shift in zip(start["state"]["counter"].tolist(), (0, 64, 128, 192)))
    # the word that holds the last sign, and its block and place in the block
    block, pos = divmod(4 * (counter - 1) + start["buffer_pos"] + (halves - 1) // 2, 4)
    # buffer_pos 4 makes the next read generate the block with counter block + 1
    bits.state = {**start, "state": {"counter": _limbs(block), "key": key}, "buffer_pos": 4}
    buffer = bits.random_raw(4)
    # an odd count of halves leaves the last word's high half pending; either
    # way that half is the last one read, as a sequential draw leaves it
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": _limbs(block + 1), "key": key},
        "buffer": buffer,
        "buffer_pos": pos + 1,
        "has_uint32": halves % 2,
        "uinteger": int(buffer[pos]) >> 32,
    }


def _limbs(counter: int) -> np.ndarray:
    """Philox's four 64-bit counter limbs of ``counter`` mod 2**256, low limb first."""
    counter %= 2**256
    return np.array([(counter >> shift) & _UINT64_MAX for shift in (0, 64, 128, 192)], dtype=np.uint64)
