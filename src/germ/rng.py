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

Signs are defined by ``draw_signs``, one per 32-bit half of the stream.
Being counter-based, Philox makes any word of a stream from its key and
position alone, so ``read_signs`` reads the signs at given positions of
many streams with one re-keyed Philox and no generator per stream.  A
row's signs are addressed by an origin (base_seed, stream, half), the
index of the 32-bit half they count from.  The layout it relies on,
pinned by a test: the stream is a sequence of 64-bit words, word j being
word j % 4 of the block that Philox makes with counter j // 4 + 1; a
state reads word 4 * (counter - 1) + buffer_pos next, after its pending
32-bit half if it has one (``has_uint32``).  Half 2j is the low half of
word j and half 2j + 1 its high half, and each sign is bit 31 of one
half.  So the signs that a fresh ``philox_stream(base_seed, stream)``
draws start at origin (base_seed, stream, 0), and after a sample of n
words at (base_seed, stream, 2 n); callers address signs by origin alone.

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
    drawn, not on how they are split into calls, and ``read_signs`` reads
    the same signs by their position in the stream.
    """
    if k < 1:
        raise ValueError(f"need at least one sign, got k={k}")
    return 2 * rng.integers(0, 2, size=k) - 1


def read_signs(origins, spans) -> np.ndarray:
    """Signs at given positions of many streams, (rows, total count) int8.

    ``origins`` is (base_seed, streams, half): row i's origin is
    (base_seed, streams[i], half), ``streams`` being an integer array.
    ``spans`` holds the (offset, count) pairs every row reads: a span's
    signs are those that ``draw_signs(gen, count)`` returns when the next
    half of ``gen``, a generator of the row's stream, is half + offset.  A
    row's spans follow each other in the output.

    One Philox is set to each row's key and to the block of a span's first
    word, as ``fill_uniforms`` re-keys it, and ``random_raw`` copies only
    the span's words into one (rows, words) array; nothing else of the
    stream is made, and spans that continue each other are read as one.
    The sign bits of the whole array are then extracted at once.
    """
    base_seed, streams, half = origins
    reads = []
    # Python ints: half + offset can pass 64 bits
    for offset, count in spans:
        offset, count = int(offset), int(count)
        if reads and sum(reads[-1]) == offset:
            reads[-1][1] += count
        else:
            reads.append([offset, count])
    # count halves from either half of a word lie in count // 2 + 1 words
    widths = [count // 2 + 1 for _, count in reads]
    starts = [(_limbs(block), pos) for block, pos in (_word_block(half + offset) for offset, _ in reads)]
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    # lists set a Philox state faster than arrays do; buffer_pos 4 makes the
    # next read generate the block with the state's counter + 1
    state = {"bit_generator": "Philox", "state": {}, "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    chunks = []
    for stream in streams.tolist():
        state["state"] = {"key": [base_seed, stream]}
        for (counter, pos), width in zip(starts, widths):
            state["state"]["counter"] = counter
            bits.state = state
            chunks.append(bits.random_raw(pos + width)[pos:])
    words = np.concatenate(chunks).reshape(len(streams), sum(widths))
    # bit 31 of each half, low half first
    halves = np.empty((len(streams), 2 * words.shape[1]), dtype=np.int8)
    halves[:, 0::2] = (words >> np.uint64(31)) & np.uint64(1)
    halves[:, 1::2] = words >> np.uint64(63)
    parts = []
    first = 0
    for (offset, count), width in zip(reads, widths):
        skip = (half + offset) % 2
        parts.append(halves[:, first + skip : first + skip + count])
        first += 2 * width
    signs = np.concatenate(parts, axis=1)
    signs *= 2
    signs -= 1
    return signs


def _word_block(half: int) -> tuple[int, int]:
    """(block, place): the word holding ``half`` is word ``place`` of the
    block that Philox makes with counter block + 1."""
    return divmod(half // 2 % 2**258, 4)


def _limbs(counter: int) -> list[int]:
    """Philox's four 64-bit counter limbs of ``counter`` mod 2**256, low limb first."""
    return [(counter >> shift) & _UINT64_MAX for shift in (0, 64, 128, 192)]
