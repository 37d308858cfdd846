"""Counter-based random streams for reproducible parallel experiments.

Every source of randomness in this package is the stream of one
(base_seed, r) key: replication ``r`` of an experiment seeded with
``base_seed`` always draws the output of ``philox_stream(base_seed, r)``,
no matter which worker runs it or in what order.  Philox is a 64-bit
counter-based generator keyed by the (seed, stream) pair, with
platform-independent output, so recorded fixtures stay stable across
machines and across degrees of parallelism.  ``read_words`` reads the
words at given positions of many streams without building a generator
per stream: it re-keys the process's one Philox, made on first use, per
row, and a test pins its rows to ``philox_stream``'s.

Signs come from the same streams.  Being counter-based, Philox makes any
word of a stream from its key and position alone, so ``read_signs``
reads the signs at given positions of many streams from the words that
``read_words`` reads there.  A row's signs are addressed by an
origin (base_seed, stream, half), the index of the 32-bit half they
count from.  The layout it relies on, pinned by a test: the stream is a
sequence of 64-bit words, word j being word j % 4 of the block that
Philox makes with counter j // 4 + 1; a state reads word
4 * (counter - 1) + buffer_pos next, after its pending 32-bit half if
it has one (``has_uint32``).  Half 2j is the low half of word j and half 2j + 1 its
high half, and each sign is bit 31 of one half, +1 when set: the sign
that a generator's ``2 * integers(0, 2) - 1`` makes of that half.  So
the signs that a fresh ``philox_stream(base_seed, stream)`` draws start
at origin (base_seed, stream, 0), and after a sample of n words at
(base_seed, stream, 2 n); callers address signs by origin alone.

This choice is frozen: changing the generator family or the key layout
invalidates every stored seed and fixture.
"""

from __future__ import annotations

import numbers
import threading

import numpy as np

_UINT64_MAX = 2**64 - 1

# the one Philox that ``read_words`` re-keys, made on its first call, since
# importing numpy.random takes longer than importing germ; the lock keeps
# each call's reads whole when threads share it
_PHILOX = None
_PHILOX_LOCK = threading.Lock()


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


def read_words(base_seed: int, streams: np.ndarray, spans) -> np.ndarray:
    """Words at given positions of many streams, (rows, total count) uint64.

    Row i reads the stream of (base_seed, streams[i]) for an integer array
    ``streams``: for each (first, count) pair of ``spans`` in turn, the
    ``count`` words from word ``first`` on, counted modulo the stream's
    2**256 blocks of 4.  The process's one Philox is set to each row's key
    and to the block of each span's first word, key, counter and buffer in
    full, so no read depends on the one before; only the span's words are
    made.  The first n words are those that ``random(n)`` of a fresh
    ``philox_stream`` turns into floats.
    """
    global _PHILOX
    _check_key(base_seed, 0)
    ends = np.cumsum([0] + [int(count) for _, count in spans]).tolist()
    reads = []
    for (first, _), a, b in zip(spans, ends, ends[1:]):
        block, pos = divmod(int(first) % 2**258, 4)
        reads.append((_limbs(block), pos, a, b))
    words = np.empty((len(streams), ends[-1]), dtype=np.uint64)
    # lists set a Philox state faster than arrays do; buffer_pos 4 makes the
    # next read generate the block with the state's counter + 1
    state = {"bit_generator": "Philox", "state": {}, "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    with _PHILOX_LOCK:
        if _PHILOX is None:
            _PHILOX = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        for row, stream in zip(words, streams.tolist()):
            state["state"] = {"key": [base_seed, stream]}
            for counter, pos, a, b in reads:
                state["state"]["counter"] = counter
                _PHILOX.state = state
                row[a:b] = _PHILOX.random_raw(pos + b - a)[pos:]
    return words


def read_signs(origins, spans) -> np.ndarray:
    """Signs at given positions of many streams, (rows, total count) int8.

    ``origins`` is (base_seed, streams, half): row i's origin is
    (base_seed, streams[i], half), ``streams`` being an integer array.
    ``spans`` holds the (offset, count) pairs every row reads: a span's
    signs are the ``count`` signs from half half + offset of the row's
    stream on.  A row's spans follow each other in the output.

    The words that hold the spans come from ``read_words``, which makes
    only those words of each stream, and spans that continue each other
    are read as one.  The sign bits of the whole array are then extracted
    at once.
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
    words = read_words(base_seed, streams, [((half + offset) // 2, width) for (offset, _), width in zip(reads, widths)])
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


def _limbs(counter: int) -> list[int]:
    """Philox's four 64-bit counter limbs of ``counter`` mod 2**256, low limb first."""
    return [(counter >> shift) & _UINT64_MAX for shift in (0, 64, 128, 192)]
