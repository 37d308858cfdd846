"""Stream-layout tests for the counter-based generators."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germ.montecarlo import draw_outcomes
from germ.rng import philox_stream, read_signs, read_words
from germ.scenarios import load_scenario
from scalar_reference import draw_signs


def test_one_sign_draw_equals_consecutive_draws():
    # the reference draw_signs, which read_signs is pinned to, gives the
    # same signs in one draw of a + b as in a draw of a and then one of b
    for n, a, b in ((200, 1, 1), (200, 3, 4), (7, 90, 37), (1, 4095, 1)):
        bulk = philox_stream(11, 5)
        bulk.random(n)
        joined = draw_signs(bulk, a + b)
        split = philox_stream(11, 5)
        split.random(n)
        parts = np.concatenate([draw_signs(split, a), draw_signs(split, b)])
        assert np.array_equal(joined, parts), (n, a, b)
        assert joined.dtype == np.int64
        assert set(np.unique(joined)) <= {-1, 1}
        # both generators are left at the same point of the stream
        assert bulk.random() == split.random()


@pytest.mark.parametrize("n", [1, 3, 4, 5, 2000])
def test_read_words_matches_philox_stream(n):
    # read_words fills rows with the words of philox_stream; n not a
    # multiple of 4 leaves Philox's four-word buffer part used, which the
    # next row must not read
    for first in (0, 1, 4096, 2**64 - 3):
        out = read_words(7, np.arange(first, first + 3, dtype=np.uint64), [(0, n)])
        assert out.shape == (3, n) and out.dtype == np.uint64
        for i in range(3):
            assert np.array_equal(out[i], philox_stream(7, first + i).bit_generator.random_raw(n)), (first, i)
            # random() is (word >> 11) * 2**-53 of the same words
            assert np.array_equal((out[i] >> np.uint64(11)) * 2.0**-53, philox_stream(7, first + i).random(n))
    out = read_words(2**64 - 1, np.array([2**64 - 1], dtype=np.uint64), [(0, n)])
    assert np.array_equal(out[0], philox_stream(2**64 - 1, 2**64 - 1).bit_generator.random_raw(n))
    # two spans a row, the second from the middle of a block, in either order
    streams = np.array([5, 2**64 - 1], dtype=np.uint64)
    for spans in ([(0, n), (n + 6, 3)], [(4 * n + 2, 5), (1, n)]):
        out = read_words(9, streams, spans)
        for row, stream in zip(out, streams.tolist()):
            words = philox_stream(9, stream).bit_generator.random_raw(4 * n + 7)
            assert np.array_equal(row, np.concatenate([words[a : a + count] for a, count in spans])), spans


def _fresh_words(base_seed, streams, spans):
    """The words of ``spans`` of each stream, from a fresh generator per row."""
    out = []
    for stream in streams:
        words = philox_stream(base_seed, stream).bit_generator.random_raw(max(a + count for a, count in spans))
        out.append(np.concatenate([words[a : a + count] for a, count in spans]))
    return np.array(out, dtype=np.uint64)


# keys, spans that end inside a block and start at its middle, and a
# repeat of the first call, which must not see where the others left off
_INTERLEAVED = [
    (7, [0, 1], [(0, 5)]),
    (2**64 - 1, [2**64 - 1], [(3, 2), (25, 7)]),
    (9, [5, 6, 7], [(1, 1)]),
    (7, [1], [(5, 3)]),
    (0, [2**63], [(0, 4), (4, 1)]),
    (7, [0, 1], [(0, 5)]),
]


def test_interleaved_reads_match_fresh_generators():
    # every call re-keys the process's one Philox in full
    for base_seed, streams, spans in _INTERLEAVED:
        out = read_words(base_seed, np.array(streams, dtype=np.uint64), spans)
        assert np.array_equal(out, _fresh_words(base_seed, streams, spans)), (base_seed, streams, spans)


def test_reads_from_several_threads_match_fresh_generators():
    # threads share the one Philox; a read that another thread re-keys
    # midway returns words of the wrong stream
    want = [_fresh_words(*call) for call in _INTERLEAVED]
    bad = []
    done = []

    def reads():
        for _ in range(30):
            for (base_seed, streams, spans), words in zip(_INTERLEAVED, want):
                if not np.array_equal(read_words(base_seed, np.array(streams, dtype=np.uint64), spans), words):
                    bad.append((base_seed, streams, spans))
        done.append(True)

    threads = [threading.Thread(target=reads) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == 4
    assert bad == []


def test_read_words_rejects_streams_past_64_bits():
    # the outcome draw and the word read refuse keys past 64 bits rather
    # than wrap them to stream 0
    problem = load_scenario("symmetric-coin").problem
    with pytest.raises(ValueError, match="64-bit"):
        draw_outcomes(problem, 0, 2**64 - 2, 2**64 + 1, 4)
    with pytest.raises(ValueError, match="64-bit"):
        read_words(2**64, np.array([0], dtype=np.uint64), [(0, 4)])
    with pytest.raises(ValueError, match="integer"):
        draw_outcomes(problem, 0.5, 0, 1, 4)
    with pytest.raises(ValueError, match="integer"):
        read_words(0.5, np.array([0], dtype=np.uint64), [(0, 4)])


def test_philox_stream_rejects_booleans_and_non_integers():
    for seed, stream in ((1.5, 0), (True, 0), (0, 1.0), (np.float64(2.0), 0), (0, np.bool_(True)), ("1", 0)):
        with pytest.raises(ValueError, match="must be an integer"):
            philox_stream(seed, stream)
    want = philox_stream(3, 9).random(4)
    for seed, stream in ((np.int64(3), np.uint64(9)), (np.uint8(3), np.int32(9))):
        assert np.array_equal(philox_stream(seed, stream).random(4), want)


def _signs_of_words(words):
    """Bit 31 of each 32-bit half, low half first, as a sign."""
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=1).ravel()
    return np.where((halves >> np.uint64(31)) & np.uint64(1), 1, -1)


def test_sign_stream_layout():
    # the layout read_signs relies on, on the numpy this runs on
    words = philox_stream(13, 2).bit_generator.random_raw(41)
    assert np.array_equal(draw_signs(philox_stream(13, 2), 82), _signs_of_words(words))
    for w in range(1, 40):
        gen = philox_stream(13, 2)
        gen.bit_generator.random_raw(w)
        state = gen.bit_generator.state
        counter = int(state["state"]["counter"][0])
        # word block j is made with counter j + 1, and the next word is
        # 4 * (counter - 1) + buffer_pos
        assert counter == (w - 1) // 4 + 1
        assert 4 * (counter - 1) + state["buffer_pos"] == w
        assert np.array_equal(state["buffer"], words[4 * (counter - 1) : 4 * counter])
        # a pending half is the next sign
        draw_signs(gen, 1)
        assert gen.bit_generator.state["has_uint32"] == 1
        assert np.array_equal(draw_signs(gen, 3), _signs_of_words(words[w : w + 2])[1:])


def _word(base_seed, stream, j):
    """Word j of the stream of (base_seed, stream), made from its block alone."""
    bits = np.random.Philox(key=np.array([base_seed, stream], dtype=np.uint64))
    block = j // 4 % 2**256
    state = bits.state
    state["state"]["counter"] = np.array([(block >> s) & (2**64 - 1) for s in (0, 64, 128, 192)], dtype=np.uint64)
    bits.state = state
    return int(bits.random_raw(j % 4 + 1)[-1])


def _philox_state(base_seed, stream, counter, buffer_pos, pending):
    """A Philox state as drawing leaves it: its buffer is the block made with
    ``counter``, it reads word 4 * (counter - 1) + buffer_pos next, and with
    ``pending`` the high half of the word before is its pending half."""
    first = 4 * (counter - 1)
    nxt = first + buffer_pos
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([(counter >> s) & (2**64 - 1) for s in (0, 64, 128, 192)], dtype=np.uint64),
            "key": np.array([base_seed, stream], dtype=np.uint64),
        },
        "buffer": np.array([_word(base_seed, stream, first + i) for i in range(4)], dtype=np.uint64),
        "buffer_pos": buffer_pos,
        "has_uint32": pending,
        "uinteger": _word(base_seed, stream, nxt - 1) >> 32 if pending else 0,
    }


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    # 2**64 - 1 leaves the low limb all ones, so reads past it carry into the next
    counter=st.sampled_from([1, 2, 5, 2**64 - 1, 2**64, 2**128 - 1]) | st.integers(1, 2**70),
    buffer_pos=st.integers(0, 4),
    pending=st.integers(0, 1),
    spans=st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)), min_size=1, max_size=6),
)
# the pending half of the stream's last word, and reads across a limb carry
@example(key=(0, 0), counter=1, buffer_pos=0, pending=1, spans=[(0, 1), (2, 9)])
@example(key=(3, 2**64 - 1), counter=2**64 - 1, buffer_pos=3, pending=1, spans=[(4, 40), (1, 3)])
def test_read_signs_matches_sequential_draws(key, counter, buffer_pos, pending, spans):
    base_seed, stream = key
    # two rows: the key's stream and the next one, from the same position
    streams = [stream, (stream + 1) % 2**64]
    want = []
    for row in streams:
        start = _philox_state(base_seed, row, counter, buffer_pos, pending)
        gen = np.random.Generator(np.random.Philox())
        signs = []
        for offset, count in spans:
            gen.bit_generator.state = start
            if offset:
                draw_signs(gen, offset)
            signs.extend(draw_signs(gen, count).tolist())
        want.append(signs)
    # the next half that state reads: its pending one, or the low half of
    # word 4 * (counter - 1) + buffer_pos; halves count modulo the stream's
    # 2**256 blocks of 8 halves
    half = (2 * (4 * (counter - 1) + buffer_pos) - pending) % 2**259
    signs = read_signs((base_seed, np.array(streams, dtype=np.uint64), half), spans)
    assert signs.dtype == np.int8
    assert signs.tolist() == want


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 200])
def test_signs_after_an_n_word_sample_start_at_half_2n(n):
    # the origin a caller gives for the signs that follow a sample of n
    gen = philox_stream(6, 8)
    gen.random(n)
    want = draw_signs(gen, 9).tolist()
    assert read_signs((6, np.array([8], dtype=np.uint64), 2 * n), [(0, 9)]).tolist() == [want]
