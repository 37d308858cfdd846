"""Stream-layout tests for the counter-based generators."""

import numpy as np
import pytest

from germ.rng import draw_signs, fill_uniforms, philox_stream


def test_one_sign_draw_equals_consecutive_draws():
    # the Monte Carlo engine draws the signs of a block of steps in one call
    # and relies on this to match the scalar loop's per-step draws
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
def test_fill_uniforms_matches_philox_stream(n):
    # n not a multiple of 4 leaves Philox's four-word buffer part used,
    # which the next row must not read
    for first in (0, 1, 4096, 2**64 - 3):
        out = np.full((3, n), -1.0)
        fill_uniforms(7, first, out)
        for i in range(3):
            assert np.array_equal(out[i], philox_stream(7, first + i).random(n)), (first, i)
    out = np.empty((1, n))
    fill_uniforms(2**64 - 1, 2**64 - 1, out)
    assert np.array_equal(out[0], philox_stream(2**64 - 1, 2**64 - 1).random(n))


def test_fill_uniforms_rejects_streams_past_64_bits():
    with pytest.raises(ValueError, match="64-bit"):
        fill_uniforms(0, 2**64 - 2, np.empty((3, 4)))
    with pytest.raises(ValueError, match="integer"):
        fill_uniforms(0.5, 0, np.empty((1, 4)))


def test_philox_stream_rejects_booleans_and_non_integers():
    for seed, stream in ((1.5, 0), (True, 0), (0, 1.0), (np.float64(2.0), 0), (0, np.bool_(True)), ("1", 0)):
        with pytest.raises(ValueError, match="must be an integer"):
            philox_stream(seed, stream)
    want = philox_stream(3, 9).random(4)
    for seed, stream in ((np.int64(3), np.uint64(9)), (np.uint8(3), np.int32(9))):
        assert np.array_equal(philox_stream(seed, stream).random(4), want)
