"""Stream-layout tests for the counter-based generators."""

import numpy as np

from germ.rng import draw_signs, philox_stream


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
