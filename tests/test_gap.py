"""Tests for the two gap sequences and their spec types."""

from __future__ import annotations

import math

import numpy as np
import pytest

from germ.algorithm import _bernstein_gaps
from germ.gap import (
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
    UserConstant,
    bernstein_delta_from_sq,
    delta_uniform,
)
import scalar_reference as ref
from scalar_reference import delta_bernstein


def test_delta_uniform_examples():
    assert delta_uniform(1, 0.0) == pytest.approx(math.sqrt(2.0 * math.log(2.0)) + 2.0)
    assert delta_uniform(1, 0.0) == pytest.approx(3.177410, abs=5e-7)
    assert delta_uniform(8, 0.1) == pytest.approx(0.4 + math.sqrt(2.0 * math.log(16.0) / 8.0) + 0.25)
    assert delta_uniform(2, 0.0) == pytest.approx(math.sqrt(math.log(4.0)) + 1.0)


def test_delta_uniform_monotone_in_rbar():
    for k in (1, 3, 10, 100):
        values = [delta_uniform(k, r) for r in (0.0, 0.05, 0.1, 0.3, 1.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_delta_uniform_vanishes_only_with_rbar():
    # with rbar fixed at 0 the gap decays toward 0; with rbar fixed > 0 it cannot
    with_zero = [delta_uniform(k, 0.0) for k in (10, 100, 10_000, 1_000_000)]
    assert all(a > b for a, b in zip(with_zero, with_zero[1:]))
    assert with_zero[-1] < 0.02
    with_fixed = [delta_uniform(k, 0.25) for k in (10, 100, 10_000, 1_000_000)]
    assert all(v > 1.0 for v in with_fixed)


def test_delta_uniform_validation():
    with pytest.raises(ValueError):
        delta_uniform(0, 0.0)
    with pytest.raises(ValueError):
        delta_uniform(3, -0.1)


def sq_sum(a, b):
    return math.fsum((x - y) ** 2 for x, y in zip(a, b))


def test_delta_bernstein_examples():
    # identical sequences (0.3, 0.7), then (1, 0, 0.5) against (0, 1, 0.5)
    same = bernstein_delta_from_sq(2, sq_sum((0.3, 0.7), (0.3, 0.7)), 2)
    assert same == pytest.approx(5.0 * math.log(16.0) + 1.0)
    diffs = bernstein_delta_from_sq(3, sq_sum((1.0, 0.0, 0.5), (0.0, 1.0, 0.5)), 2)
    expected = math.sqrt(2.0 * 2.0 * math.log(24.0)) / 2.0 + 5.0 * math.log(24.0) / 2.0 + 2.0 / 3.0
    assert diffs == pytest.approx(expected)
    assert _bernstein_gaps(np.array([1]), np.array([0.25]), 5)[0] == math.inf


def test_delta_bernstein_floor_and_identical_sequences():
    for k in (2, 3, 10, 50):
        seq = tuple(((i * 37) % 11) / 10.0 for i in range(k))
        value = bernstein_delta_from_sq(k, sq_sum(seq, seq), 3)
        assert value == pytest.approx(2.0 / k + 5.0 * math.log(2.0 * k * 9.0) / (k - 1))
        assert value >= 2.0 / k
        other = tuple(((i * 13) % 7) / 10.0 for i in range(k))
        assert bernstein_delta_from_sq(k, sq_sum(seq, other), 3) >= 2.0 / k


def test_gaps_are_bit_deterministic():
    for _ in range(3):
        assert delta_uniform(17, 0.123) == delta_uniform(17, 0.123)
        assert bernstein_delta_from_sq(9, 0.5625, 4) == bernstein_delta_from_sq(9, 0.5625, 4)


def test_bernstein_kernel_matches_sequence_form():
    seq_a = (0.1, 0.9, 0.4, 0.4, 0.8)
    seq_b = (0.3, 0.2, 0.4, 0.1, 0.8)
    sq = sum((a - b) ** 2 for a, b in zip(seq_a, seq_b))
    assert delta_bernstein(5, seq_a, seq_b, 3) == pytest.approx(bernstein_delta_from_sq(5, sq, 3))
    # the kernel starts at k = 2; the stepper pins step 1 to +inf
    assert _bernstein_gaps(np.array([1, 2]), np.array([0.7, 0.7]), 3)[0] == math.inf
    assert _bernstein_gaps(np.array([1, 2]), np.array([0.7, 0.7]), 3)[1] == bernstein_delta_from_sq(2, 0.7, 3)


def test_spec_type_validation():
    GapSpec(UniformConvergence(MassartDeterministic()), 2)
    GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 1)
    GapSpec(EmpiricalBernstein(), 4)
    with pytest.raises(ValueError):
        GapSpec(EmpiricalBernstein(), 0)
    with pytest.raises(ValueError):
        GapSpec("bernstein", 2)
    with pytest.raises(ValueError):
        UniformConvergence("massart")
    with pytest.raises(ValueError):
        UserConstant(())
    with pytest.raises(ValueError):
        UserConstant((0.1, -0.2))
    with pytest.raises(ValueError):
        FixedDelta(-0.5)
    assert UserConstant((0.3, 0.1)).values == (0.3, 0.1)
    assert FixedDelta().value == 0.0


def test_per_step_arrays_round_as_scalar_calls():
    # each kernel entry, and a scalar argument, rounds as the plain-float formula
    ks = np.arange(1, 5001)
    rbar = np.linspace(0.0, 0.7, ks.size)
    want = [ref.delta_uniform(int(k), float(r)) for k, r in zip(ks, rbar)]
    assert delta_uniform(ks, rbar).tolist() == want
    assert [float(delta_uniform(int(k), float(r))) for k, r in zip(ks[:50], rbar[:50])] == want[:50]
    steps = ks[1:]
    for class_size in (1, 2, 4):
        sq = np.linspace(0.0, 900.0, steps.size)
        want = [ref.bernstein_delta_from_sq(int(k), float(q), class_size) for k, q in zip(steps, sq)]
        assert bernstein_delta_from_sq(steps, sq, class_size).tolist() == want
        assert float(bernstein_delta_from_sq(int(steps[7]), float(sq[7]), class_size)) == want[7]
        # the gap with no variance term is a lower bound, as the lockstep engine uses it
        floor = bernstein_delta_from_sq(steps, 0.0, class_size)
        assert floor.tolist() == [ref.bernstein_delta_from_sq(int(k), 0.0, class_size) for k in steps]
        assert np.all(floor <= bernstein_delta_from_sq(steps, sq, class_size))
    # a two-dimensional block of steps broadcast against per-replication sums
    block = np.arange(40, 43)[:, np.newaxis]
    sq = np.array([[0.0, 1.5], [2.0, 0.25], [7.0, 3.0]])
    want = [[ref.bernstein_delta_from_sq(int(k), float(q), 3) for q in row] for k, row in zip(block[:, 0], sq)]
    assert bernstein_delta_from_sq(block, sq, 3).tolist() == want


def test_per_step_array_validation():
    with pytest.raises(ValueError, match="k = 2"):
        bernstein_delta_from_sq(np.arange(1, 4), 0.0, 2)
    with pytest.raises(ValueError, match="k = 2"):
        bernstein_delta_from_sq(1, 0.0, 2)
    with pytest.raises(ValueError):
        bernstein_delta_from_sq(np.arange(2, 4), 0.0, 0)
    with pytest.raises(ValueError, match="step index"):
        delta_uniform(np.arange(0, 3), 0.1)
    with pytest.raises(ValueError, match="rbar"):
        delta_uniform(np.arange(1, 4), np.array([0.1, -0.1, 0.2]))
