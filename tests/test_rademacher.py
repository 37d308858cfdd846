"""Tests for Rademacher estimators, bounds, and their exact enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from germ.errors import ResourceLimitError
from germ.problem import DiscreteDistribution, LearningProblem, LossTable, Sample
from germ.rademacher import (
    deviation_radius,
    estimator_deviation_exceedance,
    exact_rademacher,
    mcdiarmid_radius,
    rademacher_sup,
    rbar_empirical,
    rbar_from_signs,
    rbar_massart,
    rbar_undershoot_rate,
    sign_matrix,
)
from germ.rng import philox_stream


def make_problem(probs, rows, name="p"):
    return LearningProblem(name, DiscreteDistribution(tuple(probs)), LossTable(tuple(map(tuple, rows))))


def test_rademacher_sup_examples():
    const = LossTable(((0.5, 0.5),))
    assert rademacher_sup(const, Sample((0, 1)), (1, -1)) == pytest.approx(0.0)
    assert rademacher_sup(const, Sample((0, 1)), (1, 1)) == pytest.approx(0.5)
    two = LossTable(((0.0, 0.0), (1.0, 1.0)))
    assert rademacher_sup(two, Sample((0, 1, 0, 1)), (-1, -1, -1, -1)) == pytest.approx(0.0)


def test_rademacher_sup_validation():
    loss = LossTable(((0.5, 0.5),))
    with pytest.raises(ValueError):
        rademacher_sup(loss, Sample((0,)), (1, -1))
    with pytest.raises(ValueError):
        rademacher_sup(loss, Sample(()), ())
    with pytest.raises(ValueError):
        rademacher_sup(loss, Sample((0, 1)), (1, 2))


def test_rademacher_sup_matches_direct_dot_product():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        h_count = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        rows = rng.random((h_count, m))
        zs = rng.integers(0, m, size=k)
        signs = 2 * rng.integers(0, 2, size=k) - 1
        got = rademacher_sup(LossTable(tuple(map(tuple, rows))), Sample(tuple(zs)), signs)
        want = max(float(signs @ rows[h][zs]) for h in range(h_count)) / k
        assert got == pytest.approx(want, abs=1e-12)


def test_rbar_kernel_examples():
    zero = LossTable(((0.0, 0.0),))
    assert rbar_from_signs(zero, Sample((0, 1)), (1, -1)) == pytest.approx(math.sqrt(math.log(4.0)))
    half = LossTable(((0.5, 0.5),))
    forced = rbar_from_signs(half, Sample((0, 1)), (1, 1))
    assert forced == pytest.approx(0.5 + math.sqrt(math.log(4.0)))
    assert forced == pytest.approx(1.677410, abs=5e-7)


def test_rbar_empirical_nonnegative_and_deterministic():
    loss = LossTable(((0.1, 0.9), (0.8, 0.2)))
    sample = Sample((0, 1, 1, 0, 1))
    a = rbar_empirical(loss, sample, philox_stream(5, 0))
    b = rbar_empirical(loss, sample, philox_stream(5, 0))
    assert a == b
    assert a >= 0.0
    for r in range(20):
        assert rbar_empirical(loss, sample, philox_stream(5, r)) >= 0.0


def test_rbar_massart_examples():
    assert rbar_massart(1, 17) == 0.0
    assert rbar_massart(2, 2) == pytest.approx(math.sqrt(math.log(2.0)))
    assert rbar_massart(16, 8) == pytest.approx(math.sqrt(2.0 * math.log(16.0) / 8.0))
    assert rbar_massart(16, 8) == pytest.approx(0.832555, abs=5e-7)


def test_deviation_radius_examples():
    assert deviation_radius(100, 0.05) == pytest.approx(math.sqrt(2.0 * math.log(40.0) / 100.0))
    assert deviation_radius(100, 0.05) == pytest.approx(0.271620, abs=5e-7)
    assert deviation_radius(2, 0.5) == pytest.approx(math.sqrt(math.log(4.0)))
    radii = [deviation_radius(n, 0.1) for n in range(1, 30)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    with pytest.raises(ValueError):
        deviation_radius(10, 0.0)
    assert deviation_radius(10, 1.0) == math.sqrt(2.0 * math.log(2.0) / 10)
    with pytest.raises(ValueError):
        deviation_radius(0, 0.5)


def test_sign_matrix_covers_all_vectors():
    mat = sign_matrix(3)
    assert mat.shape == (8, 3)
    assert {tuple(row) for row in mat} == {tuple(v) for v in np.array(np.meshgrid(*[[-1, 1]] * 3)).T.reshape(-1, 3)}


def test_exact_rademacher_examples():
    single = make_problem((0.5, 0.5), [(0.5, 0.5)])
    assert exact_rademacher(single, 1) == pytest.approx(0.0, abs=1e-15)
    c = 0.8
    two = make_problem((0.5, 0.5), [(0.0, 0.0), (c, c)])
    assert exact_rademacher(two, 1) == pytest.approx(c / 2.0, abs=1e-15)
    zeros = make_problem((0.3, 0.7), [(0.0, 0.0), (0.0, 0.0)])
    assert exact_rademacher(zeros, 4) == pytest.approx(0.0, abs=1e-15)


def test_exact_rademacher_brute_force_cross_check():
    # independent recomputation: average rademacher_sup over explicit loops
    problem = make_problem((0.6, 0.4), [(0.2, 0.9), (0.7, 0.1)])
    k = 3
    total = 0.0
    import itertools

    for zs in itertools.product(range(2), repeat=k):
        w = math.prod(problem.distribution.probs[z] for z in zs)
        inner = 0.0
        for signs in itertools.product((-1, 1), repeat=k):
            inner += rademacher_sup(problem.loss, Sample(zs), signs)
        total += w * inner / 2**k
    assert exact_rademacher(problem, k) == pytest.approx(total, abs=1e-13)


def test_exact_rademacher_budget_guard():
    problem = make_problem((0.5, 0.5), [(0.0, 1.0)])
    with pytest.raises(ResourceLimitError):
        exact_rademacher(problem, 20)
    # tight custom budget triggers too
    with pytest.raises(ResourceLimitError):
        exact_rademacher(problem, 3, budget=63)


def test_massart_dominates_exact_rademacher():
    rng = np.random.default_rng(23)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        h_count = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        raw = rng.random(m)
        problem = make_problem(tuple(raw / raw.sum()), rng.random((h_count, m)))
        assert rbar_massart(h_count, k) >= exact_rademacher(problem, k) - 1e-12


def test_estimator_deviation_exceedance_within_level():
    # exact coverage of the concentration radius on small problems
    problems = [
        make_problem((0.5, 0.5), [(0.0, 1.0), (1.0, 0.0)]),
        make_problem((0.5, 0.3, 0.2), [(0.2, 0.4, 0.9), (0.1, 0.6, 0.5), (0.55, 0.2, 0.3)]),
    ]
    for problem in problems:
        for k in (1, 2, 4, 6):
            for delta in (0.1, 0.25, 0.5):
                assert estimator_deviation_exceedance(problem, k, delta) <= delta + 1e-12


def test_rbar_undershoot_rate_within_level():
    problems = [
        make_problem((0.5, 0.5), [(0.0, 1.0), (1.0, 0.0)]),
        make_problem((0.25, 0.75), [(0.9, 0.1), (0.3, 0.8), (0.5, 0.5)]),
    ]
    for problem in problems:
        for k in (1, 2, 3, 5):
            assert rbar_undershoot_rate(problem, k) <= 1.0 / k + 1e-12


def test_mcdiarmid_radius_is_confidence_one_over_k():
    for k in (1, 2, 7, 40):
        assert mcdiarmid_radius(k) == pytest.approx(deviation_radius(k, 1.0 / k) if k > 1 else math.sqrt(2.0 * math.log(2.0)))


def test_mcdiarmid_radius_of_an_array_rounds_as_scalar_calls():
    ks = np.arange(1, 5001)
    assert mcdiarmid_radius(ks).tolist() == [mcdiarmid_radius(int(k)) for k in ks]
    block = ks[:6].reshape(3, 2)
    assert mcdiarmid_radius(block).tolist() == [[mcdiarmid_radius(int(k)) for k in row] for row in block]
    with pytest.raises(ValueError):
        mcdiarmid_radius(np.arange(0, 3))
