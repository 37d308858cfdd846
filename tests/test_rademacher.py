"""Tests for Rademacher estimators, bounds, and their exact enumeration."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import germ.problem
from germ.errors import ResourceLimitError
from germ.problem import DiscreteDistribution, LearningProblem, LossTable, Sample
from germ.rademacher import (
    _rbars,
    deviation_radius,
    estimator_deviation_exceedance,
    exact_rademacher,
    mcdiarmid_radius,
    rbar_massart,
    rbar_undershoot_rate,
)
from germ.rng import philox_stream
from germ.scenarios import builtin_scenarios
import scalar_reference as ref
from scalar_reference import draw_signs, rademacher_sup, rbar_from_signs


def make_problem(probs, rows, name="p"):
    return LearningProblem(name, DiscreteDistribution(tuple(probs)), LossTable(tuple(map(tuple, rows))))


def test_rademacher_sup_examples():
    const = LossTable(((0.5, 0.5),))
    assert rademacher_sup(const, Sample((0, 1)), (1, -1)) == pytest.approx(0.0)
    assert rademacher_sup(const, Sample((0, 1)), (1, 1)) == pytest.approx(0.5)
    two = LossTable(((0.0, 0.0), (1.0, 1.0)))
    assert rademacher_sup(two, Sample((0, 1, 0, 1)), (-1, -1, -1, -1)) == pytest.approx(0.0)


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
    # the single-draw kernel, one row per stream, against the scalar
    # formula on the replayed signs
    loss = LossTable(((0.1, 0.9), (0.8, 0.2)))
    sample = Sample((0, 1, 1, 0, 1))
    outcomes = np.array([sample.outcomes] * 20)
    origins = (5, np.arange(20), 0)
    a = _rbars(loss.as_array(), outcomes, origins, [5, 2], [0, 5])
    b = _rbars(loss.as_array(), outcomes, origins, [5, 2], [0, 5])
    assert a.shape == (20, 2)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)
    for r in range(20):
        replay = philox_stream(5, r)
        assert a[r, 0] == rbar_from_signs(loss, sample, draw_signs(replay, 5))
        assert a[r, 1] == rbar_from_signs(loss, sample.prefix(2), draw_signs(replay, 2))


def test_rbar_massart_examples():
    assert rbar_massart(1, 17) == 0.0
    assert rbar_massart(2, 2) == pytest.approx(math.sqrt(math.log(2.0)))
    assert rbar_massart(16, 8) == pytest.approx(math.sqrt(2.0 * math.log(16.0) / 8.0))
    assert rbar_massart(16, 8) == pytest.approx(0.832555, abs=5e-7)
    ks = np.arange(1, 200)
    assert rbar_massart(16, ks).tolist() == [ref.rbar_massart(16, int(k)) for k in ks]
    with pytest.raises(ValueError):
        rbar_massart(2, np.arange(0, 3))


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
    for zs in itertools.product(range(2), repeat=k):
        w = math.prod(problem.distribution.probs[z] for z in zs)
        inner = 0.0
        for signs in itertools.product((-1, 1), repeat=k):
            inner += rademacher_sup(problem.loss, Sample(zs), signs)
        total += w * inner / 2**k
    assert exact_rademacher(problem, k) == pytest.approx(total, abs=1e-13)


def test_exact_rademacher_budget_guard(monkeypatch):
    problem = make_problem((0.5, 0.5), [(0.0, 1.0)])
    # k = 390 is the first k whose C(k + 3, 3) signed count vectors pass 10^7
    with pytest.raises(ResourceLimitError):
        exact_rademacher(problem, 390)
    # k = 3 visits C(6, 3) = 20 count vectors: a budget of 19 refuses, 20 admits
    monkeypatch.setattr(germ.problem, "ENUMERATION_BUDGET", 19)
    with pytest.raises(ResourceLimitError):
        exact_rademacher(problem, 3)
    monkeypatch.setattr(germ.problem, "ENUMERATION_BUDGET", 20)
    assert exact_rademacher(problem, 3) == pytest.approx(0.0, abs=1e-15)


def reference_sign_sample_table(problem, k):
    """Every (sample, sign vector) pair: sample weights and the suprema table.

    Returns (m^k,) product weights and an (m^k, 2^k) array of
    sup_h (1/k) sum_i sigma_i loss(h, z_i), one column per sign vector.
    """
    m = problem.outcome_count
    probs = problem.distribution.probs
    loss_t = problem.loss.as_array().T
    bits = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    smat = (2 * bits - 1).astype(np.float64)
    weights = np.empty(m**k)
    sups = np.empty((m**k, 2**k))
    for i, zs in enumerate(itertools.product(range(m), repeat=k)):
        weights[i] = math.prod(probs[z] for z in zs)
        sups[i] = (smat @ loss_t[list(zs)]).max(axis=1) / k
    return weights, sups


REFERENCE_PROBLEMS = [(s.name, s.problem) for s in builtin_scenarios()] + [
    (
        "impossible-outcome",
        make_problem((0.6, 0.0, 0.4), [(0.2, 0.4, 0.9), (0.1, 0.6, 0.5), (0.55, 0.2, 0.3)]),
    )
]


@pytest.mark.parametrize("name, problem", REFERENCE_PROBLEMS, ids=[name for name, _ in REFERENCE_PROBLEMS])
def test_count_vector_sums_match_sign_sample_enumeration(name, problem):
    for k in range(1, 10 if problem.outcome_count <= 2 else 7):
        weights, sups = reference_sign_sample_table(problem, k)
        exact = float(weights @ sups.mean(axis=1))
        assert abs(exact_rademacher(problem, k) - exact) <= 1e-14, k
        for delta in (0.1, 0.25, 0.5):
            exceed = np.abs(sups - exact) > deviation_radius(k, delta)
            want = float(weights @ exceed.mean(axis=1))
            assert abs(estimator_deviation_exceedance(problem, k, delta) - want) <= 1e-14, (k, delta)
        under = np.maximum(0.0, sups + mcdiarmid_radius(k)) < exact
        assert abs(rbar_undershoot_rate(problem, k) - float(weights @ under.mean(axis=1))) <= 1e-14, k


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
    assert mcdiarmid_radius(ks).tolist() == [ref.mcdiarmid_radius(int(k)) for k in ks]
    assert [float(mcdiarmid_radius(int(k))) for k in ks[:50]] == [ref.mcdiarmid_radius(int(k)) for k in ks[:50]]
    block = ks[:6].reshape(3, 2)
    assert mcdiarmid_radius(block).tolist() == [[ref.mcdiarmid_radius(int(k)) for k in row] for row in block]
    with pytest.raises(ValueError):
        mcdiarmid_radius(np.arange(0, 3))
