import math

import numpy as np
import pytest

from germ.analysis import (
    BernsteinCertificate,
    bernstein_certificate,
    excess_risk_bound,
    minimizer_bound,
    pairwise_rhs_from_sq,
)
from germ.gap import bernstein_delta_from_sq
from germ.problem import DiscreteDistribution, LearningProblem, LossTable
from germ.rng import philox_stream
import scalar_reference as ref


def make_problem(rows, probs=None):
    rows = tuple(tuple(r) for r in rows)
    m = len(rows[0])
    probs = tuple(probs) if probs is not None else (1.0 / m,) * m
    return LearningProblem(
        name="case",
        distribution=DiscreteDistribution(probs=probs),
        loss=LossTable(rows=rows),
    )


def test_excess_risk_bound_examples():
    assert excess_risk_bound(2, 0.0) == pytest.approx(
        3.0 * math.sqrt(math.log(4.0)) + 1.0
    )
    assert excess_risk_bound(2, 0.0) == pytest.approx(4.532230, abs=5e-7)
    assert excess_risk_bound(200, 0.0) == pytest.approx(0.744324, abs=5e-7)
    assert excess_risk_bound(50, 0.05) == pytest.approx(1.927580, abs=5e-7)


def test_excess_risk_bound_linear_in_rbar():
    base = excess_risk_bound(100, 0.0)
    for rbar in (0.01, 0.2, 1.5):
        assert excess_risk_bound(100, rbar) == pytest.approx(base + 12.0 * rbar)


def test_excess_risk_bound_strictly_decreasing_in_n():
    values = [excess_risk_bound(n, 0.0) for n in range(1, 500)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_excess_risk_bound_validation():
    with pytest.raises(ValueError):
        excess_risk_bound(0, 0.0)
    with pytest.raises(ValueError):
        excess_risk_bound(10, -0.01)


def test_bernstein_certificate_forced_examples():
    cert = bernstein_certificate(make_problem([(0, 0), (1, 1)]), 0.0)
    assert cert.minimal_B == pytest.approx(1.0)
    assert cert.hstar_index == 0
    assert cert.beta == 0.0

    cert = bernstein_certificate(make_problem([(0, 0), (1, 0)]), 0.0)
    assert cert.minimal_B == pytest.approx(0.5)

    cert = bernstein_certificate(make_problem([(0, 0), (1, 1)]), 1.0)
    assert cert.minimal_B == pytest.approx(1.0)


def test_bernstein_zero_mean_competitor():
    # both rows have risk 1/2; the second has positive excess variance
    problem = make_problem([(0.5, 0.5), (0.0, 1.0)])
    assert bernstein_certificate(problem, 0.0).minimal_B == pytest.approx(0.25)
    assert bernstein_certificate(problem, 0.5).minimal_B == math.inf
    assert bernstein_certificate(problem, 1.0).minimal_B == math.inf
    assert bernstein_certificate(problem, 1.0).hstar_index == 0


def test_bernstein_single_hypothesis_and_duplicates():
    assert bernstein_certificate(make_problem([(0.3, 0.7)]), 1.0).minimal_B == 0.0
    # an exact copy of the optimum imposes no constraint at any beta
    problem = make_problem([(0.2, 0.4), (0.2, 0.4)])
    for beta in (0.0, 0.5, 1.0):
        cert = bernstein_certificate(problem, beta)
        assert cert.minimal_B == 0.0
        assert cert.hstar_index == 0


def test_bernstein_beta_zero_never_exceeds_one():
    for trial in range(50):
        rng = philox_stream(5200, trial)
        rows = tuple(
            tuple(round(float(v), 3) for v in rng.random(3)) for _ in range(4)
        )
        probs = rng.dirichlet(np.ones(3))
        problem = make_problem(rows, probs=tuple(float(p) for p in probs))
        assert bernstein_certificate(problem, 0.0).minimal_B <= 1.0 + 1e-12


def test_bernstein_certificate_is_tight_and_feasible():
    # minimal_B satisfies the defining inequality for every competitor,
    # and some competitor attains it (within round-off)
    for trial in range(30):
        rng = philox_stream(5300, trial)
        rows = tuple(
            tuple(round(float(v), 3) for v in rng.random(3)) for _ in range(5)
        )
        problem = make_problem(rows)
        for beta in (0.0, 0.3, 0.7, 1.0):
            cert = bernstein_certificate(problem, beta)
            if math.isinf(cert.minimal_B):
                continue
            star = problem.loss.rows[cert.hstar_index]
            probs = problem.distribution.probs
            slacks = []
            for h, row in enumerate(problem.loss.rows):
                if h == cert.hstar_index:
                    continue
                e1 = max(
                    0.0,
                    math.fsum(p * (row[z] - star[z]) for z, p in enumerate(probs)),
                )
                e2 = math.fsum(
                    p * (row[z] - star[z]) ** 2 for z, p in enumerate(probs)
                )
                if e2 == 0.0:
                    continue
                rhs = cert.minimal_B * e1**beta if (e1 > 0 or beta == 0) else math.inf
                assert e2 <= rhs + 1e-12
                slacks.append(rhs - e2)
            if slacks:
                assert min(slacks) == pytest.approx(0.0, abs=1e-12)


def test_bernstein_certificate_validation():
    problem = make_problem([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        bernstein_certificate(problem, -0.1)
    with pytest.raises(ValueError):
        bernstein_certificate(problem, 1.5)
    with pytest.raises(ValueError):
        BernsteinCertificate(beta=0.5, minimal_B=-1.0, hstar_index=0)
    with pytest.raises(ValueError):
        BernsteinCertificate(beta=0.5, minimal_B=float("nan"), hstar_index=0)
    with pytest.raises(ValueError):
        BernsteinCertificate(beta=0.5, minimal_B=1.0, hstar_index=-1)


def sq_sum(a, b):
    return math.fsum((x - y) ** 2 for x, y in zip(a, b))


def test_pairwise_bernstein_examples():
    # identical sequences leave only the 5 ln(2|H|^2/delta)/(n-1) term
    assert pairwise_rhs_from_sq(0.0, 2, 2, 0.5) == pytest.approx(5.0 * math.log(16.0))
    assert pairwise_rhs_from_sq(0.0, 2, 2, 0.5) == pytest.approx(13.862944, abs=5e-7)
    # unit differences at n=2, |H|=1, delta=1/e
    log_term = math.log(2.0) + 1.0
    got = pairwise_rhs_from_sq(sq_sum((1.0, 1.0), (0.0, 0.0)), 2, 1, 1.0 / math.e)
    assert got == pytest.approx(math.sqrt(4.0 * log_term) + 5.0 * log_term)
    assert got == pytest.approx(11.068156, abs=5e-7)
    # each entry of an array of sums rounds as the plain-float formula
    sq = np.linspace(0.0, 30.0, 301)
    want = [ref.pairwise_rhs_from_sq(float(q), 31, 5, 0.05) for q in sq]
    assert pairwise_rhs_from_sq(sq, 31, 5, 0.05).tolist() == want


def test_pairwise_bernstein_slack_decreases_with_n():
    values = [
        pairwise_rhs_from_sq(sq_sum((0.9,) * n, (0.1,) * n), n, 3, 0.1) for n in range(2, 60)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pairwise_bernstein_matches_gap_kernel_at_delta_one_over_k():
    # the gated loop's Bernstein gap is this slack at delta = 1/k plus 2/k
    rng = philox_stream(5400, 0)
    for k in (2, 5, 17, 40):
        a = tuple(round(float(v), 3) for v in rng.random(k))
        b = tuple(round(float(v), 3) for v in rng.random(k))
        assert bernstein_delta_from_sq(k, sq_sum(a, b), 4) == pytest.approx(
            pairwise_rhs_from_sq(sq_sum(a, b), k, 4, 1.0 / k) + 2.0 / k, rel=1e-12
        )


def test_pairwise_bernstein_validation():
    with pytest.raises(ValueError):
        pairwise_rhs_from_sq(0.01, 1, 2, 0.5)
    with pytest.raises(ValueError):
        pairwise_rhs_from_sq(-0.01, 2, 2, 0.5)
    with pytest.raises(ValueError):
        pairwise_rhs_from_sq(np.array([0.1, np.nan]), 2, 2, 0.5)
    with pytest.raises(ValueError):
        pairwise_rhs_from_sq(0.02, 2, 0, 0.5)
    with pytest.raises(ValueError):
        pairwise_rhs_from_sq(0.02, 2, 2, 0.0)
    with pytest.raises(ValueError):
        pairwise_rhs_from_sq(0.02, 2, 2, 1.0)


def eta_grid():
    return np.arange(1, 100_001, dtype=np.float64) / 200_000.0


def grid_minimum(A, B, beta):
    eta = eta_grid()
    return float((A * eta ** (1.0 / (1.0 - beta)) + B / eta).min())


def test_minimizer_bound_examples():
    assert minimizer_bound(1.0, 1.0, 0.0) == pytest.approx(5.0)
    assert minimizer_bound(4.0, 1.0, 0.0) == pytest.approx(8.0)
    assert grid_minimum(1.0, 1.0, 0.0) == pytest.approx(2.5)
    assert grid_minimum(1.0, 1.0, 0.0) <= minimizer_bound(1.0, 1.0, 0.0)


def test_minimizer_bound_dominates_grid_minimum():
    rng = philox_stream(5500, 0)
    for _ in range(200):
        A = float(10.0 ** rng.uniform(-2.0, 2.0))
        B = float(10.0 ** rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(0.0, 0.95))
        assert grid_minimum(A, B, beta) <= minimizer_bound(A, B, beta) + 1e-9


def test_minimizer_bound_validation():
    for A, B, beta in (
        (0.0, 1.0, 0.5),
        (-1.0, 1.0, 0.5),
        (1.0, 0.0, 0.5),
        (1.0, -1.0, 0.5),
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 1.5),
        (1.0, 1.0, -0.1),
    ):
        with pytest.raises(ValueError):
            minimizer_bound(A, B, beta)
