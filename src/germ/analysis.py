"""Risk-bound formulas and certificates.

Everything here is a closed-form function of a problem or of per-sample
summaries: the high-probability excess-risk bound for the gated loop, the
minimal Bernstein-condition constant of a discrete problem, the pairwise
empirical-Bernstein deviation slack, and the scalar minimization lemma the
fast-rate analysis rests on.  The bound formulas take NumPy arrays of
per-replication or per-count-vector summaries, and a scalar broadcasts
through them as a zero-dimensional array.  The oracle and montecarlo
modules measure these; nothing in this module samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import LearningProblem, optimal_risk
from .rademacher import mcdiarmid_radius


def excess_risk_bound(n: int, rbar_n):
    """Additive excess-risk slack of the gated loop after n observations.

    With probability at least 1 - 2/n the population risk of the output
    exceeds the best in the class by no more than

        12 rbar_n + 3 sqrt(2 ln(2n)/n) + 2/n

    where ``rbar_n`` is any valid same-confidence bound on the expected
    Rademacher complexity at step n.

    Parameters
    ----------
    n:
        Number of observations, at least 1.
    rbar_n:
        Rademacher complexity bound at step n, nonnegative; an array of
        per-replication bounds, or a scalar.

    Returns
    -------
    array
        The additive slack over the best population risk in the class,
        shaped as ``rbar_n``.
    """
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if not np.min(rbar_n) >= 0.0:
        raise ValueError(f"complexity bound must be nonnegative, got {rbar_n}")
    return 12.0 * rbar_n + 3.0 * mcdiarmid_radius(n) + 2.0 / n


@dataclass(frozen=True)
class BernsteinCertificate:
    """Minimal constant B such that E[X_h^2] <= B * E[X_h]^beta for all h.

    X_h is the excess loss l(h, Z) - l(hstar, Z) against the lowest-index
    population optimum hstar.  ``minimal_B`` is +inf when no finite B
    satisfies the condition (a zero-mean, positive-variance competitor at
    beta > 0).
    """

    beta: float
    minimal_B: float
    hstar_index: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if math.isnan(self.minimal_B) or self.minimal_B < 0:
            raise ValueError(f"minimal B must be >= 0 or +inf, got {self.minimal_B}")
        if self.hstar_index < 0:
            raise ValueError(f"hstar index must be >= 0, got {self.hstar_index}")


def bernstein_certificate(problem: LearningProblem, beta: float) -> BernsteinCertificate:
    """Exact minimal Bernstein constant of a discrete problem.

    Moments are exact sums over the outcome distribution.  A competitor
    with zero second moment imposes no constraint.  A competitor with zero
    mean excess but positive second moment forces B >= E[X^2] at beta = 0
    and admits no finite B at beta > 0.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    probs = problem.distribution.probs
    rows = problem.loss.rows
    _, hstar = optimal_risk(problem)
    star_row = rows[hstar]
    minimal = 0.0
    for h, row in enumerate(rows):
        if h == hstar:
            continue
        e1 = math.fsum(p * (row[z] - star_row[z]) for z, p in enumerate(probs))
        e2 = math.fsum(p * (row[z] - star_row[z]) ** 2 for z, p in enumerate(probs))
        if e2 == 0.0:
            continue
        # hstar minimizes exact population risk, so e1 < 0 is rounding noise
        e1 = max(0.0, e1)
        if e1 == 0.0:
            constraint = e2 if beta == 0.0 else math.inf
        else:
            constraint = e2 / e1**beta
        minimal = max(minimal, constraint)
    return BernsteinCertificate(beta=beta, minimal_B=minimal, hstar_index=hstar)


def pairwise_rhs_from_sq(sq_sum, n: int, class_size: int, delta: float):
    """Deviation slack of the pairwise empirical Bernstein inequality.

    For loss sequences a_1..a_n and b_1..b_n of two hypotheses, with
    probability at least 1 - delta simultaneously over all ordered pairs
    from a class of ``class_size`` hypotheses,

        L(h) - L(h') <= Lhat_n(h) - Lhat_n(h')
                        + sqrt(2 sum_i (a_i - b_i)^2 ln(2|H|^2/delta)) / (n-1)
                        + 5 ln(2|H|^2/delta) / (n-1)

    and this function returns the two slack terms from the sums of squares
    ``sq_sum`` = sum_i (a_i - b_i)^2, an array of them (one per count
    vector or replication) or a scalar.
    """
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    if not np.min(sq_sum) >= 0.0:
        raise ValueError(f"sum of squares must be nonnegative, got {sq_sum}")
    if class_size < 1:
        raise ValueError(f"class size must be >= 1, got {class_size}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {delta}")
    log_term = math.log(2.0 * class_size * class_size / delta)
    return np.sqrt(2.0 * sq_sum * log_term) / (n - 1) + 5.0 * log_term / (n - 1)


def _pairwise_covered(counts: np.ndarray, n: int, L: np.ndarray, pop: np.ndarray, delta: float) -> np.ndarray:
    """Whether every pairwise empirical-Bernstein bound holds, per row of
    outcome counts of a sample of size n.

    For each ordered pair (h, h') of rows of the loss array ``L``, with
    population risks ``pop``, the bound is the inequality stated in
    ``pairwise_rhs_from_sq``; both orders of a pair share its slack.
    """
    H = len(L)
    emp = counts @ L.T / n
    ok = np.ones(len(counts), dtype=bool)
    for a in range(H):
        for b in range(a + 1, H):
            rhs = pairwise_rhs_from_sq(counts @ ((L[a] - L[b]) ** 2), n, H, delta)
            ok &= pop[a] - pop[b] <= emp[:, a] - emp[:, b] + rhs
            ok &= pop[b] - pop[a] <= emp[:, b] - emp[:, a] + rhs
    return ok


def minimizer_bound(A: float, B: float, beta: float) -> float:
    """Closed-form upper bound on min over eta in (0, 1/2] of A eta^{1/(1-beta)} + B/eta.

    Returns A (3-2 beta)/(1-beta) ((1-beta) B/A)^{1/(2-beta)} + 2B.
    Requires A, B > 0 and beta in [0, 1); the exponent degenerates at
    beta = 1.
    """
    if not A > 0:
        raise ValueError(f"A must be positive, got {A}")
    if not B > 0:
        raise ValueError(f"B must be positive, got {B}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    lead = A * (3.0 - 2.0 * beta) / (1.0 - beta)
    return lead * ((1.0 - beta) * B / A) ** (1.0 / (2.0 - beta)) + 2.0 * B
