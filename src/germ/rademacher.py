"""Rademacher complexity of a finite loss class: estimators and bounds.

The quantity of interest is R_k = E[sup_h (1/k) sum_i sigma_i loss(h, Z_i)]
over i.i.d. fair signs sigma and i.i.d. outcomes Z.  Three routes to an
upper bound R-bar_k are provided:

* ``rbar_empirical``: a single-draw estimate padded by a concentration
  radius, correct with probability at least 1 - 1/k per draw;
* ``rbar_massart``: the deterministic finite-class bound sqrt(2 ln|H| / k);
* the exact value (``exact_rademacher``), the ground truth in tests.

The exact quantities sum over count vectors instead of sequences: a
signed draw is one of 2m categories (outcome z with sign +1 or -1, each
with probability p_z / 2), and the supremum depends on the draws only
through the signed counts W_z = c+_z - c-_z.  So every expectation over
samples and signs is one multinomial sum over the C(k + 2m - 1, 2m - 1)
count vectors of ``problem.multinomial_blocks``, within its budget.
"""

from __future__ import annotations

import math

import numpy as np

from .problem import LearningProblem, LossTable, Sample, _check_outcomes, multinomial_blocks
from .rng import draw_signs


def mcdiarmid_radius(k):
    """sqrt(2 ln(2k) / k): the deviation radius at confidence level 1/k.

    ``k`` is a step index or an integer array of them.  An array's logs go
    through ``math.log`` one step at a time, so every entry rounds as the
    scalar call does (``np.sqrt`` and ``math.sqrt`` round identically).
    """
    # an int is tested first: isinstance against np.ndarray costs about 0.1 us
    steps = not isinstance(k, int) and isinstance(k, np.ndarray)
    if (k.min() if steps else k) < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    if steps:
        log = np.array([math.log(2.0 * x) for x in k.ravel().tolist()]).reshape(k.shape)
    else:
        log = math.log(2.0 * k)
    return (np.sqrt if steps else math.sqrt)(2.0 * log / k)


def deviation_radius(n: int, delta: float) -> float:
    """Two-sided concentration radius sqrt(2 ln(2/delta) / n).

    The sign-weighted supremum over a [0, 1]-valued class has bounded
    differences 1/n per coordinate, so it deviates from its mean by more
    than this radius with probability at most ``delta``.  At delta = 1 the
    statement is vacuous, but the radius sqrt(2 ln 2 / n) is still defined.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return math.sqrt(2.0 * math.log(2.0 / delta) / n)


def rademacher_sup(loss: LossTable, sample: Sample, signs) -> float:
    """sup over h of (1/k) sum_i signs[i] * loss[h][z_i], exactly over the class.

    Parameters
    ----------
    loss:
        Loss table defining the class.
    sample:
        Observed outcomes, length k >= 1.
    signs:
        Sequence of k values from {-1, +1}.

    Notes
    -----
    Computed through per-outcome signed counts, accumulated in ascending
    outcome order.  The greedy loop and the vectorized Monte Carlo engine
    reproduce this arithmetic step for step, so all three paths agree
    bit-for-bit.
    """
    k = len(sample)
    if k == 0:
        raise ValueError("the sign-weighted supremum needs a nonempty sample")
    signs = [int(s) for s in signs]
    if len(signs) != k:
        raise ValueError(f"{len(signs)} signs for {k} observations")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    _check_outcomes(sample, loss.outcome_count)

    w = [0] * loss.outcome_count
    for z, s in zip(sample.outcomes, signs):
        w[z] += s
    best = -math.inf
    for row in loss.rows:
        t = 0.0
        for z in range(loss.outcome_count):
            t += w[z] * row[z]
        if t > best:
            best = t
    return best / k


def rbar_from_signs(loss: LossTable, sample: Sample, signs) -> float:
    """Deterministic kernel of the single-draw bound: max(0, sup + radius).

    Exposed so tests can force specific sign vectors; production code draws
    signs through ``rbar_empirical``.
    """
    k = len(sample)
    return max(0.0, rademacher_sup(loss, sample, signs) + mcdiarmid_radius(k))


def rbar_empirical(loss: LossTable, sample: Sample, rng: np.random.Generator) -> float:
    """Single-draw upper estimate of R_k, valid with probability >= 1 - 1/k.

    Draws k fresh fair signs from ``rng`` (exactly one ``integers`` call)
    and returns max(0, rademacher_sup + sqrt(2 ln(2k) / k)).
    """
    return rbar_from_signs(loss, sample, draw_signs(rng, len(sample)))


def rbar_massart(class_size: int, k: int) -> float:
    """Deterministic finite-class bound sqrt(2 ln|H| / k) on R_k."""
    if class_size < 1:
        raise ValueError(f"class size must be >= 1, got {class_size}")
    if k < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    return math.sqrt(2.0 * math.log(class_size) / k)


def _expect(problem: LearningProblem, k: int, value) -> float:
    """E[value(sup)] over k signed draws, sup = max_h (1/k) sum_i sigma_i loss(h, Z_i).

    ``value`` maps a block of suprema to the quantity averaged; all weighted
    terms go through one ``math.fsum``.  Categories 0..m-1 count draws with
    sign +1 and m..2m-1 those with sign -1.  Raises ``ResourceLimitError``
    past the count-vector budget.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    m = problem.outcome_count
    loss_t = problem.loss.as_array().T
    half = [p / 2.0 for p in problem.distribution.probs]

    def terms():
        for counts, weights in multinomial_blocks(half + half, k):
            sups = ((counts[:, :m] - counts[:, m:]) @ loss_t).max(axis=1) / k
            yield from (weights * value(sups)).tolist()

    return math.fsum(terms())


def exact_rademacher(problem: LearningProblem, k: int) -> float:
    """Exact R_k, summed over the count vectors of k signed draws."""
    return _expect(problem, k, lambda sups: sups)


def estimator_deviation_exceedance(problem: LearningProblem, k: int, delta: float) -> float:
    """Exact probability that |rademacher_sup - R_k| exceeds deviation_radius(k, delta)."""
    radius = deviation_radius(k, delta)
    exact = exact_rademacher(problem, k)
    return _expect(problem, k, lambda sups: np.abs(sups - exact) > radius)


def rbar_undershoot_rate(problem: LearningProblem, k: int) -> float:
    """Exact probability that the single-draw bound falls below the true R_k.

    The bound's guarantee is that this never exceeds 1/k.
    """
    exact = exact_rademacher(problem, k)
    return _expect(problem, k, lambda sups: np.maximum(0.0, sups + mcdiarmid_radius(k)) < exact)
