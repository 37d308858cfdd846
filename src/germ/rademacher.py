"""Rademacher complexity of a finite loss class: estimators and bounds.

The quantity of interest is R_k = E[sup_h (1/k) sum_i sigma_i loss(h, Z_i)]
over i.i.d. fair signs sigma and i.i.d. outcomes Z.  Three routes to an
upper bound R-bar_k are provided:

* ``_rbars``: the single-draw estimate max(0, sup + sqrt(2 ln(2k) / k)),
  correct with probability at least 1 - 1/k per draw, at a list of sizes
  for a block of rows (the randomized gap and ``germ rademacher``);
* ``rbar_massart``: the deterministic finite-class bound sqrt(2 ln|H| / k);
* the exact value (``exact_rademacher``), the ground truth in tests.

Each formula has one NumPy implementation; a scalar argument broadcasts
through it as a zero-dimensional array.

The exact quantities sum over count vectors instead of sequences: a
signed draw is one of 2m categories (outcome z with sign +1 or -1, each
with probability p_z / 2), and the supremum depends on the draws only
through the signed counts W_z = c+_z - c-_z.  So every expectation over
samples and signs is one multinomial sum over the C(k + 2m - 1, 2m - 1)
count vectors (``problem.multinomial_sum``), within its budget.
"""

from __future__ import annotations

import math

import numpy as np

from .problem import LearningProblem, multinomial_sum
from .rng import read_signs

# Most signs, rows x signs per row, that ``_sign_sups`` reads in one block;
# a single size above it is read one row at a time.  A block's arrays take
# about 30 bytes per sign; a larger cap saves little time and costs memory.
SIGN_BLOCK = 1 << 13


def mcdiarmid_radius(k):
    """sqrt(2 ln(2k) / k): the deviation radius at confidence level 1/k.

    ``k`` is a step index or an integer array of them.  The logs go through
    ``math.log`` one step at a time, so every entry rounds as
    ``math.sqrt(2 * math.log(2 * k) / k)`` does (``np.sqrt`` rounds as
    ``math.sqrt``).
    """
    k = np.asarray(k)
    if k.min() < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    log = np.array([math.log(2.0 * x) for x in k.ravel().tolist()]).reshape(k.shape)
    return np.sqrt(2.0 * log / k)


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


def _sign_blocks(ks) -> list[tuple[int, int]]:
    """Split positions of ``ks`` into consecutive [start, stop) blocks.

    Each block holds at most SIGN_BLOCK signs in total; a single size
    above the cap forms a block of its own.
    """
    blocks = []
    start = 0
    while start < len(ks):
        stop = start + 1
        total = ks[start]
        while stop < len(ks) and total + ks[stop] <= SIGN_BLOCK:
            total += ks[stop]
            stop += 1
        blocks.append((start, stop))
        start = stop
    return blocks


def _sign_sups(loss_array: np.ndarray, outcomes: np.ndarray, origins, ks, offsets) -> np.ndarray:
    """Sign-weighted supremum at each size in ``ks``, shape (B, len(ks)).

    Row b of the (B, n) ``outcomes`` pairs its first k = ks[i] outcomes
    with the k signs at half offset ``offsets[i]`` from its origin, one of
    the rows' ``origins`` (``rng.read_signs``).  Sizes are read in
    consecutive blocks (``_sign_blocks``) and each block in slices of rows,
    so that a read holds at most SIGN_BLOCK signs, or one row.  Per size:
    integer signed counts per outcome, formed for every row of a read at
    once, a float accumulation in ascending outcome order, max over
    hypotheses, divide by k.
    """
    base_seed, streams, half = origins
    ks = np.asarray(ks, dtype=np.int64)
    m = loss_array.shape[1]
    B = outcomes.shape[0]
    sups = np.empty((B, len(ks)))
    for start, stop in _sign_blocks(ks.tolist()):
        sizes = ks[start:stop].tolist()
        steps = stop - start
        spans = list(zip(offsets[start:stop], sizes))
        rows = max(1, SIGN_BLOCK // sum(sizes))
        # a row's signs pair with its steps' outcome prefixes in turn, and
        # cell[j] puts sign j in its step's counts
        cell = np.repeat(np.arange(steps) * m, sizes)
        for a in range(0, B, rows):
            b = min(B, a + rows)
            signs = read_signs((base_seed, streams[a:b], half), spans)
            index = np.concatenate([outcomes[a:b, :k] for k in sizes], axis=1) + cell
            index += np.arange(b - a)[:, np.newaxis] * (steps * m)
            W = np.bincount(index.ravel(), weights=signs.ravel(), minlength=(b - a) * steps * m).reshape(b - a, steps, m)
            best = np.full((b - a, steps), -np.inf)
            for row in loss_array:
                t = np.zeros((b - a, steps))
                for z in range(m):
                    t += W[:, :, z] * row[z]
                np.maximum(best, t, out=best)
            sups[a:b, start:stop] = best / ks[start:stop]
    return sups


def _rbars(loss_array: np.ndarray, outcomes: np.ndarray, origins, ks, offsets) -> np.ndarray:
    """Single-draw bound max(0, sup + mcdiarmid_radius(k)) at each size in
    ``ks``, shape (B, len(ks)); the suprema and their signs come from
    ``_sign_sups`` on the same arguments.

    Each entry is at least R_k with probability at least 1 - 1/k.
    """
    ks = np.asarray(ks)
    rbar = _sign_sups(loss_array, outcomes, origins, ks, offsets)
    rbar += mcdiarmid_radius(ks)
    return np.maximum(0.0, rbar, out=rbar)


def rbar_massart(class_size: int, k):
    """Deterministic finite-class bound sqrt(2 ln|H| / k) on R_k; ``k`` is a
    step index or an integer array of them."""
    if class_size < 1:
        raise ValueError(f"class size must be >= 1, got {class_size}")
    k = np.asarray(k)
    if k.min() < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    return np.sqrt(2.0 * math.log(class_size) / k)


def _expect(problem: LearningProblem, k: int, value) -> float:
    """E[value(sup)] over k signed draws, sup = max_h (1/k) sum_i sigma_i loss(h, Z_i).

    ``value`` maps a block of suprema to the quantity averaged, and
    ``problem.multinomial_sum`` adds the weighted terms.  Categories 0..m-1
    count draws with sign +1 and m..2m-1 those with sign -1.  Raises
    ``ResourceLimitError`` past the count-vector budget.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    m = problem.outcome_count
    loss_t = problem.loss.as_array().T
    half = [p / 2.0 for p in problem.distribution.probs]

    def weigh(counts, weights):
        sups = ((counts[:, :m] - counts[:, m:]) @ loss_t).max(axis=1) / k
        return weights * value(sups)

    return multinomial_sum(half + half, k, weigh)


def exact_rademacher(problem: LearningProblem, k: int) -> float:
    """Exact R_k, summed over the count vectors of k signed draws."""
    return _expect(problem, k, lambda sups: sups)


def estimator_deviation_exceedance(problem: LearningProblem, k: int, delta: float) -> float:
    """Exact probability that the sign-weighted supremum deviates from R_k
    by more than deviation_radius(k, delta)."""
    radius = deviation_radius(k, delta)
    exact = exact_rademacher(problem, k)
    return _expect(problem, k, lambda sups: np.abs(sups - exact) > radius)


def rbar_undershoot_rate(problem: LearningProblem, k: int) -> float:
    """Exact probability that the single-draw bound falls below the true R_k.

    The bound's guarantee is that this never exceeds 1/k.
    """
    exact = exact_rademacher(problem, k)
    return _expect(problem, k, lambda sups: np.maximum(0.0, sups + mcdiarmid_radius(k)) < exact)
