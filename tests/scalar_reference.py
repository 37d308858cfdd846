"""Scalar reference formulas and loop of the gated learner, for tests only.

The package evaluates each gap and bound formula through one NumPy kernel.
This module writes each one out once more in plain Python floats, with
``math.sqrt`` and ``math.log``, and without input validation, so that tests
can hold the kernels to an independent definition.  The float operations
are those of the kernels, in the same order, so the comparisons are exact.

``scalar_run_germ`` takes ``germ.algorithm.run_germ``'s arguments and
returns the same ``Trajectory``, but writes each step out in plain Python:
incremental per-hypothesis sums, the ERM ``min``, the gap formulas below,
the Bernstein sum of squares and the gate's comparison, one step at a
time.  It shares no kernel with the package's stepper
(``germ.algorithm._step_block``), which serves ``run_germ``, the Monte
Carlo engine and the exact oracle, so tests that compare those engines
with it do not compare the kernel with itself.  ``erm`` is its ERM alone,
the loop that ``germ.algorithm.erm`` (the stepper's ``_erm_candidates``)
is held to.

``draw_sample`` and ``draw_signs`` draw a sample and signs from a
``Generator`` of ``germ.rng.philox_stream``, one call after another as a
scalar loop would.  They define the outcomes and signs that the package
reads by stream position without a generator
(``germ.montecarlo.draw_outcomes`` and ``germ.rng.read_signs``), and
``scalar_run_germ`` reads its signs through ``draw_signs``.

``unique_rows`` is the ``np.unique(axis=0)`` merge that the exact oracle's
one-sort byte-key merge (``germ.oracle._merge_rows``) must reproduce.

``json_text`` is the text that ``germ.cli._write_json`` writes in one pass:
the standard library's ``json.dumps(indent=2, sort_keys=True)`` of the
document after ``json_safe`` has copied it with nan, inf and -inf as
strings.
"""

from __future__ import annotations

import json
import math

import numpy as np

from germ.algorithm import GermAlgorithm, Trajectory, TrajectoryStep, check_algorithm
from germ.gap import FixedDelta, GapSpec, MassartDeterministic, UniformConvergence, is_randomized
from germ.problem import LearningProblem, LossTable, Sample, _check_outcomes


def draw_sample(problem: LearningProblem, n: int, rng: np.random.Generator) -> Sample:
    """n i.i.d. outcomes by inverse CDF: outcome i is the number of
    cumulative probabilities at or below u_i, at most m - 1, for the n
    uniforms u of one ``rng.random(n)`` call, which reads n 64-bit words."""
    cum = np.cumsum(problem.distribution.as_array())
    return Sample(tuple(np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(cum) - 1).tolist()))


def draw_signs(rng: np.random.Generator, k: int) -> np.ndarray:
    """Draw k fair random signs as an int64 array of +1/-1 values.

    Each sign consumes one 32-bit word of the stream, and a half-used
    64-bit output carries over to the next call.  So ``draw_signs(rng, a +
    b)`` returns exactly ``draw_signs(rng, a)`` followed by
    ``draw_signs(rng, b)``: consumption depends on the number of signs
    drawn, not on how they are split into calls.
    """
    if k < 1:
        raise ValueError(f"need at least one sign, got k={k}")
    return 2 * rng.integers(0, 2, size=k) - 1


def mcdiarmid_radius(k: int) -> float:
    """sqrt(2 ln(2k) / k), the deviation radius at confidence level 1/k."""
    return math.sqrt(2.0 * math.log(2.0 * k) / k)


def rbar_massart(class_size: int, k: int) -> float:
    """Finite-class bound sqrt(2 ln|H| / k)."""
    return math.sqrt(2.0 * math.log(class_size) / k)


def delta_uniform(k: int, rbar: float) -> float:
    """Uniform-convergence gap 4 rbar + sqrt(2 ln(2k) / k) + 2/k."""
    return 4.0 * rbar + mcdiarmid_radius(k) + 2.0 / k


def bernstein_delta_from_sq(k: int, sq_sum: float, class_size: int) -> float:
    """Empirical-Bernstein gap from the squared-difference sum; +inf at k = 1."""
    if k == 1:
        return math.inf
    log_term = math.log(2.0 * k * class_size * class_size)
    return math.sqrt(2.0 * sq_sum * log_term) / (k - 1) + 5.0 * log_term / (k - 1) + 2.0 / k


def delta_bernstein(k: int, cand_losses, inc_losses, class_size: int) -> float:
    """Empirical-Bernstein gap at step k from the k losses of the candidate
    and of the incumbent."""
    sq_sum = math.fsum((a - b) ** 2 for a, b in zip(cand_losses, inc_losses))
    return bernstein_delta_from_sq(k, sq_sum, class_size)


def pairwise_rhs_from_sq(sq_sum: float, n: int, class_size: int, delta: float) -> float:
    """Pairwise empirical-Bernstein slack from the sum of squared differences."""
    log_term = math.log(2.0 * class_size * class_size / delta)
    return math.sqrt(2.0 * sq_sum * log_term) / (n - 1) + 5.0 * log_term / (n - 1)


def pairwise_bernstein_rhs(h_losses, hprime_losses, class_size: int, delta: float) -> float:
    """Pairwise empirical-Bernstein slack of two loss sequences of length n."""
    sq_sum = math.fsum((a - b) ** 2 for a, b in zip(h_losses, hprime_losses))
    return pairwise_rhs_from_sq(sq_sum, len(h_losses), class_size, delta)


def empirical_risk(loss: LossTable, h: int, sample: Sample) -> float:
    """(1/n) sum_i loss[h][z_i] over a nonempty sample."""
    row = loss.rows[h]
    return math.fsum(row[z] for z in sample.outcomes) / len(sample)


def erm(loss: LossTable, sample_prefix: Sample) -> int:
    """Empirical risk minimizer of a nonempty prefix: per-hypothesis sums
    added in step order from 0.0, ties broken to the lowest index."""
    sums = [0.0] * loss.class_size
    for z in sample_prefix.outcomes:
        for h, row in enumerate(loss.rows):
            sums[h] += row[z]
    return min(range(len(sums)), key=sums.__getitem__)


def rademacher_sup(loss: LossTable, sample: Sample, signs) -> float:
    """sup over h of (1/k) sum_i signs[i] * loss[h][z_i].

    Through integer signed counts per outcome and a float accumulation in
    ascending outcome order, as ``germ.rademacher._sign_sups`` does.
    """
    w = [0] * loss.outcome_count
    for z, s in zip(sample.outcomes, signs):
        w[z] += int(s)
    best = -math.inf
    for row in loss.rows:
        t = 0.0
        for z in range(loss.outcome_count):
            t += w[z] * row[z]
        best = max(best, t)
    return best / len(sample)


def rbar_from_signs(loss: LossTable, sample: Sample, signs) -> float:
    """Single-draw bound max(0, sup + sqrt(2 ln(2k) / k)) for given signs."""
    return max(0.0, rademacher_sup(loss, sample, signs) + mcdiarmid_radius(len(sample)))


def unique_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``key`` in sorted order and each row's index among them."""
    return np.unique(key, axis=0, return_inverse=True)


def scalar_run_germ(
    problem: LearningProblem,
    sample: Sample,
    gap: GapSpec | FixedDelta,
    *,
    initial: int = 0,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Run the gated loop over every step 1..n, one scalar step at a time.

    Parameters
    ----------
    problem, sample:
        The problem and the observation sequence z_1..z_n, n >= 1.
    gap:
        Gap specification; a ``FixedDelta`` bypasses the bound machinery
        (diagnostics only).
    initial:
        Incumbent before the first step.
    rng:
        Required exactly when the gap draws random signs
        (UniformConvergence with EmpiricalMcDiarmid); consumed as one
        k-sign draw per step, nothing otherwise.

    Returns
    -------
    Trajectory
        One record per step; deterministic given inputs and seed.
    """
    loss = problem.loss
    outcomes = sample.outcomes
    n = len(outcomes)
    class_size = loss.class_size
    if n == 0:
        raise ValueError("cannot run on an empty sample")
    _check_outcomes(sample, loss.outcome_count)
    check_algorithm(GermAlgorithm(gap, initial_index=initial), class_size, n)
    randomized = is_randomized(gap)
    if randomized and rng is None:
        raise ValueError("the EmpiricalMcDiarmid mode draws random signs; pass rng")

    sums = [0.0] * class_size
    counts = [0] * loss.outcome_count
    incumbent = initial
    steps: list[TrajectoryStep] = []

    for k, z in enumerate(outcomes, start=1):
        for h, row in enumerate(loss.rows):
            sums[h] += row[z]
        counts[z] += 1

        cand = min(range(class_size), key=sums.__getitem__)
        rbar = None
        if isinstance(gap, FixedDelta):
            delta = float(gap.value)
        elif isinstance(gap.variant, UniformConvergence):
            mode = gap.variant.mode
            if randomized:
                rbar = rbar_from_signs(loss, Sample(outcomes[:k]), draw_signs(rng, k))
            elif isinstance(mode, MassartDeterministic):
                rbar = rbar_massart(class_size, k)
            else:
                rbar = mode.values[k - 1]
            delta = delta_uniform(k, rbar)
        else:
            cand_row, inc_row = loss.rows[cand], loss.rows[incumbent]
            sq = 0.0
            for zz in range(loss.outcome_count):
                d = cand_row[zz] - inc_row[zz]
                sq += counts[zz] * (d * d)
            delta = bernstein_delta_from_sq(k, sq, class_size)

        diff = (sums[cand] - sums[incumbent]) / k
        updated = diff <= -delta and cand != incumbent
        chosen = cand if updated else incumbent
        steps.append(
            TrajectoryStep(
                k=k,
                erm_index=cand,
                chosen_index=chosen,
                delta=delta,
                erm_empirical_loss=sums[cand] / k,
                incumbent_empirical_loss=sums[incumbent] / k,
                updated=updated,
                rbar=rbar,
            )
        )
        incumbent = chosen

    return Trajectory(initial_index=initial, steps=tuple(steps))


def json_safe(value):
    """A copy of a report or trajectory value with nan, inf and -inf as the
    strings "nan", "inf" and "-inf", and tuples as lists."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return value
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def json_text(doc) -> str:
    """The text of ``doc`` in a JSON file that ``germ run`` writes."""
    return json.dumps(json_safe(doc), indent=2, sort_keys=True) + "\n"
