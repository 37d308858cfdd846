"""Scalar reference loop of the gated learner, for tests only.

``scalar_run_germ`` takes ``germ.algorithm.run_germ``'s arguments and
returns the same ``Trajectory``, but writes each step out in plain Python:
incremental per-hypothesis sums, the ERM ``min``, the Bernstein sum of
squares and the gate's comparison, one step at a time.  It shares no step
kernel with the package's stepper (``germ.algorithm._step_block``), which
serves ``run_germ``, the Monte Carlo engine and the exact oracle, so tests
that compare those engines with it do not compare the kernel with itself.
Its float operations are the ones the kernels' docstrings promise to
mirror, so the comparisons are exact.
"""

from __future__ import annotations

import numpy as np

from germ.algorithm import GermAlgorithm, Trajectory, TrajectoryStep, check_algorithm
from germ.gap import FixedDelta, GapSpec, bernstein_delta_from_sq, delta_uniform, is_randomized
from germ.problem import LearningProblem, Sample, _check_outcomes
from germ.rademacher import rbar_from_signs
from germ.rng import draw_signs


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
    schedule = check_algorithm(GermAlgorithm(gap, initial_index=initial), class_size, n)
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
        if schedule is not None:
            delta, rbar = schedule[0][k - 1], schedule[1][k - 1]
        elif randomized:
            rbar = rbar_from_signs(loss, Sample(outcomes[:k]), draw_signs(rng, k))
            delta = delta_uniform(k, rbar)
        else:
            rbar = None
            cand_row, inc_row = loss.rows[cand], loss.rows[incumbent]
            sq = 0.0
            for zz in range(loss.outcome_count):
                d = cand_row[zz] - inc_row[zz]
                sq += counts[zz] * (d * d)
            delta = bernstein_delta_from_sq(k, sq, class_size)

        diff = (sums[cand] - sums[incumbent]) / k
        updated = diff <= -delta
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
