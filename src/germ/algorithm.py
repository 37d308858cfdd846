"""The greedy gated ERM loop and its array step kernels.

At each step k the learner proposes the empirical risk minimizer over the
first k observations, ties to the lowest index.  The incumbent is replaced
only when the candidate's empirical risk undercuts the incumbent's by at
least the step's gap delta_k:

    (1/k) sum_i l(cand, z_i) - (1/k) sum_i l(inc, z_i) <= -delta_k

With a gap sequence built from valid Rademacher bounds (or the
empirical-Bernstein gap), the expected population risk of the incumbent is
non-increasing in k; that property is certified by the oracle and
montecarlo modules, never asserted per run.

``run_germ`` is the scalar reference: incremental per-hypothesis sums,
per-outcome counts and signed counts for the sign supremum.  The array
kernels below it (``_erm_candidates``, ``_scan_gate``, ``_bernstein_gate``)
step many states at once, replications of the Monte Carlo engine or
states of one exact-oracle layer, and mirror the scalar loop operation for
operation, so both engines reproduce its gate decisions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gap import (
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    bernstein_delta_from_sq,
    delta_uniform,
    is_randomized,
    step_schedule,
)
from .problem import LearningProblem, LossTable, Sample, _check_outcomes
from .rademacher import rbar_from_signs
from .rng import draw_signs


@dataclass(frozen=True)
class GermAlgorithm:
    """Greedy gated ERM: a gap spec and the initial index."""

    gap: GapSpec | FixedDelta
    initial_index: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.gap, (GapSpec, FixedDelta)):
            raise ValueError(f"gap must be a GapSpec or FixedDelta, got {self.gap!r}")
        if self.initial_index < 0:
            raise ValueError(f"initial index must be >= 0, got {self.initial_index}")


@dataclass(frozen=True)
class PlainErm:
    """Baseline without a gate: output the current ERM at every n."""


AlgorithmSpec = GermAlgorithm | PlainErm


def algo_label(algo: AlgorithmSpec) -> str:
    """Compact, filesystem- and CSV-safe label for an algorithm spec."""
    if isinstance(algo, PlainErm):
        return "erm"
    gap = algo.gap
    if isinstance(gap, FixedDelta):
        code = "fixed"
    elif isinstance(gap.variant, EmpiricalBernstein):
        code = "bernstein"
    else:
        mode = gap.variant.mode
        if isinstance(mode, EmpiricalMcDiarmid):
            code = "uniform-empirical"
        elif isinstance(mode, MassartDeterministic):
            code = "uniform-massart"
        else:
            code = "uniform-constant"
    return f"germ:{code}:init{algo.initial_index}"


def check_algorithm(algo: AlgorithmSpec, class_size: int, n: int):
    """Validate ``algo`` for a run of n steps on a class of ``class_size``.

    Checks the gap's class size, the initial index, and that a constant
    schedule covers n steps.  Returns ``step_schedule(algo.gap, n)`` for
    the gated loop and None for plain ERM.
    """
    if isinstance(algo, PlainErm):
        return None
    if not isinstance(algo, GermAlgorithm):
        raise ValueError(f"unknown algorithm spec {algo!r}")
    if isinstance(algo.gap, GapSpec) and algo.gap.class_size != class_size:
        raise ValueError(f"gap is bound to class size {algo.gap.class_size}, problem has {class_size}")
    if algo.initial_index >= class_size:
        raise ValueError(f"initial index {algo.initial_index} out of range for class of size {class_size}")
    return step_schedule(algo.gap, n)


@dataclass(frozen=True)
class TrajectoryStep:
    """One gated step: the proposal, the gap, and the gate's outcome."""

    k: int
    erm_index: int
    chosen_index: int
    delta: float
    erm_empirical_loss: float
    incumbent_empirical_loss: float
    updated: bool
    rbar: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Full record of a run: initial index plus one record per gated step."""

    initial_index: int
    steps: tuple[TrajectoryStep, ...]

    @property
    def final_index(self) -> int:
        return self.steps[-1].chosen_index if self.steps else self.initial_index

    def indices(self) -> tuple[int, ...]:
        """Chosen index after each gated step."""
        return tuple(step.chosen_index for step in self.steps)


def trajectory_to_dict(trajectory: Trajectory) -> dict:
    """Plain-data record of a trajectory; non-finite gaps stay floats."""
    return {
        "initial_index": trajectory.initial_index,
        "steps": [
            {
                "k": s.k,
                "erm_index": s.erm_index,
                "chosen_index": s.chosen_index,
                "delta": s.delta,
                "erm_empirical_loss": s.erm_empirical_loss,
                "incumbent_empirical_loss": s.incumbent_empirical_loss,
                "updated": s.updated,
                "rbar": s.rbar,
            }
            for s in trajectory.steps
        ],
    }


def erm(loss: LossTable, sample_prefix: Sample) -> int:
    """Empirical risk minimizer over the prefix; ties break to the lowest index."""
    if len(sample_prefix) == 0:
        raise ValueError("the empirical risk minimizer of an empty prefix is undefined")
    _check_outcomes(sample_prefix, loss.outcome_count)
    sums = [0.0] * loss.class_size
    for z in sample_prefix.outcomes:
        for h, row in enumerate(loss.rows):
            sums[h] += row[z]
    return min(range(len(sums)), key=sums.__getitem__)


def run_germ(
    problem: LearningProblem,
    sample: Sample,
    gap: GapSpec | FixedDelta,
    *,
    initial: int = 0,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Run the gated loop over every step 1..n.

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


def _erm_candidates(S: np.ndarray):
    """Lowest-index empirical risk minimizer of the sums ``S[h, ...]``.

    Ascending strict ``<`` comparisons keep the lowest index on ties, as the
    single run's ``min`` over hypotheses does.  Returns the indices and the
    minimal sums.
    """
    best = S[0].copy()
    cand = np.zeros(best.shape, dtype=np.min_scalar_type(len(S) - 1))
    for h in range(1, len(S)):
        better = S[h] < best
        np.copyto(cand, h, where=better)
        np.minimum(best, S[h], out=best)
    return cand, best


def _accumulate_steps(X: np.ndarray) -> None:
    """Running sums along axis 1, in place and in step order.

    X[:, 0] holds the values carried into the block; afterwards X[:, t] is
    X[:, t - 1] + X[:, t], the scalar loop's addition.  One vector add per
    step over (axis 0, axis 2) slabs is several times faster than
    ``np.cumsum`` along axis 1.
    """
    for t in range(1, X.shape[1]):
        np.add(X[:, t - 1], X[:, t], out=X[:, t])


def _running_counts(counts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Outcome counts after each step of a block, indexed [outcome, step, row].

    ``counts`` (m, R) holds the counts before the block and ``z`` (steps, R)
    the block's outcomes.
    """
    m = len(counts)
    C = np.empty((m, len(z) + 1, z.shape[1]), dtype=np.int64)
    C[:, 0] = counts
    for j in range(m):
        np.equal(z, j, out=C[j, 1:])
    _accumulate_steps(C)
    return C[:, 1:]


def _bernstein_gate(rows, lo, inc, cand, diff, fire, *, counts, z, k, D2, class_size) -> None:
    """Settle the Bernstein gate at the steps ``fire`` marks, in place.

    ``fire`` marks where the difference clears the gap with no variance
    term, a lower bound of the gap.  Only there are the squared-difference
    sum, accumulated in ascending outcome order as in the scalar loop, and
    the gap formed.  Arguments follow ``_scan_gate``; ``counts`` (m, B) holds
    the outcome counts before the block, ``z`` its outcomes, ``D2`` the
    squared loss differences indexed [candidate, incumbent, outcome].
    """
    t, r = np.nonzero(fire)
    if not t.size:
        return
    need, at_need = np.unique(rows[r], return_inverse=True)
    C = _running_counts(counts[:, need], z[:, need])
    d2 = D2[cand[t, r], inc[r]]
    q = np.zeros(t.size)
    for zz in range(len(C)):
        q += C[zz, lo + t, at_need] * d2[:, zz]
    fire[t, r] = diff[t, r] <= -bernstein_delta_from_sq(k[lo + t, 0], q, class_size)


def _scan_gate(S, cand, best, k, gap, incumbent, at, settle=None):
    """Gate decisions of one block of steps; updates ``incumbent`` in place.

    ``S`` (H, T, B) holds the running loss sums, ``cand`` and ``best`` (T, B)
    the ERM candidate and its sum, ``k`` (T, 1) the step indices and ``gap``
    (T, B) the gap, or a lower bound of it that ``settle`` (see
    ``_bernstein_gate``) turns into the gate's decision.  The gate fires
    where (sum(cand) - sum(incumbent)) / k <= -gap; a fire where the
    candidate is the incumbent switches nothing.  Each row switches at its
    first firing step and is rescanned from the step after against its new
    incumbent, until no row switches.

    Returns the incumbents after the block positions ``at``, shape
    (len(at), B), and the number of scans.
    """
    T, B = best.shape
    picked = np.repeat(incumbent[np.newaxis, :], len(at), axis=0)
    rows = np.arange(B)
    lo = 0
    cols = slice(None)  # the first scan reads every row without a copy
    scans = 0
    while True:
        scans += 1
        inc = incumbent[rows]
        c = cand[lo:, cols]
        diff = (best[lo:, cols] - S[inc, lo:, rows].T) / k[lo:]
        fire = diff <= -gap[lo:, cols]
        fire &= c != inc
        if scans > 1:
            fire &= np.arange(lo, T)[:, np.newaxis] >= first
        if settle is not None:
            settle(rows, lo, inc, c, diff, fire)
        hit = fire.any(axis=0)
        if not hit.any():
            break
        rows = rows[hit]
        f = fire[:, hit].argmax(axis=0) + lo
        new = cand[f, rows]
        incumbent[rows] = new
        if at:
            picked[:, rows] = np.where(np.array(at)[:, np.newaxis] >= f, new, picked[:, rows])
        keep = f + 1 < T
        rows, first = rows[keep], f[keep] + 1
        if not rows.size:
            break
        lo = int(first.min())
        cols = rows
    return picked, scans
