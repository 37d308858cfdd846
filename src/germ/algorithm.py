"""The greedy gated ERM learner and its one step kernel.

At each step k the learner proposes the empirical risk minimizer over the
first k observations, ties to the lowest index.  The incumbent is replaced
only when the candidate's empirical risk undercuts the incumbent's by at
least the step's gap delta_k:

    (1/k) sum_i l(cand, z_i) - (1/k) sum_i l(inc, z_i) <= -delta_k

With a gap sequence built from valid Rademacher bounds (or the
empirical-Bernstein gap), the expected population risk of the incumbent is
non-increasing in k; that property is certified by the oracle and
montecarlo modules, never asserted per run.

``_step_block`` is the one stepper.  It steps the rows of an outcome block
in lockstep, a block of steps at a time, through ``_gate_block``, the one
gate, which ``_gate`` sets up once per run and which runs the array
kernels ``_erm_candidates``, ``_scan_gate`` and the settles
``_bernstein_gate`` and ``_rademacher_gate``; only ``_gate`` tells the
learners apart.  The randomized gap's R-bar
(the rademacher module's ``_rbars``) is read only in the blocks where a
row's gate can fire at R-bar = 0, and at the steps and rows a caller
asks the gate's readback for.  Each row's signs
are addressed by its origin in its Philox stream (``rng.read_signs``):
step k's signs lie at half offset k (k - 1) / 2 from it, so a read makes
only the words of the steps it needs, and every sign read is the one that
drawing every step's signs in turn gives.  ``run_germ`` is one row of it
over every step, from the origin its caller gives; the Monte Carlo
engine calls it on chunks of replications, and the exact oracle steps
each layer of its states through ``_gate_block`` as a one-step block.

The kernels read running sums step-major, indexed [step, row, hypothesis],
so that one step of every row is one contiguous slab.  Per block, only
the rows whose incumbent can fall k * floor(k) behind the minimum sum
within the block go through the candidate and gate kernels, where
floor(k) is a lower bound of the gap at step k; the bound and its float
headroom are set out in ``_gate_block``.  The others provably keep their
incumbent, and no result depends on which rows were skipped.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .gap import (
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UserConstant,
    bernstein_delta_from_sq,
    delta_uniform,
    is_randomized,
    step_schedule,
)
from .problem import LearningProblem, LossTable, Sample, _check_outcomes
from .rademacher import _rbars
from .rng import _check_key, check_integer

# Most bytes of working arrays one block of steps of ``_step_block`` may
# hold, about rows x steps x _step_bytes, and of 64-bit words the Monte
# Carlo outcome draw buffers (at least one row).  Larger blocks save little time
# and raise the peak memory of short runs.
STEP_BLOCK = 1 << 20


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

    Checks that n >= 1, the gap's class size, the initial index, and that
    a constant schedule covers n steps, in time that does not grow with n;
    ``step_schedule`` builds the schedule.
    """
    if n < 1:
        raise ValueError(f"a run needs at least one step, got n={n}")
    if isinstance(algo, PlainErm):
        return
    if not isinstance(algo, GermAlgorithm):
        raise ValueError(f"unknown algorithm spec {algo!r}")
    if isinstance(algo.gap, GapSpec):
        if algo.gap.class_size != class_size:
            raise ValueError(f"gap is bound to class size {algo.gap.class_size}, problem has {class_size}")
        mode = getattr(algo.gap.variant, "mode", None)
        if isinstance(mode, UserConstant) and len(mode.values) < n:
            raise ValueError(f"UserConstant supplies {len(mode.values)} values, run needs {n}")
    if algo.initial_index >= class_size:
        raise ValueError(f"initial index {algo.initial_index} out of range for class of size {class_size}")


@dataclass(frozen=True)
class TrajectoryStep:
    """One gated step: the proposal, the gap, and the gate's outcome.

    ``updated`` is whether the step switched the incumbent, so it is False
    where the gate clears but the candidate already is the incumbent.
    """

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


def erm(loss: LossTable, sample_prefix: Sample) -> int:
    """Empirical risk minimizer over the prefix; ties break to the lowest index.

    The loss sums are added in step order, as ``run_germ`` adds them.
    """
    if len(sample_prefix) == 0:
        raise ValueError("the empirical risk minimizer of an empty prefix is undefined")
    _check_outcomes(sample_prefix, loss.outcome_count)
    sums = np.cumsum(loss.as_array().T[list(sample_prefix.outcomes)], axis=0)[-1]
    return int(_erm_candidates(sums)[0])


def run_germ(
    problem: LearningProblem,
    sample: Sample,
    gap: GapSpec | FixedDelta,
    *,
    initial: int = 0,
    origin: tuple[int, int, int] | None = None,
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
    origin:
        (base_seed, stream, half), integers: the signs are read from the
        32-bit half ``half`` of the Philox stream of (base_seed, stream)
        on (``rng.read_signs``), step k's k signs k (k - 1) / 2 halves
        after it.  Required exactly when the gap draws random signs
        (UniformConvergence with EmpiricalMcDiarmid), ignored otherwise.
        The Monte Carlo engine's replication r reads its signs from
        (base_seed, r, 2 n_max), after its sample of n_max words.

    Returns
    -------
    Trajectory
        One record per step; deterministic given inputs and seed.

    The choices come from one row of ``_step_block``, and the records'
    R-bars from the readback it returns, read at every step.  The records'
    sums come from ``np.cumsum``, which adds in step order as the stepper
    does, and their candidates and gaps from the kernels it steps through.
    """
    loss = problem.loss
    n = len(sample.outcomes)
    H = loss.class_size
    if n == 0:
        raise ValueError("cannot run on an empty sample")
    _check_outcomes(sample, loss.outcome_count)
    algo = GermAlgorithm(gap, initial_index=initial)
    check_algorithm(algo, H, n)
    schedule = step_schedule(gap, n)
    randomized = is_randomized(gap)
    origins = None
    if randomized:
        if origin is None:
            raise ValueError("the EmpiricalMcDiarmid mode reads random signs; pass origin")
        base_seed, stream, half = origin
        _check_key(base_seed, stream)
        if check_integer(half, "the origin's half") < 0:
            raise ValueError(f"the origin's half must be >= 0, got {half}")
        origins = int(base_seed), np.array([stream], dtype=np.uint64), int(half)

    z = np.array(sample.outcomes)
    ks = np.arange(1, n + 1)
    chosen, readback = _step_block(problem, algo, z[np.newaxis], origins, ks)
    chosen = chosen[:, 0]
    rbars = readback(ks, [0])
    L = loss.as_array()
    S = np.cumsum(L.T[z], axis=0)
    cand, best = _erm_candidates(S)
    inc = np.concatenate(([initial], chosen[:-1]))
    inc_sums = S[ks - 1, inc]
    if schedule is not None:
        deltas = schedule[0]
    elif randomized:
        deltas = delta_uniform(ks, rbars[:, 0])
    else:
        C = np.cumsum(z[:, np.newaxis] == np.arange(loss.outcome_count), axis=0)
        deltas = _bernstein_gaps(_sq_sums(C, _sq_diffs(L)[cand, inc]), H)
    rbar = [None] * n if rbars is None else rbars[:, 0].tolist()
    losses = (best / ks).tolist(), (inc_sums / ks).tolist()
    records = zip(ks.tolist(), cand.tolist(), chosen.tolist(), deltas.tolist(), *losses, (chosen != inc).tolist(), rbar)
    return Trajectory(initial_index=initial, steps=tuple(TrajectoryStep(*r) for r in records))


def _erm_candidates(S: np.ndarray):
    """Lowest-index empirical risk minimizer of the sums ``S[..., h]``.

    Ascending strict ``<`` comparisons keep the lowest index on ties, as
    ``min`` over hypotheses does.  Returns the indices and the
    minimal sums.
    """
    H = S.shape[-1]
    best = S[..., 0].copy()
    cand = np.zeros(best.shape, dtype=np.min_scalar_type(H - 1))
    for h in range(1, H):
        better = S[..., h] < best
        np.copyto(cand, h, where=better)
        np.minimum(best, S[..., h], out=best)
    return cand, best


def _sq_diffs(L: np.ndarray) -> np.ndarray:
    """Squared loss differences indexed [candidate, incumbent, outcome]."""
    return (L[:, np.newaxis, :] - L[np.newaxis, :, :]) ** 2


def _sq_sums(counts: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Squared-difference sums: ``counts[..., z] * d2[:, z]`` summed over
    the outcomes z in ascending order, from 0.0."""
    q = np.zeros(len(d2))
    for z in range(counts.shape[-1]):
        q += counts[..., z] * d2[:, z]
    return q


def _bernstein_gaps(sq: np.ndarray, class_size: int) -> np.ndarray:
    """The Bernstein gap at steps 1..len(sq) from their squared-difference
    sums ``sq``; +inf at k = 1, which freezes the incumbent at step 1."""
    gaps = np.full(len(sq), math.inf)
    if len(sq) > 1:
        gaps[1:] = bernstein_delta_from_sq(np.arange(2, len(sq) + 1), sq[1:], class_size)
    return gaps


def _accumulate_steps(X: np.ndarray) -> None:
    """Running sums along axis 0, in place and in step order.

    X[0] holds the values carried into the block; afterwards X[t] is
    X[t - 1] + X[t], one step's ``sums[h] += loss[h][z]``.  Each step is
    one contiguous slab, and one vector add per step is several times
    faster than ``np.cumsum`` along axis 0.
    """
    for t in range(1, len(X)):
        np.add(X[t - 1], X[t], out=X[t])


def _bernstein_gate(rows, lo, inc, cand, diff, fire, *, S, live, k, D2, class_size) -> None:
    """Settle the Bernstein gate at the steps ``fire`` marks, in place.

    ``fire`` marks where the difference clears the gap with no variance
    term, a lower bound of the gap.  Only there are the squared-difference
    sum (``_sq_sums``) and the gap formed.  Arguments follow ``_scan_gate``
    and ``_gate_block``; the outcome counts ride in ``S``'s columns past the
    ``class_size`` loss sums, ``live`` is not read, and ``D2`` holds the
    squared loss differences indexed [candidate, incumbent, outcome].
    """
    t, r = np.nonzero(fire)
    if not t.size:
        return
    q = _sq_sums(S[lo + t, rows[r], class_size:], D2[cand[t, r], inc[r]])
    fire[t, r] = diff[t, r] <= -bernstein_delta_from_sq(k[lo + t, 0], q, class_size)


def _rademacher_gate(rows, lo, inc, cand, diff, fire, *, S, live, k, read, cache) -> None:
    """Settle the randomized gate at the steps ``fire`` marks, in place.

    ``fire`` marks where the difference clears the gap at R-bar = 0, a
    lower bound of the gap.  Only the rows with a mark read their R-bar:
    they read it at every step of the block in one ``read`` call (the
    gate's readback, ``_gate``), and ``cache`` keeps it, keyed by the row
    of the outcome block that ``live`` maps the block's row to, for the
    rescans of the block.  Arguments follow ``_scan_gate`` and
    ``_gate_block``; ``S`` is not read.
    """
    t, r = np.nonzero(fire)
    if not t.size:
        return
    uniq, inv = np.unique(r, return_inverse=True)
    ids = live[rows[uniq]].tolist()
    ks = k[:, 0]
    k0 = int(ks[0])
    new = [i for i in ids if cache.get(i, (0,))[0] != k0]
    if new:
        cache.update((i, (k0, v)) for i, v in zip(new, read(ks, new).T))
    rbar = np.stack([cache[i][1] for i in ids])[inv, lo + t]
    fire[t, r] = diff[t, r] <= -delta_uniform(k[lo + t, 0], rbar)


def _scan_gate(S, cand, best, k, gap, incumbent, at, settle=None):
    """Gate decisions of one block of steps; updates ``incumbent`` in place.

    ``S`` (T, B, H) holds the running loss sums, ``cand`` and ``best`` (T, B)
    the ERM candidate and its sum, ``k`` (T, 1) the step indices and ``gap``
    (T, B) the gap, or a lower bound of it that ``settle`` (see
    ``_bernstein_gate`` and ``_rademacher_gate``) turns into the gate's
    decision.  The gate fires
    where (sum(cand) - sum(incumbent)) / k <= -gap; a fire where the
    candidate is the incumbent switches nothing.  Each row switches at its
    first firing step and is rescanned from the step after against its new
    incumbent, until no row switches.

    Returns the incumbents after the block positions ``at``, shape
    (len(at), B).
    """
    T, B = best.shape
    picked = np.repeat(incumbent[np.newaxis, :], len(at), axis=0)
    rows = np.arange(B)
    lo = 0
    cols = slice(None)  # the first scan reads every row without a copy
    while True:
        inc = incumbent[rows]
        c = cand[lo:, cols]
        diff = (best[lo:, cols] - S[lo:, rows, inc]) / k[lo:]
        fire = diff <= -gap[lo:, cols]
        fire &= c != inc
        # a rescan starts at lo >= 1, and each row from its step after the switch
        if lo:
            fire &= np.arange(lo, T)[:, np.newaxis] >= first
        if settle:
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
    return picked


def _step_bytes(class_size: int) -> int:
    """Working bytes per row and step of a block of ``_step_block``: one
    running sum per hypothesis and about ten per-step arrays (outcome,
    candidate, sums, difference, gap, the Bernstein gap's outcome counts
    and temporaries) of 8 bytes or fewer."""
    return 8 * (class_size + 10)


class Gate(NamedTuple):
    """What ``_gate`` builds once per run; ``_gate`` sets out each field.

    ``rbars``, the R-bar readback, reads no sign until it is called, so a
    caller forms only the R-bars its results depend on.
    """

    gaps: np.ndarray | None
    lag_needed: np.ndarray | None
    reach: np.ndarray | None
    settle: Callable | None
    rows: np.ndarray
    initial: int
    rbars: Callable


def _gate(algo: AlgorithmSpec, L: np.ndarray, n: int, signs=None) -> Gate:
    """The gate of ``algo`` over steps 1..n on loss array ``L``, built once
    per run for ``_gate_block``: the one place that tells the learners
    apart.  ``signs`` is (outcomes, origins), which only the randomized gap
    reads: the (B, n) outcome block and the origin of each row's signs.

    ``gaps`` holds the gap the scan compares at each step: the schedule
    (``step_schedule``) for the fixed, Massart and constant gaps; for
    Bernstein, the gap with no variance term, and for the randomized gap,
    the gap at R-bar = 0, each a lower bound of the gap that ``settle``
    (``_bernstein_gate``, ``_rademacher_gate``) turns into the gate's
    decision.  The randomized gap is 4 R-bar + r_k + 2/k with R-bar >= 0,
    and rounding is monotone, so in floats too it is at least its value at
    R-bar = 0.  Its settle reads only the signs of the blocks whose R-bar
    it reads; other steps' words are never made.  ``lag_needed`` holds
    k * floor(k) and ``reach`` the largest lag growth per step of each
    incumbent; ``_gate_block`` sets them out.  Plain ERM has no gap: these
    four are None.  ``rows`` (m, columns) holds each outcome's row of the
    running sums that ``_step_block`` and the exact oracle step: its H
    losses, then, for the Bernstein gap alone, whose settle reads the
    outcome counts, its indicator among the m outcomes.  ``initial`` is
    the incumbent before step 1.

    ``rbars`` is the R-bar readback: ``rbars(steps, rows)`` maps an
    increasing int array of steps and an index of the outcome block's rows
    to the R-bar there.  For the randomized gap it is one ``_rbars`` call
    on those rows' outcomes and origins, step k's signs at half offset
    k (k - 1) / 2 from a row's origin, (len(steps), len(rows)); its settle
    reads through it too.  For Massart and constant it is the schedule's
    (len(steps), 1), whatever the rows, and for the other learners None.
    """
    H, m = L.shape
    rows = np.ascontiguousarray(L.T)
    settle, rbars = None, (lambda steps, rows: None)
    if isinstance(algo, PlainErm):
        return Gate(None, None, None, settle, rows, 0, rbars)
    ks = np.arange(1, n + 1)
    schedule = step_schedule(algo.gap, n)
    if schedule is not None:
        gaps, table = schedule
        if table is not None:
            rbars = lambda steps, rows: table[steps - 1, np.newaxis]
    elif is_randomized(algo.gap):
        gaps = delta_uniform(ks, 0.0)
        outcomes, (base_seed, streams, half) = signs

        def rbars(steps, rows):
            return _rbars(L, outcomes[rows], (base_seed, streams[rows], half), steps, steps * (steps - 1) // 2).T

        settle = functools.partial(_rademacher_gate, read=rbars, cache={})
    else:
        gaps = _bernstein_gaps(np.zeros(n), H)
        settle = functools.partial(_bernstein_gate, D2=_sq_diffs(L), class_size=H)
        rows = np.hstack([L.T, np.eye(m)])
    return Gate(gaps, ks * np.fmax(gaps, 0.0), (L - L.min(axis=0)).max(axis=1), settle, rows, algo.initial_index, rbars)


def _gate_block(S, sums, k, incumbent, at, gate):
    """Gate decisions of one block of steps; updates ``incumbent`` in place.

    Rows follow ``gate``'s layout: H loss sums, then, for the Bernstein
    settle alone, the m outcome counts.  ``S`` (T, B, columns) holds the
    running sums after each step of the block and ``sums`` (B, columns)
    those carried into it, ``k`` (T, 1) the step indices, and
    ``gate`` comes from ``_gate``.  Returns the incumbents after the block
    positions ``at``, (len(at), B), for plain ERM its candidates there,
    and nothing else.  A settle kernel reads the live rows'
    sums ``S``, their rows ``live`` in the block and ``k``.  The randomized
    one reads a row's R-bar, at every step of the block, only when the gap
    at R-bar = 0 fires for that row within the block; no other block's
    signs are read.

    A row is live when its incumbent can fall far enough behind within the
    block for the gate to fire, and only live rows go through
    ``_erm_candidates`` and ``_scan_gate``.  The gap at step k is at least
    a floor that depends on k alone: the schedule itself for the fixed,
    Massart and constant gaps, the gap with no variance term for
    Bernstein, and the gap at R-bar = 0 for the randomized gap, which are
    ``gate``'s gaps; a NaN floor counts as 0.  The gate fires only where
    the lag S_inc - min_h S_h is at least k * floor(k), and the lag grows
    by at most reach[inc] = max_z (L[inc, z] - min_h L[h, z]) per step.  So a row whose lag at
    the block start plus T * reach[inc] is below the least k * floor(k)
    over the block keeps its incumbent through the block.  The test grants
    1e-9 * t1 of headroom, t1 the block's last step: sums of losses in
    [0, 1] stay below t1, so each rounding moves the float lag by at most
    eps * t1, and a block of T < 2**14 steps (the STEP_BLOCK cap) adds up
    about (T + 4) * eps * t1 < 4e-12 * t1 of them.  Each live row goes
    through the same float operations whichever rows are live.

    Before any row's lag is formed, one test bounds them all: a lag is a
    function of the sums alone, and each of the t0 = t1 - T steps before
    the block adds at most reach[inc] to it, so with the block's own steps
    a row's bound is at most t1 * max(reach).  The float lag at the block
    start lies within eps * t1**2 of the exact one (t0 roundings of each of
    two sums below t1 and one of their difference, each at most
    eps * t1 / 2), and the other roundings of the test stay far below
    1e-9 * t1.  So when t1 * max(reach) falls short of the least
    k * floor(k) by 2e-9 * t1 + 2.3e-16 * t1**2 (2.3e-16 > eps), no row is
    live, and the block returns what the row test returns then.
    """
    if gate.gaps is None:
        # ``at`` ascends, so a block read at every step is ``S`` itself, not a copy
        return _erm_candidates(S if len(at) == len(S) else S[at])[0]
    H = len(gate.reach)
    T, t1 = len(k), int(k[-1, 0])
    picked = incumbent[np.newaxis].repeat(len(at), axis=0)
    need = gate.lag_needed[t1 - T : t1].min()
    if t1 * gate.reach.max() < need - t1 * (2e-9 + 2.3e-16 * t1):
        return picked
    lag = sums[np.arange(len(incumbent)), incumbent] - functools.reduce(np.minimum, sums[:, :H].T)
    live = (lag + T * gate.reach[incumbent] >= need - 1e-9 * t1).nonzero()[0]
    if live.size:
        # every row live reads the block without a copy
        sel = slice(None) if live.size == len(incumbent) else live
        S_live, inc = S[:, sel], incumbent[sel]
        cand, best = _erm_candidates(S_live[..., :H])
        gap = np.broadcast_to(gate.gaps[t1 - T : t1, np.newaxis], cand.shape)
        block_settle = gate.settle and functools.partial(gate.settle, S=S_live, live=live, k=k)
        picked[:, sel] = _scan_gate(S_live, cand, best, k, gap, inc, at, block_settle)
        incumbent[sel] = inc
    return picked


def _step_block(problem: LearningProblem, algo: AlgorithmSpec, outcomes: np.ndarray, origins, grid):
    """Step each row of a (B, n) outcome block through steps 1..n, the rows
    in lockstep and a block of steps at a time.

    ``origins`` holds the rows' sign origins in ``rng.read_signs``'s form,
    (base_seed, streams, half), when the gap draws signs, and is None
    otherwise.  Step k's signs lie at half offset k (k - 1) / 2 from a row's
    origin, as drawing every step's signs in turn places them, but only the
    steps a decision or the caller reads are read: the blocks in which the
    randomized settle (``_rademacher_gate``) reads a row's R-bar, and those
    the caller asks the returned readback for.  No generator is built or
    moved.  Per block of T steps, every hypothesis's running loss sum at
    every step comes from the sums carried from the block before, one vector
    add per step over a step-major (T, B, H) array, so each step is one
    contiguous slab.  The Bernstein gap also needs each row's outcome
    counts; they ride in m more columns, the indicators of the step's
    outcome, so the same take and add carry them.  ``_gate`` picks the
    columns, the first incumbent and the R-bar readback.  Every block goes
    through ``_gate_block``: plain ERM forms its candidate at the grid steps
    only, and a gate skips the rows that cannot switch within it.

    Each (row, step) pair goes through the same float operations whatever
    the block length, which is as many steps as STEP_BLOCK bytes allow, at
    least one and at most n.

    Returns (chosen, rbars): ``chosen`` (len(grid), B) holds the chosen
    indices at the steps of the increasing ``grid``, whose entries lie in
    1..n, and ``rbars`` is the gate's R-bar readback (``_gate``).  No
    R-bar beyond those the gate read is formed until the caller calls
    ``rbars(steps, rows)`` for the steps and rows a result depends on: for
    EmpiricalMcDiarmid it reads their signs then, (len(steps), len(rows));
    for the other uniform-convergence modes it gives the schedule's
    (len(steps), 1), and for other learners None.
    """
    loss = problem.loss
    H = loss.class_size
    B, n = outcomes.shape
    check_algorithm(algo, H, n)
    gate = _gate(algo, loss.as_array(), n, (outcomes, origins))
    ks = np.arange(1, n + 1)
    sums = np.zeros((B, gate.rows.shape[1]))
    incumbent = np.full(B, gate.initial, dtype=np.intp)

    chosen = np.empty((len(grid), B), dtype=np.intp)
    steps = min(n, max(1, STEP_BLOCK // (B * _step_bytes(H))))
    S_buf = np.empty((steps + 1, B, gate.rows.shape[1]))
    for t0 in range(0, n, steps):
        t1 = min(n, t0 + steps)
        T = t1 - t0
        z = outcomes[:, t0:t1].T
        # running sums from the sums carried into the block
        S = S_buf[: T + 1]
        S[0] = sums
        # outcomes lie in 0..m-1, so "clip" changes no value; it spares the
        # buffered copy of ``out`` that the default mode makes
        np.take(gate.rows, z, axis=0, out=S[1:], mode="clip")
        _accumulate_steps(S)
        S = S[1:]
        # grid positions g0..g1 fall in this block, at block positions ``at``
        g0, g1 = bisect_right(grid, t0), bisect_right(grid, t1)
        at = [g - t0 - 1 for g in grid[g0:g1]]
        chosen[g0:g1] = _gate_block(S, sums, ks[t0:t1, np.newaxis], incumbent, at, gate)
        sums = S[-1].copy()
    return chosen, gate.rbars
