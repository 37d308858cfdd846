"""Seeded Monte Carlo estimation beyond the enumeration budget.

Replications are simulated in lockstep: one replication per column of a
vectorized state, stepping through k = 1..n_max together a block of steps
at a time.  A block computes every running loss sum and ERM candidate in
it, then scans the gate against each replication's incumbent, resuming a
replication's scan after each switch.  Every float operation mirrors the
scalar loop in the algorithm module (same kernels, same accumulation and
association order), so a lockstep replication is bit-identical to running
``run_germ`` on the same derived generator, whatever the block length.

Determinism contract: replication r draws from the generator derived from
(base_seed, r), consuming one ``random(n_max)`` block for the sample and,
only in the EmpiricalMcDiarmid gap mode, k fresh signs for each step k in
ascending order.  Where no signs follow, the samples of a block of
replications come from one Philox re-keyed to (base_seed, r) per row
(``rng.fill_uniforms``), which yields the same stream; a test pins this.  Those signs are drawn for a block of consecutive steps
at once: one ``draw_signs`` call returns the concatenation of the per-step
draws, so what a replication consumes is fixed by the replication alone,
not by how its draws are split into calls, and matches the scalar loop's
one k-sign call per step.  Replications are processed in fixed-size
chunks and chunk results are reduced in chunk order, so means, standard
errors, and coverage counts do not depend on the worker count.  One
``mc_experiment`` call draws and steps each chunk once, and the risk curve
and every coverage event read that one pass.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algorithm import AlgorithmSpec, GermAlgorithm, algo_label, check_algorithm
from .algorithm import _accumulate_steps, _bernstein_gate, _erm_candidates, _scan_gate
from .analysis import excess_risk_bound, pairwise_rhs_from_sq
from .gap import GapSpec, UniformConvergence, bernstein_delta_from_sq, delta_uniform, is_randomized
from .oracle import RiskCurve
from .problem import LearningProblem, optimal_risk, population_risk
from .rademacher import deviation_radius, exact_rademacher, mcdiarmid_radius
from .rng import check_integer, draw_signs, fill_uniforms, philox_stream

CHUNK = 4096

# Most signs one replication draws in one call.  A block's arrays hold
# CHUNK x steps-in-block x (outcomes + 3) floats; a larger cap saves little
# time and costs memory.
SIGN_BLOCK = 4096

# Most bytes of working arrays one lockstep block of steps may hold, about
# replications x steps x _step_bytes, and of uniforms the outcome draw
# buffers (at least one row).  Larger blocks save little time and raise the
# peak memory of short runs.
STEP_BLOCK = 1 << 20

POSITIVE_EXCESS_FLOOR = 1e-12

COVERAGE_COLUMNS = ("n", "event", "level", "coverage", "replications")


@dataclass(frozen=True)
class McConfig:
    """Replication count, horizon, base seed, and the n-grid to record."""

    replications: int
    n_max: int
    base_seed: int
    grid: tuple[int, ...]

    def __post_init__(self) -> None:
        check_integer(self.replications, "replications")
        check_integer(self.n_max, "horizon")
        check_integer(self.base_seed, "base seed")
        for n in self.grid:
            check_integer(n, "grid entry")
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        if self.n_max < 1:
            raise ValueError(f"horizon must be >= 1, got {self.n_max}")
        if not 0 <= self.base_seed <= 2**64 - 1:
            raise ValueError(f"base seed must fit in 64 bits, got {self.base_seed}")
        if not self.grid:
            raise ValueError("the n-grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"the n-grid must be strictly increasing, got {self.grid}")
        if self.grid[0] < 1 or self.grid[-1] > self.n_max:
            raise ValueError(f"the n-grid must lie within [1, {self.n_max}], got {self.grid}")


@dataclass(frozen=True)
class ExcessBoundEvent:
    """Excess risk within the high-probability bound, floor 1 - 2/n.

    Runs the gated loop with a uniform-convergence gap and checks, at each
    grid n, that L(h_n) - min_h L(h) stays within the additive slack built
    from the run's own Rademacher bound at step n.
    """

    algo: GermAlgorithm

    name = "excess-bound"

    def __post_init__(self) -> None:
        if not isinstance(self.algo, GermAlgorithm):
            raise ValueError("the excess-risk bound event runs the gated loop")
        gap = self.algo.gap
        if not (isinstance(gap, GapSpec) and isinstance(gap.variant, UniformConvergence)):
            raise ValueError(
                "the excess-risk bound is stated for uniform-convergence gaps; "
                f"got {gap!r}"
            )


@dataclass(frozen=True)
class EstimatorDeviationEvent:
    """Sign-weighted supremum within its concentration radius, floor 1 - delta.

    Algorithm-free: draws fresh signs at each grid n and compares the
    supremum against the exact expected supremum, which bounds grid sizes
    by the count-vector budget of the exact sum.  delta = 1 is allowed and
    makes the floor vacuous.
    """

    delta: float

    name = "estimator-deviation"

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")


@dataclass(frozen=True)
class PairwiseBernsteinEvent:
    """All pairwise empirical-Bernstein bounds hold at once, floor 1 - delta."""

    delta: float

    name = "pairwise-bernstein"

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


BoundEvent = ExcessBoundEvent | EstimatorDeviationEvent | PairwiseBernsteinEvent


@dataclass(frozen=True)
class CoverageResult:
    """Measured event frequency per grid n against its theoretical floor."""

    event: str
    ns: tuple[int, ...]
    coverages: tuple[float, ...]
    floors: tuple[float, ...]
    replications: int
    problem: str
    seed: int
    algo: str | None = None

    def __post_init__(self) -> None:
        if len(self.coverages) != len(self.ns) or len(self.floors) != len(self.ns):
            raise ValueError("coverages, floors, and ns lengths differ")
        for c in self.coverages:
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"coverage {c!r} outside [0, 1]")
        if self.replications < 1:
            raise ValueError("coverage needs at least one replication")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log excess risk against log n.

    ``slope_bound`` is the hinted rate -1/(2 - beta) plus 0.15 of
    log-factor headroom; callers compare against it or against their own
    threshold.  ``degenerate`` marks fits with fewer than two positive
    excess points; slope, intercept, and residual are NaN there.
    """

    slope: float
    intercept: float
    residual: float
    beta_hint: float
    slope_bound: float
    ns: tuple[int, ...]
    excesses: tuple[float, ...]
    degenerate: bool


def _map_chunks(chunk, replications: int, workers: int, *args) -> list:
    """``chunk(*args, start, stop)`` per CHUNK of replications, in chunk order.

    Chunks run in a process pool when there are several workers and chunks,
    with no more processes than chunks.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    ranges = [(start, min(start + CHUNK, replications)) for start in range(0, replications, CHUNK)]
    processes = min(workers, len(ranges))
    if processes == 1:
        return [chunk(*args, a, b) for a, b in ranges]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        futures = [pool.submit(chunk, *args, a, b) for a, b in ranges]
        return [f.result() for f in futures]


def _population_risks(problem: LearningProblem) -> np.ndarray:
    return np.array([population_risk(problem, h) for h in range(problem.class_size)])


def _draw_outcome_block(problem: LearningProblem, cfg: McConfig, start: int, stop: int, keep_generators: bool):
    """Per-replication samples; generators returned when signs follow.

    Uniforms are drawn into one reused buffer of replication rows, as many
    as STEP_BLOCK bytes hold and at least one, and turned into outcomes a
    buffer at a time.  Without generators to keep, ``fill_uniforms`` reads
    each row's stream from one re-keyed Philox instead of a generator per
    replication.
    """
    m = problem.loss.outcome_count
    cum = np.cumsum(problem.distribution.as_array())
    B = stop - start
    outcomes = np.empty((B, cfg.n_max), dtype=np.min_scalar_type(m - 1))
    gens = [] if keep_generators else None
    rows = max(1, STEP_BLOCK // (8 * cfg.n_max))
    buf = np.empty((min(rows, B), cfg.n_max))
    for a in range(0, B, rows):
        u = buf[: min(rows, B - a)]
        if keep_generators:
            for i, row in enumerate(u):
                gen = philox_stream(cfg.base_seed, start + a + i)
                gen.random(out=row)
                gens.append(gen)
        else:
            fill_uniforms(cfg.base_seed, start + a, u)
        outcomes[a : a + len(u)] = _outcome_index(cum, u)
    return outcomes, gens


def _outcome_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome of each uniform in ``u``: the count of cum[j] <= u
    over j < m - 1, which is ``min(searchsorted(cum, u, "right"), m - 1)``."""
    z = np.zeros(u.shape, dtype=np.min_scalar_type(len(cum) - 1))
    for c in cum[:-1]:
        z += c <= u
    return z


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


def _sign_sups(loss_array: np.ndarray, outcomes: np.ndarray, gens, ks) -> np.ndarray:
    """Sign-weighted supremum at each size in ``ks``, shape (B, len(ks)).

    For each k in order, replication b pairs k fresh signs from its own
    generator with its first k outcomes.  The signs of a block of sizes
    come from one ``draw_signs`` call per replication, whose stream is the
    concatenation of the per-size draws.  Arithmetic mirrors the scalar
    kernel: integer signed counts per outcome, a float accumulation in
    ascending outcome order, max over rows, divide by k.  Signed counts are
    exact integers, so both paths round identically.
    """
    ks = np.asarray(ks, dtype=np.int64)
    m = loss_array.shape[1]
    B = outcomes.shape[0]
    sups = np.empty((B, len(ks)))
    for start, stop in _sign_blocks(ks.tolist()):
        block = ks[start:stop]
        steps = stop - start
        # draw j pairs with outcome pos[j] of its step, and offset[j] puts
        # that step's counts in its row of the flattened (steps, m) block
        offset = np.repeat(np.arange(steps) * m, block)
        pos = np.arange(int(block.sum())) - np.repeat(np.cumsum(block) - block, block)
        W = np.empty((B, steps, m))
        for i, gen in enumerate(gens):
            signs = draw_signs(gen, len(pos))
            W[i] = np.bincount(offset + outcomes[i, pos], weights=signs, minlength=steps * m).reshape(steps, m)
        best = np.full((B, steps), -np.inf)
        for row in loss_array:
            t = np.zeros((B, steps))
            for z in range(m):
                t += W[:, :, z] * row[z]
            np.maximum(best, t, out=best)
        sups[:, start:stop] = best / block
    return sups


def _step_bytes(class_size: int) -> int:
    """Working bytes per replication and step of a lockstep block.

    The block holds one running sum per hypothesis and about ten per-step
    arrays (outcome index, candidate, its sum, the incumbent's sum, the
    difference, the gap and their temporaries), 8 bytes or fewer each.
    """
    return 8 * (class_size + 10)


def _draws_signs(algo: AlgorithmSpec | None) -> bool:
    """Whether stepping ``algo`` draws signs after each replication's sample."""
    return isinstance(algo, GermAlgorithm) and is_randomized(algo.gap)


def _step_block(problem: LearningProblem, algo: AlgorithmSpec, cfg: McConfig, outcomes: np.ndarray, gens, capture_rbar: bool):
    """Step the replications of a (B, n_max) outcome block in lockstep, a
    block of steps at a time.

    ``gens`` holds each row's generator, positioned just after its sample,
    when ``_draws_signs(algo)``, and is None otherwise.  Per block, every
    hypothesis's running loss sum at every step comes from the sums
    carried from the block before, one vector add per step;
    ``_erm_candidates`` gives the candidate at every step, and
    ``_scan_gate`` the gate's decisions.  Each (replication, step) pair
    goes through the float operations of the scalar loop, so results do not
    depend on the block length.  That length starts at what STEP_BLOCK
    bytes allow, halves after a block that needs more than 8 scans, so that
    frequent switching falls back toward one step per block, and doubles
    again, up to the start, after a block that needs at most 2.

    Returns (chosen, rbars): ``chosen`` maps each grid position to the
    chosen indices (B,).  With ``capture_rbar``, ``rbars`` maps it to the
    step's Rademacher bounds: per replication (EmpiricalMcDiarmid), one
    scalar (other uniform modes), or None (other gaps); otherwise
    ``rbars`` is None.
    """
    loss = problem.loss
    L = loss.as_array()
    m = loss.outcome_count
    H = loss.class_size
    n = cfg.n_max
    germ = isinstance(algo, GermAlgorithm)
    schedule = check_algorithm(algo, H, n)
    randomized = _draws_signs(algo)
    bernstein = germ and schedule is None and not randomized

    B = len(outcomes)
    ks = np.arange(1, n + 1)
    if schedule is not None:
        deltas = np.array(schedule[0])
    elif randomized:
        sups = _sign_sups(L, outcomes, gens, ks)
        radius = mcdiarmid_radius(ks)
    elif bernstein:
        # the gap with no variance term; +inf at k = 1
        floors = np.empty(n)
        floors[0] = bernstein_delta_from_sq(1, 0.0, H)
        if n > 1:
            floors[1:] = bernstein_delta_from_sq(ks[1:], 0.0, H)
        D2 = (L[:, np.newaxis, :] - L[np.newaxis, :, :]) ** 2
        counts = np.zeros((m, B), dtype=np.int64)
    # steps along axis 0 and replications along axis 1, so a step is a slab
    steps_first = np.ascontiguousarray(outcomes.T)
    sums = np.zeros((H, B))
    incumbent = np.full(B, algo.initial_index if germ else 0, dtype=np.intp)

    chosen: dict[int, np.ndarray] = {}
    rbars: dict[int, np.ndarray | float | None] = {}
    most = max(1, STEP_BLOCK // (B * _step_bytes(H)))
    steps = most
    S_buf = np.empty((H, most + 1, B))
    t0 = 0
    while t0 < n:
        t1 = min(n, t0 + steps)
        T = t1 - t0
        k = ks[t0:t1, np.newaxis]
        z = steps_first[t0:t1]
        # running sums: each step adds its losses to the step before, starting
        # from the carried sums, as the scalar loop's sums[h] += row[z] does
        S = S_buf[:, : T + 1]
        S[:, 0] = sums
        np.take(L, z, axis=1, out=S[:, 1:])
        _accumulate_steps(S)
        sums = S[:, T].copy()
        S = S[:, 1:]
        cand, best = _erm_candidates(S)
        # block positions of the grid steps
        at = [g - t0 - 1 for g in cfg.grid[bisect_right(cfg.grid, t0) : bisect_right(cfg.grid, t1)]]
        scans = 0
        if not germ:
            picked = cand[at]
            incumbent = cand[-1]
        elif bernstein:
            floor = np.broadcast_to(floors[t0:t1, np.newaxis], (T, B))
            settle = functools.partial(_bernstein_gate, counts=counts, z=z, k=k, D2=D2, class_size=H)
            picked, scans = _scan_gate(S, cand, best, k, floor, incumbent, at, settle)
            for j in range(m):
                counts[j] += np.count_nonzero(z == j, axis=0)
        else:
            if randomized:
                rbar = sups[:, t0:t1].T + radius[t0:t1, np.newaxis]
                np.maximum(0.0, rbar, out=rbar)
                gap = delta_uniform(k, rbar)
            else:
                gap = np.broadcast_to(deltas[t0:t1, np.newaxis], (T, B))
            picked, scans = _scan_gate(S, cand, best, k, gap, incumbent, at)
        for j, pos in enumerate(at):
            step = t0 + pos + 1
            chosen[step] = picked[j]
            if schedule is not None:
                rbars[step] = schedule[1][step - 1]
            elif randomized:
                rbars[step] = rbar[pos].copy()
            else:
                rbars[step] = None
        if scans > 8:
            steps = max(1, steps // 2)
        elif scans <= 2:
            steps = min(most, 2 * steps)
        t0 = t1
    return chosen, (rbars if capture_rbar else None)


def _experiment_chunk(problem: LearningProblem, algo: AlgorithmSpec | None, cfg: McConfig, events: tuple, exact_sups: dict[int, float] | None, start: int, stop: int):
    """One chunk's curve statistics and event counts, from one outcome draw.

    The chunk's outcomes are drawn once and, given an algorithm, stepped
    once; the curve statistics and every excess-bound and pairwise event
    read that one pass.  The estimator-deviation event draws again: its
    signs follow each replication's sample in the stream, where a
    randomized gap draws its own.

    Returns (stats, counts): ``stats`` holds (sum, sum of squares, min,
    max) of the chosen hypotheses' risks per grid n, or is None without an
    algorithm; ``counts`` holds, per event, how many replications satisfy
    it at each grid n.
    """
    pop = _population_risks(problem)
    outcomes = gens = chosen = rbars = stats = None
    if algo is not None or any(isinstance(e, PairwiseBernsteinEvent) for e in events):
        outcomes, gens = _draw_outcome_block(problem, cfg, start, stop, _draws_signs(algo))
    if algo is not None:
        excess = any(isinstance(e, ExcessBoundEvent) for e in events)
        chosen, rbars = _step_block(problem, algo, cfg, outcomes, gens, capture_rbar=excess)
        stats = []
        for n in cfg.grid:
            values = pop[chosen[n]]
            stats.append(
                (float(values.sum()), float((values * values).sum()), float(values.min()), float(values.max()))
            )
    counts = []
    for event in events:
        if isinstance(event, ExcessBoundEvent):
            counts.append(_excess_counts(problem, cfg, pop, chosen, rbars))
        elif isinstance(event, PairwiseBernsteinEvent):
            counts.append(_pairwise_counts(problem, event, cfg, pop, outcomes))
        else:
            counts.append(_estimator_counts(problem, event, cfg, start, stop, exact_sups))
    return stats, counts


def _excess_counts(problem: LearningProblem, cfg: McConfig, pop: np.ndarray, chosen, rbars) -> list[int]:
    star = optimal_risk(problem)[0]
    counts = []
    for n in cfg.grid:
        excess = pop[chosen[n]] - star
        counts.append(int(np.count_nonzero(excess <= excess_risk_bound(n, rbars[n]))))
    return counts


def _estimator_counts(problem: LearningProblem, event: EstimatorDeviationEvent, cfg: McConfig, start: int, stop: int, exact_sups: dict[int, float]) -> list[int]:
    outcomes, gens = _draw_outcome_block(problem, cfg, start, stop, keep_generators=True)
    # each replication draws its grid sign blocks in ascending n
    sups = _sign_sups(problem.loss.as_array(), outcomes, gens, cfg.grid)
    counts = []
    for n, sup in zip(cfg.grid, sups.T):
        radius = deviation_radius(n, event.delta)
        counts.append(int(np.count_nonzero(np.abs(sup - exact_sups[n]) <= radius)))
    return counts


def _pairwise_counts(problem: LearningProblem, event: PairwiseBernsteinEvent, cfg: McConfig, pop: np.ndarray, outcomes: np.ndarray) -> list[int]:
    m = problem.loss.outcome_count
    L = problem.loss.as_array()
    H = problem.class_size
    D2 = (L[:, np.newaxis, :] - L[np.newaxis, :, :]) ** 2
    B = len(outcomes)
    counts = np.zeros((B, m), dtype=np.int64)
    prev = 0
    counts_out = []
    for n in cfg.grid:
        seg = outcomes[:, prev:n]
        for j in range(m):
            counts[:, j] += np.count_nonzero(seg == j, axis=1)
        prev = n
        emp = counts @ L.T / n
        ok = np.ones(B, dtype=bool)
        for a in range(H):
            for c in range(a + 1, H):
                rhs = pairwise_rhs_from_sq(counts @ D2[a, c], n, H, event.delta)
                gap = (pop[a] - pop[c]) - (emp[:, a] - emp[:, c])
                ok &= np.abs(gap) <= rhs
        counts_out.append(int(np.count_nonzero(ok)))
    return counts_out


def _reduce_curve(problem: LearningProblem, algo: AlgorithmSpec, cfg: McConfig, parts: list) -> RiskCurve:
    """The curve from the chunks' statistics, summed in chunk order."""
    R = cfg.replications
    values = []
    stderrs = []
    for gi in range(len(cfg.grid)):
        total = 0.0
        total_sq = 0.0
        lo = math.inf
        hi = -math.inf
        for part in parts:
            s, sq, mn, mx = part[gi]
            total += s
            total_sq += sq
            lo = min(lo, mn)
            hi = max(hi, mx)
        mean = total / R
        if R == 1 or lo == hi:
            stderr = 0.0
        else:
            var = max(0.0, (total_sq - R * mean * mean) / (R - 1))
            stderr = math.sqrt(var / R)
        values.append(mean)
        stderrs.append(stderr)
    return RiskCurve(
        ns=cfg.grid,
        values=tuple(values),
        stderrs=tuple(stderrs),
        kind="mc",
        problem=problem.name,
        algo=algo_label(algo),
        seed=cfg.base_seed,
        replications=R,
        degenerate=R == 1,
    )


def mc_experiment(
    problem: LearningProblem,
    algo: AlgorithmSpec | None,
    cfg: McConfig,
    events: tuple[BoundEvent, ...],
    *,
    workers: int = 1,
) -> tuple[RiskCurve | None, tuple[CoverageResult, ...]]:
    """The risk curve of ``algo`` and the coverage of each event, in one pass.

    One process pool runs every chunk of replications once: its outcomes
    are drawn once and, given an algorithm, stepped once, and the curve
    and every event read that pass (see ``_experiment_chunk``).  With
    ``algo`` None the curve is None and nothing is stepped; an
    excess-bound event must run ``algo`` itself.  Returns (curve,
    coverages), the coverages in the order of ``events``; each equals what
    ``mc_risk_curve`` or ``mc_bound_coverage`` returns for it alone, at
    any worker count.
    """
    if algo is not None:
        check_algorithm(algo, problem.class_size, cfg.n_max)
    exact_sups = None
    for event in events:
        if isinstance(event, ExcessBoundEvent):
            if event.algo != algo:
                raise ValueError("an excess-bound event must run the experiment's algorithm")
        elif isinstance(event, EstimatorDeviationEvent):
            if exact_sups is None:
                exact_sups = {n: exact_rademacher(problem, n) for n in cfg.grid}
        elif isinstance(event, PairwiseBernsteinEvent):
            if cfg.grid[0] < 2:
                raise ValueError("the pairwise event needs every grid n >= 2")
        else:
            raise ValueError(f"unknown bound event {event!r}")
    parts = _map_chunks(_experiment_chunk, cfg.replications, workers, problem, algo, cfg, events, exact_sups)
    curve = None if algo is None else _reduce_curve(problem, algo, cfg, [stats for stats, _ in parts])
    coverages = []
    for i, event in enumerate(events):
        excess = isinstance(event, ExcessBoundEvent)
        totals = [sum(counts[i][gi] for _, counts in parts) for gi in range(len(cfg.grid))]
        coverages.append(
            CoverageResult(
                event=event.name,
                ns=cfg.grid,
                coverages=tuple(t / cfg.replications for t in totals),
                floors=tuple(1.0 - 2.0 / n if excess else 1.0 - event.delta for n in cfg.grid),
                replications=cfg.replications,
                problem=problem.name,
                seed=cfg.base_seed,
                algo=algo_label(algo) if excess else None,
            )
        )
    return curve, tuple(coverages)


def mc_risk_curve(
    problem: LearningProblem,
    algo: AlgorithmSpec,
    cfg: McConfig,
    *,
    workers: int = 1,
) -> RiskCurve:
    """Estimated expected-risk curve over the configured grid.

    Each replication r draws its own generator from (base_seed, r), draws
    one sample of length n_max, and runs the loop once; the prefix
    trajectory yields every grid n.  The result is bit-identical for any
    worker count.
    """
    return mc_experiment(problem, algo, cfg, (), workers=workers)[0]


def mc_bound_coverage(
    problem: LearningProblem,
    event: BoundEvent,
    cfg: McConfig,
    *,
    workers: int = 1,
) -> CoverageResult:
    """Fraction of replications where a bound event holds, per grid n.

    The theoretical floor is 1 - 2/n for the excess-risk bound and
    1 - delta for the deviation and pairwise events.  Only the
    excess-risk bound steps a learner.  The estimator deviation event
    compares against exact expected suprema, so its grid is limited by the
    count-vector budget of the exact sum; the pairwise event needs every
    grid n >= 2.
    """
    algo = event.algo if isinstance(event, ExcessBoundEvent) else None
    return mc_experiment(problem, algo, cfg, (event,), workers=workers)[1][0]


def excess_risk_decay(
    problem: LearningProblem,
    algo: AlgorithmSpec,
    cfg: McConfig,
    beta_hint: float,
    *,
    curve: RiskCurve | None = None,
    workers: int = 1,
) -> DecayFit:
    """Fit log mean-excess-risk against log n over the grid.

    The grid must span at least a decade.  Points with excess at or below
    the positive floor are dropped; fewer than two surviving points yield
    a degenerate fit.  Pass ``curve`` to reuse an existing estimate made
    with the same problem, algorithm, and grid.
    """
    if not 0.0 <= beta_hint <= 1.0:
        raise ValueError(f"beta hint must lie in [0, 1], got {beta_hint}")
    if cfg.grid[-1] < 10 * cfg.grid[0]:
        raise ValueError(
            f"decay fits need a grid spanning a decade, got {cfg.grid[0]}..{cfg.grid[-1]}"
        )
    if curve is None:
        curve = mc_risk_curve(problem, algo, cfg, workers=workers)
    else:
        if curve.ns != cfg.grid:
            raise ValueError("supplied curve was computed on a different grid")
        if curve.problem != problem.name or curve.algo != algo_label(algo):
            raise ValueError("supplied curve does not match the problem and algorithm")
    star = optimal_risk(problem)[0]
    points = [
        (n, v - star)
        for n, v in zip(curve.ns, curve.values)
        if v - star > POSITIVE_EXCESS_FLOOR
    ]
    slope_bound = -1.0 / (2.0 - beta_hint) + 0.15
    if len(points) < 2:
        return DecayFit(
            slope=math.nan,
            intercept=math.nan,
            residual=math.nan,
            beta_hint=beta_hint,
            slope_bound=slope_bound,
            ns=tuple(n for n, _ in points),
            excesses=tuple(e for _, e in points),
            degenerate=True,
        )
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(e) for _, e in points]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residual = math.sqrt(
        math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    return DecayFit(
        slope=slope,
        intercept=intercept,
        residual=residual,
        beta_hint=beta_hint,
        slope_bound=slope_bound,
        ns=tuple(n for n, _ in points),
        excesses=tuple(e for _, e in points),
        degenerate=False,
    )


def coverage_to_csv(result: CoverageResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COVERAGE_COLUMNS)
    for n, floor, coverage in zip(result.ns, result.floors, result.coverages):
        writer.writerow([str(n), result.event, repr(floor), repr(coverage), str(result.replications)])
    return out.getvalue()

