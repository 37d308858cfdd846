"""Seeded Monte Carlo estimation beyond the enumeration budget.

Replications are simulated in lockstep: each chunk of replications is one
block of outcome rows for ``algorithm._step_block``, the stepper that
``run_germ`` calls with one row.  So replication r is bit-identical to
``run_germ`` on its sample at origin (base_seed, r, 2 n_max), whatever
the block length.

Determinism contract: replication r reads the Philox stream keyed by
(base_seed, r), the stream of ``philox_stream(base_seed, r)``: the first
n_max 64-bit words, which one ``random(n_max)`` call reads, for the
sample and, only where signs are read, signs from half 2 n_max on (the
origin (base_seed, r, 2 n_max) of ``rng.read_signs``).  The
EmpiricalMcDiarmid gap mode's step k pairs with the k signs at half
offset k (k - 1) / 2 from there, and the estimator-deviation event's grid
size n with the n signs after those of the smaller grid sizes, as
drawing them in turn places them.  Only the signs a decision or an output
needs are read, and no generator is built per replication: the samples of
a block of replications come from ``draw_outcomes`` and the signs of a
block of rows from ``rng.read_signs``, both through ``rng.read_words``,
one Philox re-keyed per row, which a test pins to ``philox_stream``'s
stream.  ``draw_outcomes`` is the package's one sample draw: ``germ
run``'s trajectory of n steps, which for n <= n_max is replication 0's
first n steps, and ``germ rademacher``'s empirical sample come from it
too.

Replications are processed in fixed-size chunks and chunk results are
reduced in chunk order, so means, standard errors, and coverage counts do
not depend on the worker count.  One ``mc_experiment`` call draws and
steps each chunk once, and the risk curve and every coverage event read
that one pass.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .algorithm import STEP_BLOCK, AlgorithmSpec, GermAlgorithm, _step_block, algo_label, check_algorithm
from .analysis import _pairwise_covered, excess_risk_bound
from .gap import GapSpec, UniformConvergence
from .oracle import RiskCurve
from .problem import LearningProblem, _outcome_index, optimal_risk, population_risks
from .rademacher import _sign_sups, deviation_radius, exact_rademacher
from .rng import _check_key, check_integer, read_words

CHUNK = 4096

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
    # imported where a pool starts: its modules would add about 15 ms to every import of germ
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes) as pool:
        futures = [pool.submit(chunk, *args, a, b) for a, b in ranges]
        return [f.result() for f in futures]


def draw_outcomes(problem: LearningProblem, base_seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """The first n outcomes of streams (base_seed, r) for start <= r < stop,
    (stop - start, n): the samples of replications start..stop.

    Outcome i of a row is the inverse-CDF outcome of the stream's word i
    (``_outcome_index``).  The words are read by ``read_words``, the span
    (0, n) of as many rows as STEP_BLOCK bytes hold and at least one, and
    turned into outcomes a block of rows at a time.
    """
    if n < 1:
        raise ValueError(f"the sample size must be >= 1, got n={n}")
    # a uint64 range past 2**64 - 1 would wrap to stream 0
    _check_key(base_seed, start)
    _check_key(base_seed, max(stop - 1, start))
    m = problem.loss.outcome_count
    cum = np.cumsum(problem.distribution.as_array())
    outcomes = np.empty((stop - start, n), dtype=np.min_scalar_type(m - 1))
    rows = max(1, STEP_BLOCK // (8 * n))
    for a in range(start, stop, rows):
        streams = np.arange(a, min(a + rows, stop), dtype=np.uint64)
        outcomes[a - start : a - start + rows] = _outcome_index(cum, read_words(base_seed, streams, [(0, n)]))
    return outcomes


def _sign_origins(cfg: McConfig, start: int, stop: int):
    """The origins of replications start..stop's signs (``rng.read_signs``):
    the half after each one's sample."""
    return cfg.base_seed, np.arange(start, stop, dtype=np.uint64), 2 * cfg.n_max


def _experiment_chunk(problem: LearningProblem, algo: AlgorithmSpec | None, cfg: McConfig, events: tuple, exact_sups: dict[int, float] | None, start: int, stop: int):
    """One chunk's curve statistics and event counts, from one outcome draw.

    The chunk's outcomes are drawn once and, given an algorithm, stepped
    once; the curve statistics and every event read that one pass.  The
    estimator-deviation event reads its own signs after each sample, the
    words a randomized gap's first steps read too.

    Returns (stats, counts): ``stats`` holds (sum, sum of squares, min,
    max) of the chosen hypotheses' risks per grid n, or is None without an
    algorithm; ``counts`` holds, per event, how many replications satisfy
    it at each grid n.
    """
    pop = population_risks(problem)
    chosen = rbars = stats = None
    outcomes = draw_outcomes(problem, cfg.base_seed, start, stop, cfg.n_max)
    origins = _sign_origins(cfg, start, stop)
    if algo is not None:
        chosen, rbars = _step_block(problem, algo, outcomes, origins, cfg.grid)
        stats = [(float(v.sum()), float((v * v).sum()), float(v.min()), float(v.max())) for v in pop[chosen]]
    counts = []
    for event in events:
        if isinstance(event, ExcessBoundEvent):
            counts.append(_excess_counts(problem, cfg, pop, chosen, rbars))
        elif isinstance(event, PairwiseBernsteinEvent):
            counts.append(_pairwise_counts(problem, event, cfg, pop, outcomes))
        else:
            counts.append(_estimator_counts(problem, event, cfg, outcomes, origins, exact_sups))
    return stats, counts


def _excess_counts(problem: LearningProblem, cfg: McConfig, pop: np.ndarray, chosen, rbars) -> list[int]:
    """Replications within the excess-risk bound at each grid n; ``rbars``
    is the stepper's R-bar readback.

    The bound is 12 R-bar + 3 r_n + 2/n with R-bar >= 0, and rounding is
    monotone, so in floats too it is at least its value at R-bar = 0.  A
    replication within that floor is counted without its R-bar, and only
    the others read theirs, as ``_rademacher_gate`` settles the gate.
    """
    star = optimal_risk(problem)[0]
    counts = []
    for n, picked in zip(cfg.grid, chosen):
        excess = pop[picked] - star
        above = np.flatnonzero(excess > excess_risk_bound(n, 0.0))
        within = len(excess) - len(above)
        if above.size:
            rbar = rbars(np.array([n]), above)[0]
            within += np.count_nonzero(excess[above] <= excess_risk_bound(n, rbar))
        counts.append(int(within))
    return counts


def _estimator_counts(problem: LearningProblem, event: EstimatorDeviationEvent, cfg: McConfig, outcomes: np.ndarray, origins, exact_sups: dict[int, float]) -> list[int]:
    # each replication reads its grid sizes' signs in ascending n, one after another
    grid = np.asarray(cfg.grid)
    sups = _sign_sups(problem.loss.as_array(), outcomes, origins, grid, np.cumsum(grid) - grid)
    counts = []
    for n, sup in zip(cfg.grid, sups.T):
        radius = deviation_radius(n, event.delta)
        counts.append(int(np.count_nonzero(np.abs(sup - exact_sups[n]) <= radius)))
    return counts


def _pairwise_counts(problem: LearningProblem, event: PairwiseBernsteinEvent, cfg: McConfig, pop: np.ndarray, outcomes: np.ndarray) -> list[int]:
    m = problem.loss.outcome_count
    L = problem.loss.as_array()
    counts = np.zeros((len(outcomes), m), dtype=np.int64)
    prev = 0
    counts_out = []
    for n in cfg.grid:
        seg = outcomes[:, prev:n]
        for j in range(m):
            counts[:, j] += np.count_nonzero(seg == j, axis=1)
        prev = n
        counts_out.append(int(np.count_nonzero(_pairwise_covered(counts, n, L, pop, event.delta))))
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

    Each replication r reads the stream of (base_seed, r) for one sample
    of length n_max, and runs the loop once; the prefix trajectory yields
    every grid n.  The result is bit-identical for any worker count.
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

