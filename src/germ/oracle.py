"""Exact-expectation engine for small discrete problems.

For a finite outcome space the expected risk of a deterministic learner at
every step n <= n_max is an exact finite sum over outcome sequences.  The
oracle walks the sequences forward one depth at a time and merges prefixes
that reach the same state (loss sums, incumbent, and for the Bernstein gap,
whose gate reads them, the outcome counts), since their futures are
identical; each state carries the total probability of its prefixes, and
one sort of the states' key bytes merges a depth.  A depth is stepped as
one one-step block through ``algorithm._gate_block``, the pruned gate that
the stepper of ``run_germ`` and the Monte Carlo engine calls per block of
steps, with the states in the stepper's row layout.  So every gate
decision matches ``run_germ`` on every sequence, and each curve value is
the sequence average up to the rounding of the merged weight sums.  One
walk yields the whole curve.

The exact pairwise-coverage sum runs over outcome-count vectors instead
(``problem.multinomial_sum``), in blocks, with NumPy, through the
event that the Monte Carlo engine counts (``analysis._pairwise_covered``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .algorithm import AlgorithmSpec, GermAlgorithm, PlainErm, algo_label
from .algorithm import _gate, _gate_block
from .analysis import _pairwise_covered
from .errors import ResourceLimitError
from .problem import (
    ENUMERATION_BUDGET,
    DiscreteDistribution,
    LearningProblem,
    LossTable,
    multinomial_sum,
    population_risk,
    population_risks,
)

CURVE_COLUMNS = ("n", "value", "stderr", "kind", "problem", "algo", "seed")

EXACT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RiskCurve:
    """Expected risk per sample size, exact or Monte Carlo."""

    ns: tuple[int, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...] | None
    kind: str
    problem: str
    algo: str
    seed: int | None = None
    replications: int | None = None
    # single-replication standard errors are reported as 0 and flagged
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "mc"):
            raise ValueError(f"kind must be 'exact' or 'mc', got {self.kind!r}")
        if not self.ns:
            raise ValueError("a curve needs at least one point")
        if len(self.values) != len(self.ns):
            raise ValueError("values and ns lengths differ")
        if any(b <= a for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError("sample sizes must be strictly increasing")
        if any(n < 0 for n in self.ns):
            raise ValueError("sample sizes must be nonnegative")
        for v in self.values:
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"expected risk {v!r} outside [0, 1]")
        if (self.stderrs is not None) != (self.kind == "mc"):
            raise ValueError("standard errors are present exactly for Monte Carlo curves")
        if self.stderrs is not None:
            if len(self.stderrs) != len(self.ns):
                raise ValueError("stderrs and ns lengths differ")
            if not all(0.0 <= s < math.inf for s in self.stderrs):
                raise ValueError("standard errors must be finite and nonnegative")
        if self.kind == "mc" and self.seed is None:
            raise ValueError("Monte Carlo curves record their seed")
        if not self.problem or not self.algo:
            raise ValueError("problem and algo labels must be nonempty")


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of a risk-curve monotonicity check.

    ``max_increase`` is the largest consecutive increase anywhere on the
    curve (0 if the curve never rises), whether or not it clears the
    tolerance; ``violations`` lists only the steps that do.
    """

    verdict: str
    violations: tuple[tuple[int, float], ...]
    max_increase: float
    tolerance: float | str

    def __post_init__(self) -> None:
        if self.verdict not in ("monotone", "violated"):
            raise ValueError(f"verdict must be 'monotone' or 'violated', got {self.verdict!r}")
        if (self.verdict == "violated") != bool(self.violations):
            raise ValueError("verdict must be 'violated' exactly when violations exist")


def check_monotone(curve: RiskCurve, tolerance: float | None = None) -> MonotonicityReport:
    """Flag every step where the curve rises by more than the tolerance.

    With no explicit tolerance, exact curves use EXACT_TOLERANCE and Monte
    Carlo curves use three pooled standard errors per step.
    """
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    diffs = [b - a for a, b in zip(curve.values, curve.values[1:])]
    if tolerance is not None:
        tols = [tolerance] * len(diffs)
        used: float | str = tolerance
    elif curve.kind == "exact":
        tols = [EXACT_TOLERANCE] * len(diffs)
        used = EXACT_TOLERANCE
    else:
        tols = [
            3.0 * math.sqrt(a * a + b * b)
            for a, b in zip(curve.stderrs, curve.stderrs[1:])
        ]
        used = "3*pooled-se"
    violations = tuple(
        (curve.ns[i + 1], diff)
        for i, (diff, tol) in enumerate(zip(diffs, tols))
        if diff > tol
    )
    max_increase = max(0.0, max(diffs, default=0.0))
    verdict = "violated" if violations else "monotone"
    return MonotonicityReport(
        verdict=verdict,
        violations=violations,
        max_increase=max_increase,
        tolerance=used,
    )


def _merge_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a nonempty int64 ``key`` in ascending
    lexicographic order, and the index of each row of ``key`` among them.

    This is ``np.unique(key, axis=0, return_inverse=True)``, which orders
    rows the same way, computed with one sort: with each column's sign bit
    flipped and its bytes written big-endian, a row's bytes, read as one
    string, compare as the row compares, so one stable argsort of those
    strings orders the rows.
    """
    raw = (key.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8")
    order = np.argsort(raw.view(np.dtype((np.void, raw.itemsize * raw.shape[1])))[:, 0], kind="stable")
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.any(key[1:] != key[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(key), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return key[first], inverse


def _state_walk(problem: LearningProblem, algo: AlgorithmSpec, n_max: int) -> list[float]:
    """Expected population risk of the chosen hypothesis at each depth 1..n_max.

    Layer k holds one row per state that length-k prefixes reach, in the
    stepper's row layout, which ``algorithm._gate`` picks: the
    per-hypothesis loss sums, then, for the Bernstein gap alone, whose
    settle reads them, the outcome counts.  Beside each row lie its chosen
    hypothesis and the total probability of those prefixes.  The children,
    one per state and possible outcome, take one step as a one-step block
    of ``algorithm._gate_block``, the gate of ``run_germ`` and the Monte
    Carlo engine, plain ERM included, so each choice is the stepper's on
    every path through the parent, and states that cannot switch skip the
    gate kernels as Monte Carlo rows do.  States merge on the bits of
    their row and their chosen hypothesis, all that the gate reads: sums
    are keyed bit for bit because ERM breaks ties on them.  One sort of
    the keys' bytes merges a layer (``_merge_rows``), so a layer's states
    lie in the ascending order of their keys read as int64 columns, the
    order ``np.unique(axis=0)`` gives, which sets the order in which
    ``np.bincount`` adds their weights.
    """
    probs = problem.distribution.as_array()
    pop = population_risks(problem)
    gate = _gate(algo, problem.loss.as_array(), n_max)
    # a zero-probability outcome adds no weight to any depth
    outcomes = np.flatnonzero(probs > 0.0)
    sums = np.zeros((1, gate.rows.shape[1]))
    chosen = np.full(1, gate.initial)
    weights = np.ones(1)
    values = [0.0] * (n_max + 1)
    for k in range(1, n_max + 1):
        # child j * N + i is state i followed by outcome outcomes[j]
        parents = np.concatenate([sums] * len(outcomes))
        S = (parents + gate.rows[outcomes].repeat(len(sums), axis=0))[np.newaxis]
        chosen = _gate_block(S, parents, np.array([[k]]), np.concatenate([chosen] * len(outcomes)), [0], gate)[0]
        layer, merged = _merge_rows(np.column_stack([S[0].view(np.int64), chosen]))
        sums, chosen = layer[:, :-1].view(np.float64), layer[:, -1]
        weights = np.bincount(merged, weights=(probs[outcomes, np.newaxis] * weights).ravel())
        values[k] = math.fsum((weights * pop[chosen]).tolist())
    return values


def exact_risk_curve(
    problem: LearningProblem,
    algo: AlgorithmSpec,
    n_max: int,
    *,
    workers: int = 1,
) -> RiskCurve:
    """Exact expected-risk curve, averaged over every outcome sequence.

    Parameters
    ----------
    problem:
        Finite problem; with m the count of outcomes of nonzero
        probability, m**n_max must lie within the enumeration budget.
    algo:
        ``PlainErm`` or a deterministic ``GermAlgorithm`` (the
        EmpiricalMcDiarmid gap mode is rejected: its random signs would
        add a 2**k factor per step).
    n_max:
        Largest sample size on the curve.
    workers:
        Accepted, and checked to be at least 1, so that callers pass one
        worker count to either engine; the state walk runs in the calling
        process and its result does not depend on it.

    Returns
    -------
    RiskCurve
        Each value equals the average over sequences to within rounding:
        merged states add path weights in another order.  For the gated
        loop the curve starts at n = 0 with the population risk of the
        initial hypothesis, so the first comparison of a monotonicity
        check covers the step into n = 1.  The plain ERM curve starts at
        n = 1.
    """
    # the walk expands only outcomes of nonzero probability
    m = int(np.count_nonzero(problem.distribution.as_array() > 0.0))
    # for m >= 2 the power passes the budget within the budget's bit length of
    # steps, and for m = 1 it never does, so a capped exponent decides the check
    if m ** min(n_max, ENUMERATION_BUDGET.bit_length()) > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"enumerating {m}^{n_max} sequences of possible outcomes exceeds the budget of {ENUMERATION_BUDGET}"
        )
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    totals = _state_walk(problem, algo, n_max)
    if isinstance(algo, GermAlgorithm):
        ns = tuple(range(0, n_max + 1))
        initial_value = population_risk(problem, algo.initial_index)
        values = (initial_value, *totals[1:])
    else:
        ns = tuple(range(1, n_max + 1))
        values = tuple(totals[1:])
    return RiskCurve(
        ns=ns,
        values=values,
        stderrs=None,
        kind="exact",
        problem=problem.name,
        algo=algo_label(algo),
        seed=None,
    )


def find_erm_nonmonotone(
    m: int,
    class_size: int,
    n_probe: int,
    search_budget: int,
    rng: np.random.Generator,
) -> LearningProblem | None:
    """Search random quantized problems for an ERM risk-curve increase.

    Losses and outcome probabilities are drawn on a 0.05 grid, which keeps
    found witnesses reproducible and away from floating-point knife edges.
    Returns the first problem whose exact plain-ERM curve up to n_probe
    rises by more than 1e-9, or None when the budget is exhausted.
    """
    if m < 1 or class_size < 1:
        raise ValueError("need at least one outcome and one hypothesis")
    if n_probe < 2:
        raise ValueError(f"a monotonicity probe needs n_probe >= 2, got {n_probe}")
    if search_budget < 0:
        raise ValueError(f"search budget must be nonnegative, got {search_budget}")
    for trial in range(search_budget):
        counts = rng.multinomial(20, np.full(m, 1.0 / m))
        entries = rng.integers(0, 21, size=(class_size, m))
        probs = tuple(float(c) / 20.0 for c in counts)
        rows = tuple(tuple(float(v) / 20.0 for v in row) for row in entries)
        problem = LearningProblem(
            name=f"erm-witness-candidate-{trial}",
            distribution=DiscreteDistribution(probs=probs),
            loss=LossTable(rows=rows),
        )
        curve = exact_risk_curve(problem, PlainErm(), n_probe)
        if check_monotone(curve, tolerance=1e-9).verdict == "violated":
            return problem
    return None


def pairwise_bernstein_coverage(problem: LearningProblem, n: int, delta: float) -> float:
    """Exact probability that the pairwise Bernstein bounds all hold at n.

    The event is simultaneous over every ordered pair (h, h'): population
    gap at most empirical gap plus the pairwise slack.  Both the empirical
    risks and the slack depend on the sample only through its outcome
    counts, so the expectation reduces to a multinomial sum over count
    vectors (``problem.multinomial_sum``), evaluated a block of vectors at
    a time.  Raises ``ResourceLimitError`` past the count-vector
    budget.
    """
    if n < 2:
        raise ValueError(f"the pairwise slack needs n >= 2, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {delta}")
    L = problem.loss.as_array()
    pop = population_risks(problem)
    # only the covered weights are summed: the others add nothing
    return multinomial_sum(problem.distribution.probs, n, lambda c, w: w[_pairwise_covered(c, n, L, pop, delta)])


def curve_to_csv(curve: RiskCurve) -> str:
    """Serialize a curve to CSV with a fixed column order.

    Floats are written with repr so reading the file back reproduces them
    exactly; exact curves leave stderr and seed empty.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CURVE_COLUMNS)
    for i, n in enumerate(curve.ns):
        stderr = "" if curve.stderrs is None else repr(curve.stderrs[i])
        seed = "" if curve.seed is None else str(curve.seed)
        writer.writerow(
            [str(n), repr(curve.values[i]), stderr, curve.kind, curve.problem, curve.algo, seed]
        )
    return out.getvalue()


def curve_from_csv(text: str) -> RiskCurve:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty curve file") from None
    if tuple(header) != CURVE_COLUMNS:
        raise ValueError(f"unexpected curve columns {header!r}")
    ns: list[int] = []
    values: list[float] = []
    stderrs: list[float] = []
    meta: set[tuple] = set()
    for row in reader:
        if not row:
            continue
        if len(row) != len(CURVE_COLUMNS):
            raise ValueError(f"malformed curve row {row!r}")
        ns.append(int(row[0]))
        values.append(float(row[1]))
        if row[2]:
            stderrs.append(float(row[2]))
        meta.add((row[3], row[4], row[5], row[6]))
    if not ns:
        raise ValueError("curve file has no data rows")
    if len(meta) != 1:
        raise ValueError("curve file mixes kinds, problems, algorithms, or seeds")
    kind, problem, algo, seed = meta.pop()
    if stderrs and len(stderrs) != len(ns):
        raise ValueError("stderr column is partially filled")
    return RiskCurve(
        ns=tuple(ns),
        values=tuple(values),
        stderrs=tuple(stderrs) if stderrs else None,
        kind=kind,
        problem=problem,
        algo=algo,
        seed=int(seed) if seed else None,
    )


def write_curve(curve: RiskCurve, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(curve_to_csv(curve))


def read_curve(path) -> RiskCurve:
    with open(path, "r", encoding="utf-8", newline="") as f:
        return curve_from_csv(f.read())
