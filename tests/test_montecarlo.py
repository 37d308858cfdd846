"""Monte Carlo engine tests.

The central oracle: the vectorized lockstep engine must reproduce, bit for
bit, the scalar per-replication loop built from draw_sample + the scalar
reference loop (tests/scalar_reference.py) on the same derived generators.  Every equality on curve values below is
exact (==), not approximate.
"""

import concurrent.futures
import math
import tracemalloc
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest

import germ.algorithm
import germ.montecarlo
import germ.rademacher
from germ.algorithm import GermAlgorithm, PlainErm, _step_block, _step_bytes, algo_label
from germ.analysis import excess_risk_bound
from germ.errors import ResourceLimitError
from germ.gap import (
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
    UserConstant,
)
from germ.montecarlo import (
    CHUNK,
    STEP_BLOCK,
    CoverageResult,
    DecayFit,
    EstimatorDeviationEvent,
    ExcessBoundEvent,
    McConfig,
    PairwiseBernsteinEvent,
    coverage_to_csv,
    draw_outcomes,
    excess_risk_decay,
    mc_bound_coverage,
    _excess_counts,
    _sign_origins,
    mc_experiment,
    mc_risk_curve,
)
from germ.oracle import RiskCurve, check_monotone, curve_to_csv, exact_risk_curve, pairwise_bernstein_coverage
from germ.problem import (
    DiscreteDistribution,
    LearningProblem,
    LossTable,
    Sample,
    _outcome_index,
    optimal_risk,
    population_risk,
    population_risks,
)
from germ.rademacher import SIGN_BLOCK, _rbars, _sign_blocks, _sign_sups
from germ.rng import philox_stream, read_signs
from germ.scenarios import load_scenario
from scalar_reference import draw_sample, draw_signs, erm, rademacher_sup, scalar_run_germ


def three_outcome_problem() -> LearningProblem:
    return LearningProblem(
        name="three-outcome",
        distribution=DiscreteDistribution((0.5, 0.3, 0.2)),
        loss=LossTable(
            (
                (0.2, 0.4, 0.9),
                (0.1, 0.6, 0.5),
                (0.55, 0.2, 0.3),
            )
        ),
    )


def skewed_two_point() -> LearningProblem:
    return LearningProblem(
        name="skewed-two-point",
        distribution=DiscreteDistribution((0.7, 0.3)),
        loss=LossTable(((0.0, 1.0), (1.0, 0.0))),
    )


def _is_empirical(algo) -> bool:
    return (
        isinstance(algo, GermAlgorithm)
        and isinstance(algo.gap, GapSpec)
        and isinstance(algo.gap.variant, UniformConvergence)
        and isinstance(algo.gap.variant.mode, EmpiricalMcDiarmid)
    )


def scalar_reference_stats(problem, algo, cfg):
    """Per-replication scalar loop, reduced with the same float operations."""
    pop = np.array([population_risk(problem, h) for h in range(problem.class_size)])
    values = {n: np.empty(cfg.replications) for n in cfg.grid}
    for r in range(cfg.replications):
        gen = philox_stream(cfg.base_seed, r)
        sample = draw_sample(problem, cfg.n_max, gen)
        if isinstance(algo, PlainErm):
            for n in cfg.grid:
                values[n][r] = pop[erm(problem.loss, sample.prefix(n))]
        else:
            trajectory = scalar_run_germ(
                problem,
                sample,
                algo.gap,
                initial=algo.initial_index,
                rng=gen if _is_empirical(algo) else None,
            )
            for n in cfg.grid:
                values[n][r] = pop[trajectory.steps[n - 1].chosen_index]
    means = []
    ses = []
    R = cfg.replications
    for n in cfg.grid:
        v = values[n]
        total = float(v.sum())
        mean = total / R
        if R == 1 or float(v.min()) == float(v.max()):
            se = 0.0
        else:
            total_sq = float((v * v).sum())
            var = max(0.0, (total_sq - R * mean * mean) / (R - 1))
            se = math.sqrt(var / R)
        means.append(mean)
        ses.append(se)
    return tuple(means), tuple(ses)


def lockstep(problem, algo, cfg):
    """(chosen, rbars) of all cfg.replications as one chunk at cfg.grid:
    the outcome draw, the stepper, then its R-bar readback of every row."""
    outcomes = draw_outcomes(problem, cfg.base_seed, 0, cfg.replications, cfg.n_max)
    chosen, gate = _step_block(problem, algo, outcomes, _sign_origins(cfg, 0, cfg.replications), cfg.grid)
    return chosen, gate.rbars(np.array(cfg.grid), np.arange(cfg.replications))


def test_lockstep_matches_scalar_loop_bitwise():
    problem = three_outcome_problem()
    cfg = McConfig(replications=64, n_max=30, base_seed=99, grid=(1, 5, 17, 30))
    algos = [
        PlainErm(),
        GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 3), initial_index=2),
        GermAlgorithm(gap=GapSpec(UniformConvergence(MassartDeterministic()), 3), initial_index=1),
        GermAlgorithm(
            gap=GapSpec(UniformConvergence(UserConstant(tuple(0.5 / math.sqrt(k) for k in range(1, 31)))), 3),
        ),
        GermAlgorithm(gap=GapSpec(EmpiricalBernstein(), 3), initial_index=2),
        GermAlgorithm(gap=FixedDelta(0.02), initial_index=1),
    ]
    # every bound-derived gate above is frozen at n_max = 30; on the biased
    # coin the first switch falls at k = 77-158 (Bernstein) and k = 85-197
    # (Massart) across these 64 replications, so this case compares gates
    # that fire
    coin = load_scenario("biased-coin-massart").problem
    coin_cfg = McConfig(replications=64, n_max=200, base_seed=99, grid=(50, 100, 150, 200))
    coin_algos = [
        GermAlgorithm(gap=GapSpec(EmpiricalBernstein(), 2), initial_index=0),
        GermAlgorithm(gap=GapSpec(UniformConvergence(MassartDeterministic()), 2), initial_index=0),
    ]
    cases = [(problem, cfg, algos, False), (coin, coin_cfg, coin_algos, True)]
    for problem, cfg, algos, fires in cases:
        for algo in algos:
            curve = mc_risk_curve(problem, algo, cfg)
            means, ses = scalar_reference_stats(problem, algo, cfg)
            assert curve.values == means, algo_label(algo)
            assert curve.stderrs == ses, algo_label(algo)
            assert curve.ns == cfg.grid
            assert curve.kind == "mc"
            assert curve.replications == 64
            assert not curve.degenerate
            if fires:
                assert curve.values[-1] < population_risk(problem, algo.initial_index), algo_label(algo)


def test_lockstep_rbars_match_scalar_loop_across_sign_blocks():
    # the randomized gate never fires on this scenario (the incumbent stays
    # at h_0 through n = 2000), so the chosen indices cannot show a wrong
    # rbar; this test holds the rbars themselves, and
    # test_randomized_gate_that_fires_matches_scalar_loop a gate that fires
    problem = load_scenario("three-outcome-misspecified").problem
    n_max = 400
    blocks = _sign_blocks(list(range(1, n_max + 1)))
    assert len(blocks) > 2
    # every step is on the grid, so the first and last step of each block are
    cfg = McConfig(replications=12, n_max=n_max, base_seed=2024, grid=tuple(range(1, n_max + 1)))
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), problem.class_size))
    chosen, rbars = lockstep(problem, algo, cfg)
    for r in range(cfg.replications):
        gen = philox_stream(cfg.base_seed, r)
        sample = draw_sample(problem, n_max, gen)
        trajectory = scalar_run_germ(problem, sample, algo.gap, rng=gen)
        for n in cfg.grid:
            step = trajectory.steps[n - 1]
            assert rbars[n - 1][r] == step.rbar, (r, n)
            assert chosen[n - 1][r] == step.chosen_index, (r, n)


def test_outcome_draw_matches_searchsorted():
    # a zero-probability outcome, and a cumsum that ends below 1, where
    # u >= cum[-1] makes searchsorted return m
    for probs in ((0.5, 0.0, 0.5), (0.7, 0.2, 0.1)):
        problem = LearningProblem(
            name="draw",
            distribution=DiscreteDistribution(probs),
            loss=LossTable(((0.0, 0.5, 1.0), (1.0, 0.5, 0.0))),
        )
        cum = np.cumsum(problem.distribution.as_array())
        assert probs[1] == 0.0 or cum[-1] < 1.0
        assert np.array_equal(_outcome_index(cum, edge_words(cum)), searchsorted_outcomes(cum, edge_words(cum))), probs
        cfg = McConfig(replications=20, n_max=300, base_seed=4, grid=(300,))
        outcomes = draw_outcomes(problem, cfg.base_seed, 0, cfg.replications, cfg.n_max)
        for r in range(cfg.replications):
            sample = draw_sample(problem, cfg.n_max, philox_stream(cfg.base_seed, r))
            assert outcomes[r].tolist() == list(sample.outcomes), (probs, r)


def edge_words(cum):
    """64-bit words whose uniforms (word >> 11) * 2**-53 fall on, just
    below and just above each entry of ``cum``, with low bits all 0 and all
    1, plus a spread over [0, 1)."""
    top = 2**53 - 1
    units = {0, top}
    for c in cum.tolist():
        base = math.floor(c * 2.0**53)
        units.update(min(max(base + d, 0), top) for d in (-1, 0, 1, 2))
    units.update(range(0, top, top // 997))
    return np.array([(u << 11) | low for u in sorted(units) for low in (0, 2**11 - 1)], dtype=np.uint64)


def searchsorted_outcomes(cum, words):
    u = (words >> np.uint64(11)) * 2.0**-53
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def test_outcome_index_of_raw_words_skips_entries_at_or_above_one():
    # only cum[:-1] is read; an entry >= 1 (a cumsum that rounds past 1)
    # must count nothing, and ceil(c * 2**53) << 11 would not fit 64 bits
    for cum in ([0.3, 1.0, 1.0], [0.25, np.nextafter(1.0, 2.0), 1.0], [0.5, 0.9999999999999999, 1.0]):
        cum = np.array(cum)
        words = edge_words(cum)
        assert np.array_equal(_outcome_index(cum, words), searchsorted_outcomes(cum, words)), cum


@pytest.mark.parametrize("signs_follow", [False, True])
@pytest.mark.parametrize(
    "start, stop, n_max",
    [
        # 150 replications over blocks of 65 rows, in the first chunk and in
        # the second
        (0, 150, 2000),
        (CHUNK, CHUNK + 150, 2000),
        # a block holds a single row
        (0, 3, STEP_BLOCK // 8),
    ],
)
def test_outcome_draw_crosses_row_blocks(start, stop, n_max, signs_follow):
    rows = max(1, STEP_BLOCK // (8 * n_max))
    assert rows == 1 or (stop - start) % rows != 0
    problem = LearningProblem(
        name="draw",
        distribution=DiscreteDistribution((0.2, 0.0, 0.5, 0.3)),
        loss=LossTable(((0.0, 0.5, 1.0, 0.25), (1.0, 0.5, 0.0, 0.75))),
    )
    cfg = McConfig(replications=stop, n_max=n_max, base_seed=2**64 - 5, grid=(n_max,))
    outcomes = draw_outcomes(problem, cfg.base_seed, start, stop, cfg.n_max)
    assert outcomes.shape == (stop - start, n_max)
    base_seed, streams, half = _sign_origins(cfg, start, stop)
    assert (base_seed, streams.tolist(), half) == (cfg.base_seed, list(range(start, stop)), 2 * n_max)
    signs = read_signs((base_seed, streams, half), [(0, 5), (11, 4)]) if signs_follow else None
    for i, r in enumerate(range(start, stop)):
        gen = philox_stream(cfg.base_seed, r)
        sample = draw_sample(problem, n_max, gen)
        assert outcomes[i].tolist() == list(sample.outcomes), r
        if signs_follow:
            # a row's signs continue its stream where the sample left off
            drawn = draw_signs(gen, 15)
            assert signs[i].tolist() == drawn[:5].tolist() + drawn[11:].tolist(), r


BLOCK_CASES = [
    # (scenario, gap, n_max, replications); the biased-coin gates fire
    ("biased-coin-massart", "bernstein", 200, 16),
    ("biased-coin-massart", "massart", 200, 16),
    # the incumbent follows the ERM, which switches many times within 7 steps
    ("symmetric-coin", "fixed0", 120, 16),
    # ERM ties on the 0.01 grid are decided by the rounding of the sums
    ("three-outcome-misspecified", "fixed0", 120, 16),
    ("three-outcome-misspecified", "randomized", 120, 8),
]


def _block_case_algo(gap: str, H: int) -> GermAlgorithm:
    return GermAlgorithm(
        gap={
            "bernstein": GapSpec(EmpiricalBernstein(), H),
            "massart": GapSpec(UniformConvergence(MassartDeterministic()), H),
            "fixed0": FixedDelta(0.0),
            "randomized": GapSpec(UniformConvergence(EmpiricalMcDiarmid()), H),
        }[gap]
    )


@pytest.mark.parametrize("scenario, gap, n_max, replications", BLOCK_CASES)
def test_lockstep_does_not_depend_on_block_length(monkeypatch, scenario, gap, n_max, replications):
    problem = load_scenario(scenario).problem
    algo = _block_case_algo(gap, problem.class_size)
    # every step is on the grid, so every step of every block is compared
    cfg = McConfig(replications=replications, n_max=n_max, base_seed=31, grid=tuple(range(1, n_max + 1)))
    trajectories = []
    for r in range(replications):
        gen = philox_stream(cfg.base_seed, r)
        sample = draw_sample(problem, n_max, gen)
        trajectories.append(scalar_run_germ(problem, sample, algo.gap, rng=gen if gap == "randomized" else None))
    # the steps at which each replication's incumbent changes
    switches = [
        [s.k for s, before in zip(t.steps, (t.initial_index,) + t.indices()) if s.chosen_index != before]
        for t in trajectories
    ]
    if gap in ("bernstein", "massart"):
        assert all(switches), "every replication's gate fires"
    if scenario == "symmetric-coin":
        assert any(b - a < 7 for ks in switches for a, b in zip(ks, ks[1:])), "two switches less than 7 steps apart"
    runs = []
    # one step per block, 7 steps per block, and the whole horizon in one block
    for steps in (1, 7, n_max):
        monkeypatch.setattr(germ.algorithm, "STEP_BLOCK", steps * replications * _step_bytes(problem.class_size))
        chosen, rbars = lockstep(problem, algo, cfg)
        for r, trajectory in enumerate(trajectories):
            for step in trajectory.steps:
                assert chosen[step.k - 1][r] == step.chosen_index, (steps, r, step.k)
                if gap == "randomized":
                    assert rbars[step.k - 1][r] == step.rbar, (steps, r, step.k)
        runs.append((chosen, rbars))
    for chosen, rbars in runs[1:]:
        assert np.array_equal(chosen, runs[0][0])
        assert (rbars is None) == (runs[0][1] is None)
        assert rbars is None or np.array_equal(rbars, runs[0][1])


def test_randomized_gate_that_fires_matches_scalar_loop(monkeypatch):
    # the randomized settle reads R-bar only in the blocks where the gap at
    # R-bar = 0 fires, each step's signs by their position from the row's
    # origin; here the gate fires, so chosen indices and grid rbars must
    # match the scalar loop, which draws every step's signs in turn
    problem = load_scenario("biased-coin-massart").problem
    algo = _block_case_algo("randomized", problem.class_size)
    cfg = McConfig(replications=8, n_max=600, base_seed=5, grid=(100, 350, 351, 352, 600))
    trajectories = []
    for r in range(cfg.replications):
        gen = philox_stream(cfg.base_seed, r)
        sample = draw_sample(problem, cfg.n_max, gen)
        trajectories.append(scalar_run_germ(problem, sample, algo.gap, rng=gen))
    switches = [[s.k for s in t.steps if s.updated] for t in trajectories]
    assert sum(map(bool, switches)) == 7
    assert all(350 < k < 600 for ks in switches for k in ks)
    # a grid that ends before n_max leaves the last steps' signs unread, and
    # one that holds every step pins the step at which each gate fires
    every = tuple(range(1, cfg.n_max + 1))
    for steps, grid in ((1, cfg.grid), (7, cfg.grid), (cfg.n_max, cfg.grid), (7, cfg.grid[:-1]), (7, every)):
        monkeypatch.setattr(germ.algorithm, "STEP_BLOCK", steps * cfg.replications * _step_bytes(problem.class_size))
        outcomes = draw_outcomes(problem, cfg.base_seed, 0, cfg.replications, cfg.n_max)
        chosen, gate = _step_block(problem, algo, outcomes, _sign_origins(cfg, 0, cfg.replications), grid)
        rbars = gate.rbars(np.array(grid), np.arange(cfg.replications))
        for r, trajectory in enumerate(trajectories):
            for g, n in enumerate(grid):
                assert chosen[g][r] == trajectory.steps[n - 1].chosen_index, (steps, r, n)
                assert rbars[g][r] == trajectory.steps[n - 1].rbar, (steps, r, n)


@pytest.mark.parametrize("cap", [1, 5])
def test_sign_reads_do_not_depend_on_the_block_cap(monkeypatch, cap):
    # a cap of 1 reads one row and one step at a time, and a cap of 5 one
    # row and a few small steps, where the default reads many rows at once
    problem = load_scenario("biased-coin-massart").problem
    algo = _block_case_algo("randomized", problem.class_size)
    cfg = McConfig(replications=8, n_max=600, base_seed=5, grid=(1, 2, 3, 100, 350, 351, 352, 600))
    small = McConfig(replications=40, n_max=12, base_seed=17, grid=(2, 3, 8, 12))
    event = EstimatorDeviationEvent(delta=0.25)
    want = lockstep(problem, algo, cfg), mc_bound_coverage(three_outcome_problem(), event, small)
    reads = []
    read = germ.rademacher.read_signs

    def recorded(origins, spans):
        reads.append((len(origins[1]), len(spans), sum(count for _, count in spans)))
        return read(origins, spans)

    monkeypatch.setattr(germ.rademacher, "SIGN_BLOCK", cap)
    monkeypatch.setattr(germ.rademacher, "read_signs", recorded)
    (chosen, rbars), coverage = lockstep(problem, algo, cfg), mc_bound_coverage(three_outcome_problem(), event, small)
    assert np.array_equal(chosen, want[0][0])
    assert np.array_equal(rbars, want[0][1])
    assert coverage == want[1]
    # the gate fires, so the settle read whole blocks as well as the grid
    assert max(signs for _, _, signs in reads) >= 350
    # one row per read, and one step or at most ``cap`` signs
    assert all(rows == 1 for rows, _, _ in reads)
    assert all(steps == 1 or signs <= cap for _, steps, signs in reads)
    assert any(steps > 1 for _, steps, _ in reads) == (cap > 1)


def test_sign_reads_of_a_full_chunk_stay_within_the_cap(monkeypatch):
    # one chunk of 4096 rows at n_max = 2000: its grid signs alone would
    # take 4096 x 3500 bytes as int8, and more as the counts' indices
    problem = load_scenario("three-outcome-misspecified").problem
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), problem.class_size))
    cfg = McConfig(replications=CHUNK, n_max=2000, base_seed=8, grid=(500, 1000, 2000))
    outcomes = draw_outcomes(problem, cfg.base_seed, 0, CHUNK, cfg.n_max)
    origins = _sign_origins(cfg, 0, CHUNK)
    # the most signs one read held, and the rows read; kept in place, so
    # that recording allocates nothing per read
    seen = np.zeros(2, dtype=np.int64)
    read = germ.rademacher.read_signs

    def recorded(origins, spans):
        signs = read(origins, spans)
        seen[0] = max(seen[0], signs.size)
        seen[1] += len(signs)
        return signs

    monkeypatch.setattr(germ.rademacher, "read_signs", recorded)
    grid = np.array(cfg.grid)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rbars = _rbars(problem.loss.as_array(), outcomes, origins, grid, grid * (grid - 1) // 2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < seen[0] <= SIGN_BLOCK
    assert seen[1] == CHUNK * len(_sign_blocks(cfg.grid))
    # a read's temporaries take a few dozen bytes per sign
    assert peak <= rbars.nbytes + 48 * SIGN_BLOCK, peak
    # the stepper reads the same way, wherever its settle reads and at the
    # grid through its readback
    seen[:] = 0
    chosen, gate = _step_block(problem, algo, outcomes, origins, cfg.grid)
    assert np.array_equal(gate.rbars(grid, np.arange(CHUNK)), rbars.T)
    assert 0 < seen[0] <= SIGN_BLOCK


def test_randomized_experiment_builds_no_generator_and_draws_outcomes_once(monkeypatch):
    # every replication's sample and signs are read by position in its
    # stream: no Generator, one outcome draw per chunk
    problem = three_outcome_problem()
    cfg = McConfig(replications=CHUNK + 40, n_max=12, base_seed=17, grid=(3, 8, 12))
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 3), initial_index=2)
    events = (PairwiseBernsteinEvent(delta=0.2), EstimatorDeviationEvent(delta=0.25), ExcessBoundEvent(algo))
    lone = tuple(mc_bound_coverage(problem, event, cfg) for event in events)
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.random, "Generator", counted("Generator", np.random.Generator))
    monkeypatch.setattr(germ.montecarlo, "read_words", counted("read_words", germ.montecarlo.read_words))
    curve, coverages = mc_experiment(problem, algo, cfg, events)
    assert calls == {"read_words": 2}
    assert coverages == lone
    assert curve == mc_risk_curve(problem, algo, cfg)


def test_sign_blocks_respect_the_cap():
    ks = list(range(1, 300)) + [SIGN_BLOCK + 5, 7]
    blocks = _sign_blocks(ks)
    assert blocks[0][0] == 0 and blocks[-1][1] == len(ks)
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    for start, stop in blocks:
        assert stop - start == 1 or sum(ks[start:stop]) <= SIGN_BLOCK
    assert (ks.index(SIGN_BLOCK + 5), ks.index(SIGN_BLOCK + 5) + 1) in blocks


def test_lockstep_gate_actually_fires_and_varies():
    problem = skewed_two_point()
    cfg = McConfig(replications=256, n_max=60, base_seed=3, grid=(3, 60))
    curve = mc_risk_curve(problem, GermAlgorithm(gap=FixedDelta(0.05), initial_index=1), cfg)
    assert curve.values[0] > curve.values[-1]
    assert curve.values[-1] == pytest.approx(0.3, abs=0.05)
    assert curve.stderrs[0] > 0.0


def test_single_hypothesis_stderr_is_exactly_zero():
    problem = LearningProblem(
        name="lonely",
        distribution=DiscreteDistribution((0.4, 0.6)),
        loss=LossTable(((0.25, 0.75),)),
    )
    cfg = McConfig(replications=100, n_max=10, base_seed=1, grid=(1, 10))
    curve = mc_risk_curve(problem, PlainErm(), cfg)
    expected = population_risk(problem, 0)
    for value in curve.values:
        assert value == pytest.approx(expected, rel=1e-14)
    assert curve.stderrs == (0.0, 0.0)
    assert not curve.degenerate


def test_single_replication_is_degenerate():
    cfg = McConfig(replications=1, n_max=5, base_seed=2, grid=(5,))
    curve = mc_risk_curve(skewed_two_point(), PlainErm(), cfg)
    assert curve.stderrs == (0.0,)
    assert curve.degenerate
    assert curve.replications == 1


def test_same_seed_reproduces_csv_bytes():
    problem = skewed_two_point()
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(MassartDeterministic()), 2))
    cfg = McConfig(replications=128, n_max=20, base_seed=42, grid=(5, 20))
    first = curve_to_csv(mc_risk_curve(problem, algo, cfg))
    second = curve_to_csv(mc_risk_curve(problem, algo, cfg))
    assert first == second
    other = mc_risk_curve(problem, PlainErm(), McConfig(replications=128, n_max=20, base_seed=43, grid=(5, 20)))
    baseline = mc_risk_curve(problem, PlainErm(), cfg)
    assert other.values != baseline.values


def test_worker_count_does_not_change_results():
    problem = skewed_two_point()
    cfg = McConfig(replications=2 * CHUNK + 700, n_max=25, base_seed=8, grid=(5, 25))
    for algo in (PlainErm(), GermAlgorithm(gap=GapSpec(UniformConvergence(MassartDeterministic()), 2))):
        serial = mc_risk_curve(problem, algo, cfg, workers=1)
        parallel = mc_risk_curve(problem, algo, cfg, workers=3)
        assert serial.values == parallel.values
        assert serial.stderrs == parallel.stderrs
        assert curve_to_csv(serial) == curve_to_csv(parallel)


def test_coverage_worker_invariance():
    problem = skewed_two_point()
    cfg = McConfig(replications=CHUNK + 300, n_max=30, base_seed=21, grid=(10, 30))
    event = PairwiseBernsteinEvent(delta=0.2)
    serial = mc_bound_coverage(problem, event, cfg, workers=1)
    parallel = mc_bound_coverage(problem, event, cfg, workers=3)
    assert serial.coverages == parallel.coverages
    assert coverage_to_csv(serial) == coverage_to_csv(parallel)


def test_mc_curve_agrees_with_exact_enumeration():
    problem = skewed_two_point()
    cfg = McConfig(replications=4000, n_max=8, base_seed=12, grid=tuple(range(1, 9)))
    for algo in (PlainErm(), GermAlgorithm(gap=FixedDelta(0.05), initial_index=1)):
        exact = exact_risk_curve(problem, algo, 8)
        exact_by_n = dict(zip(exact.ns, exact.values))
        mc = mc_risk_curve(problem, algo, cfg)
        for n, value, se in zip(mc.ns, mc.values, mc.stderrs):
            assert value == pytest.approx(exact_by_n[n], abs=max(4.0 * se, 1e-9))


def test_mc_curve_is_monotone_for_conservative_gap():
    problem = skewed_two_point()
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(MassartDeterministic()), 2), initial_index=1)
    cfg = McConfig(replications=3000, n_max=120, base_seed=5, grid=(5, 15, 40, 80, 120))
    report = check_monotone(mc_risk_curve(problem, algo, cfg))
    assert report.verdict == "monotone"
    assert report.tolerance == "3*pooled-se"


def test_excess_bound_event_holds_at_small_n():
    # at n <= 200 the bound exceeds 1 while excess risk is at most 1, so
    # coverage must be identically 1.0
    problem = skewed_two_point()
    cfg = McConfig(replications=500, n_max=100, base_seed=31, grid=(10, 100))
    for mode in (EmpiricalMcDiarmid(), MassartDeterministic()):
        algo = GermAlgorithm(gap=GapSpec(UniformConvergence(mode), 2), initial_index=1)
        result = mc_bound_coverage(problem, ExcessBoundEvent(algo), cfg)
        assert result.event == "excess-bound"
        assert result.floors == (1.0 - 2.0 / 10, 1.0 - 2.0 / 100)
        assert result.coverages == (1.0, 1.0)
        assert result.algo == algo_label(algo)


def test_excess_bound_event_validation():
    algo_bernstein = GermAlgorithm(gap=GapSpec(EmpiricalBernstein(), 2))
    with pytest.raises(ValueError):
        ExcessBoundEvent(algo_bernstein)
    with pytest.raises(ValueError):
        ExcessBoundEvent(GermAlgorithm(gap=FixedDelta(0.1)))
    with pytest.raises(ValueError):
        ExcessBoundEvent(PlainErm())


def _spy_rbars(monkeypatch):
    """Record (replications, steps) of every ``_rbars`` call the stepper's
    readback makes, in call order."""
    calls = []
    real = germ.algorithm._rbars

    def recorded(loss_array, outcomes, origins, ks, offsets):
        calls.append((origins[1].tolist(), np.asarray(ks).tolist()))
        return real(loss_array, outcomes, origins, ks, offsets)

    monkeypatch.setattr(germ.algorithm, "_rbars", recorded)
    return calls


def test_excess_bound_settles_at_the_floor(monkeypatch):
    # from n = 250 on, the bound at R-bar = 0 falls below h_0's excess of
    # 0.7 on the biased coin, and the gate moves some replications to h_1
    # by n = 500: a row within that floor is counted without its R-bar, the
    # others read theirs
    problem = load_scenario("biased-coin-massart").problem
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 2))
    cfg = McConfig(replications=64, n_max=700, base_seed=7, grid=(100, 250, 500, 700))
    chosen, rbars = lockstep(problem, algo, cfg)
    excess = population_risks(problem)[chosen] - optimal_risk(problem)[0]
    # the reference reads every row's R-bar
    want = [int(np.count_nonzero(e <= excess_risk_bound(n, r))) for n, e, r in zip(cfg.grid, excess, rbars)]
    above = [np.flatnonzero(e > excess_risk_bound(n, 0.0)).tolist() for n, e in zip(cfg.grid, excess)]
    assert [len(rows) for rows in above] == [0, 64, 45, 1]
    calls = _spy_rbars(monkeypatch)
    mc_risk_curve(problem, algo, cfg)
    stepper = list(calls)
    calls.clear()
    result = mc_bound_coverage(problem, ExcessBoundEvent(algo), cfg)
    assert [round(c * cfg.replications) for c in result.coverages] == want
    # the same stepper reads, then one read per grid n of the rows above the floor
    assert calls[: len(stepper)] == stepper
    assert calls[len(stepper) :] == [(rows, [n]) for n, rows in zip(cfg.grid, above) if rows]


def test_excess_counts_read_only_rows_above_the_floor():
    # R-bars small enough that some rows above the floor fall outside the
    # bound, and zeros among them, which sit exactly on the floor
    problem = load_scenario("biased-coin-massart").problem
    pop = population_risks(problem)
    cfg = McConfig(replications=200, n_max=700, base_seed=0, grid=(100, 250, 500, 700))
    rng = np.random.default_rng(3)
    chosen = rng.integers(0, 2, size=(4, 200))
    table = rng.uniform(0.0, 0.04, size=(4, 200))
    table[:, ::7] = 0.0
    reads = []

    def readback(steps, rows):
        reads.append((steps.tolist(), rows.tolist()))
        return table[np.searchsorted(cfg.grid, steps)][:, rows]

    counts = _excess_counts(problem, cfg, pop, chosen, readback)
    excess = pop[chosen] - optimal_risk(problem)[0]
    assert counts == [int(np.count_nonzero(e <= excess_risk_bound(n, r))) for n, e, r in zip(cfg.grid, excess, table)]
    assert 0 < counts[2] - np.count_nonzero(chosen[2] == 1) < np.count_nonzero(chosen[2] == 0)
    assert reads == [([n], np.flatnonzero(c == 0).tolist()) for n, c in zip(cfg.grid[1:], chosen[1:])]


def test_randomized_runs_within_the_floor_read_no_rbar(monkeypatch):
    # on three-outcome-misspecified to n = 200 no gate fires at R-bar = 0 and
    # every replication stays within the floor, so neither the curve nor
    # the excess-bound event reads an R-bar
    problem = load_scenario("three-outcome-misspecified").problem
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 3))
    cfg = McConfig(replications=128, n_max=200, base_seed=3, grid=(10, 20, 50, 100, 200))
    calls = _spy_rbars(monkeypatch)
    curve = mc_risk_curve(problem, algo, cfg)
    _, (coverage,) = mc_experiment(problem, algo, cfg, (ExcessBoundEvent(algo),))
    assert calls == []
    # every replication stays at h_0
    assert curve.stderrs == (0.0,) * 5
    assert coverage.coverages == (1.0,) * 5


def test_randomized_settle_reads_only_rows_whose_lower_rbar_clears(monkeypatch):
    # whatever the signs, R-bar >= max(0, r_k - min_h S_h / k), so a row
    # whose lag does not clear the gap at that R-bar reads none.  On the
    # biased coin no replication switches before step 330, yet all 64
    # clear the gap at R-bar = 0 within the first block (steps 1-170); 19
    # clear it at the lower R-bar.  The choices and the grid R-bars are
    # those of the settle without the lower R-bar, which reads all 64
    problem = load_scenario("biased-coin-massart").problem
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 2))
    cfg = McConfig(replications=64, n_max=700, base_seed=7, grid=(100, 250, 500, 700))
    calls = _spy_rbars(monkeypatch)
    chosen, rbars = lockstep(problem, algo, cfg)
    lower = list(calls)
    calls.clear()
    settle = germ.algorithm._rademacher_gate

    def without_the_lower_rbar(*args, radius, **kwargs):
        settle(*args, radius=np.full_like(radius, -np.inf), **kwargs)

    monkeypatch.setattr(germ.algorithm, "_rademacher_gate", without_the_lower_rbar)
    want_chosen, want_rbars = lockstep(problem, algo, cfg)
    assert np.array_equal(chosen, want_chosen) and np.array_equal(rbars, want_rbars)
    assert [len(rows) for rows, _ in (lower[0], calls[0])] == [19, 64]
    assert lower[0][1] == calls[0][1] == list(range(1, 171))
    assert sum(len(rows) for rows, _ in lower) < sum(len(rows) for rows, _ in calls)


def test_estimator_deviation_matches_scalar_supremum():
    problem = three_outcome_problem()
    cfg = McConfig(replications=300, n_max=6, base_seed=77, grid=(2, 4, 6))
    event = EstimatorDeviationEvent(delta=0.25)
    result = mc_bound_coverage(problem, event, cfg)
    assert result.event == "estimator-deviation"
    assert result.floors == (0.75, 0.75, 0.75)
    assert result.algo is None

    from germ.rademacher import exact_rademacher

    # the chunk's own suprema, compared entry by entry with the scalar replay
    outcomes = draw_outcomes(problem, cfg.base_seed, 0, cfg.replications, cfg.n_max)
    grid = np.array(cfg.grid)
    sups = _sign_sups(problem.loss.as_array(), outcomes, _sign_origins(cfg, 0, cfg.replications), grid, np.cumsum(grid) - grid)
    exact = {n: exact_rademacher(problem, n) for n in cfg.grid}
    hits = {n: 0 for n in cfg.grid}
    for r in range(cfg.replications):
        gen = philox_stream(cfg.base_seed, r)
        sample = draw_sample(problem, cfg.n_max, gen)
        for i, n in enumerate(cfg.grid):
            signs = draw_signs(gen, n)
            sup = rademacher_sup(problem.loss, sample.prefix(n), signs)
            assert sups[r, i] == sup, (r, n)
            radius = math.sqrt(2.0 * math.log(2.0 / event.delta) / n)
            if abs(sup - exact[n]) <= radius:
                hits[n] += 1
    expected = tuple(hits[n] / cfg.replications for n in cfg.grid)
    assert result.coverages == expected
    for c, floor in zip(result.coverages, result.floors):
        assert c >= floor - 3.0 * math.sqrt(floor * (1 - floor) / cfg.replications)


def test_estimator_deviation_accepts_delta_one():
    problem = skewed_two_point()
    cfg = McConfig(replications=50, n_max=4, base_seed=9, grid=(2, 4))
    result = mc_bound_coverage(problem, EstimatorDeviationEvent(delta=1.0), cfg)
    assert result.floors == (0.0, 0.0)
    assert all(0.0 <= c <= 1.0 for c in result.coverages)


def test_estimator_deviation_respects_enumeration_budget():
    problem = skewed_two_point()
    # n = 390 is the first two-outcome n past 10^7 signed count vectors
    cfg = McConfig(replications=10, n_max=390, base_seed=9, grid=(390,))
    with pytest.raises(ResourceLimitError):
        mc_bound_coverage(problem, EstimatorDeviationEvent(delta=0.5), cfg)


def test_pairwise_event_matches_enumeration_oracle():
    problem = skewed_two_point()
    delta = 0.3
    cfg = McConfig(replications=6000, n_max=10, base_seed=55, grid=(4, 10))
    result = mc_bound_coverage(problem, PairwiseBernsteinEvent(delta=delta), cfg)
    assert result.event == "pairwise-bernstein"
    assert result.floors == (0.7, 0.7)
    for n, coverage in zip(result.ns, result.coverages):
        exact = pairwise_bernstein_coverage(problem, n, delta)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / cfg.replications)
        assert coverage == pytest.approx(exact, abs=max(4.0 * se, 1e-3))
        assert coverage >= 1.0 - delta


def test_pairwise_coverage_runs_no_stepper(monkeypatch):
    problem = three_outcome_problem()
    cfg = McConfig(replications=200, n_max=30, base_seed=3, grid=(5, 30))
    event = PairwiseBernsteinEvent(delta=0.2)
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 3))
    # read from the outcomes a randomized learner was stepped on
    _, (stepped,) = mc_experiment(problem, algo, cfg, (event,))

    def no_step(*args, **kwargs):
        raise AssertionError("a pairwise-only coverage stepped a learner")

    monkeypatch.setattr(germ.montecarlo, "_step_block", no_step)
    assert mc_bound_coverage(problem, event, cfg) == stepped


def test_experiment_equals_separate_calls():
    # the estimator-deviation event draws its own signs after each sample,
    # which the randomized learner's signs must not disturb
    problem = three_outcome_problem()
    cfg = McConfig(replications=150, n_max=12, base_seed=17, grid=(3, 8, 12))
    algo = GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 3), initial_index=2)
    events = (EstimatorDeviationEvent(0.3), ExcessBoundEvent(algo), PairwiseBernsteinEvent(0.3))
    curve, coverages = mc_experiment(problem, algo, cfg, events)
    assert curve == mc_risk_curve(problem, algo, cfg)
    assert coverages == tuple(mc_bound_coverage(problem, event, cfg) for event in events)
    assert mc_experiment(problem, None, cfg, events[::2]) == (None, coverages[::2])


def test_experiment_excess_event_runs_the_experiment_algorithm():
    problem = skewed_two_point()
    cfg = McConfig(replications=10, n_max=6, base_seed=1, grid=(6,))
    massart = GermAlgorithm(gap=GapSpec(UniformConvergence(MassartDeterministic()), 2))
    event = ExcessBoundEvent(GermAlgorithm(gap=massart.gap, initial_index=1))
    for algo in (massart, None):
        with pytest.raises(ValueError, match="experiment's algorithm"):
            mc_experiment(problem, algo, cfg, (event,))


def test_no_more_processes_than_chunks(monkeypatch):
    started = []

    class InlinePool:
        """Records its process count and runs each task at once."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # the pool is imported from concurrent.futures where it is first needed
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(germ.montecarlo, "CHUNK", 10)
    problem = skewed_two_point()
    # 25 replications in chunks of 10: three chunks
    cfg = McConfig(replications=25, n_max=8, base_seed=1, grid=(4, 8))
    serial = mc_risk_curve(problem, PlainErm(), cfg)
    assert started == []
    for workers, processes in ((8, 3), (3, 3), (2, 2)):
        assert mc_risk_curve(problem, PlainErm(), cfg, workers=workers) == serial
        assert started[-1] == processes
    # a single chunk runs in the calling process
    one = McConfig(replications=10, n_max=8, base_seed=1, grid=(4, 8))
    mc_risk_curve(problem, PlainErm(), one, workers=8)
    assert len(started) == 3


def test_pairwise_event_needs_n_at_least_two():
    cfg = McConfig(replications=10, n_max=5, base_seed=1, grid=(1, 5))
    with pytest.raises(ValueError, match="grid n >= 2"):
        mc_bound_coverage(skewed_two_point(), PairwiseBernsteinEvent(delta=0.5), cfg)


def test_event_delta_validation():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            EstimatorDeviationEvent(delta=bad)
    for bad in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            PairwiseBernsteinEvent(delta=bad)


def test_mcconfig_validation():
    with pytest.raises(ValueError, match="replication"):
        McConfig(replications=0, n_max=5, base_seed=0, grid=(1,))
    with pytest.raises(ValueError, match="horizon"):
        McConfig(replications=1, n_max=0, base_seed=0, grid=(1,))
    with pytest.raises(ValueError, match="64 bits"):
        McConfig(replications=1, n_max=5, base_seed=2**64, grid=(1,))
    with pytest.raises(ValueError, match="nonempty"):
        McConfig(replications=1, n_max=5, base_seed=0, grid=())
    with pytest.raises(ValueError, match="strictly increasing"):
        McConfig(replications=1, n_max=5, base_seed=0, grid=(3, 3))
    with pytest.raises(ValueError, match="within"):
        McConfig(replications=1, n_max=5, base_seed=0, grid=(1, 6))


def test_mcconfig_rejects_booleans_and_non_integers():
    with pytest.raises(ValueError, match="base seed must be an integer"):
        McConfig(4, 10, 1.5, (10,))
    for replications, n_max, seed, grid, field in (
        (True, 10, 4, (10,), "replications"),
        (4.0, 10, 4, (10,), "replications"),
        (4, 10.5, 4, (10,), "horizon"),
        (4, np.bool_(True), 4, (1,), "horizon"),
        (4, 10, False, (10,), "base seed"),
        (4, 10, 4, (5.0, 10), "grid entry"),
    ):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            McConfig(replications, n_max, seed, grid)
    cfg = McConfig(np.int64(4), np.uint16(10), np.uint64(2**64 - 1), (np.int32(10),))
    assert cfg.base_seed == 2**64 - 1


def test_mc_argument_validation():
    problem = skewed_two_point()
    cfg = McConfig(replications=4, n_max=5, base_seed=0, grid=(5,))
    with pytest.raises(ValueError, match="worker"):
        mc_risk_curve(problem, PlainErm(), cfg, workers=0)
    with pytest.raises(ValueError, match="class size"):
        mc_risk_curve(problem, GermAlgorithm(gap=GapSpec(EmpiricalBernstein(), 3)), cfg)
    with pytest.raises(ValueError, match="initial index"):
        mc_risk_curve(problem, GermAlgorithm(gap=FixedDelta(0.1), initial_index=2), cfg)
    short = GapSpec(UniformConvergence(UserConstant((0.5, 0.5))), 2)
    with pytest.raises(ValueError, match="UserConstant"):
        mc_risk_curve(problem, GermAlgorithm(gap=short), cfg)


def test_decay_fit_recovers_synthetic_power_law():
    problem = skewed_two_point()
    algo = PlainErm()
    cfg = McConfig(replications=10, n_max=200, base_seed=0, grid=(10, 20, 50, 100, 200))
    star = optimal_risk(problem)[0]
    values = tuple(star + 2.0 * n ** -0.5 for n in cfg.grid)
    curve = RiskCurve(
        ns=cfg.grid,
        values=values,
        stderrs=(0.0,) * len(cfg.grid),
        kind="mc",
        problem=problem.name,
        algo=algo_label(algo),
        seed=0,
        replications=10,
    )
    fit = excess_risk_decay(problem, algo, cfg, beta_hint=0.0, curve=curve)
    assert not fit.degenerate
    assert fit.slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-9)
    assert fit.slope_bound == pytest.approx(-0.5 + 0.15)
    assert fit.ns == cfg.grid


def test_decay_fit_runs_end_to_end_on_erm():
    problem = skewed_two_point()
    cfg = McConfig(replications=2000, n_max=50, base_seed=13, grid=(5, 10, 20, 50))
    fit = excess_risk_decay(problem, PlainErm(), cfg, beta_hint=1.0)
    assert not fit.degenerate
    assert fit.slope < -0.5
    assert fit.slope_bound == pytest.approx(-1.0 + 0.15)


def test_decay_fit_degenerate_when_no_positive_excess():
    problem = LearningProblem(
        name="lonely",
        distribution=DiscreteDistribution((0.4, 0.6)),
        loss=LossTable(((0.25, 0.75),)),
    )
    cfg = McConfig(replications=20, n_max=50, base_seed=1, grid=(5, 50))
    fit = excess_risk_decay(problem, PlainErm(), cfg, beta_hint=0.5)
    assert fit.degenerate
    assert math.isnan(fit.slope)
    assert fit.ns == ()


def test_decay_fit_validation():
    problem = skewed_two_point()
    cfg = McConfig(replications=10, n_max=20, base_seed=0, grid=(5, 20))
    with pytest.raises(ValueError, match="decade"):
        excess_risk_decay(problem, PlainErm(), cfg, beta_hint=0.0)
    big = McConfig(replications=10, n_max=100, base_seed=0, grid=(10, 100))
    with pytest.raises(ValueError, match="beta hint"):
        excess_risk_decay(problem, PlainErm(), big, beta_hint=1.5)
    wrong_grid = RiskCurve(
        ns=(10, 50),
        values=(0.5, 0.4),
        stderrs=(0.0, 0.0),
        kind="mc",
        problem=problem.name,
        algo="erm",
        seed=0,
        replications=10,
    )
    with pytest.raises(ValueError, match="different grid"):
        excess_risk_decay(problem, PlainErm(), big, beta_hint=0.0, curve=wrong_grid)
    wrong_algo = RiskCurve(
        ns=big.grid,
        values=(0.5, 0.4),
        stderrs=(0.0, 0.0),
        kind="mc",
        problem=problem.name,
        algo="germ:fixed=0.1:init0",
        seed=0,
        replications=10,
    )
    with pytest.raises(ValueError, match="does not match"):
        excess_risk_decay(problem, PlainErm(), big, beta_hint=0.0, curve=wrong_algo)


def test_coverage_csv_format():
    result = CoverageResult(
        event="pairwise-bernstein",
        ns=(4, 10),
        coverages=(0.975, 1.0),
        floors=(0.7, 0.7),
        replications=200,
        problem="demo",
        seed=3,
    )
    text = coverage_to_csv(result)
    lines = text.splitlines()
    assert lines[0] == "n,event,level,coverage,replications"
    assert lines[1] == "4,pairwise-bernstein,0.7,0.975,200"
    assert lines[2] == "10,pairwise-bernstein,0.7,1.0,200"
    assert text.endswith("\n")


def test_coverage_result_validation():
    with pytest.raises(ValueError, match="lengths"):
        CoverageResult(
            event="excess-bound",
            ns=(1, 2),
            coverages=(1.0,),
            floors=(0.5, 0.5),
            replications=10,
            problem="p",
            seed=0,
        )
    with pytest.raises(ValueError, match="outside"):
        CoverageResult(
            event="excess-bound",
            ns=(1,),
            coverages=(1.5,),
            floors=(0.5,),
            replications=10,
            problem="p",
            seed=0,
        )
