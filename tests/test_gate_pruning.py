"""Gate pruning in the step kernel: rows that cannot switch within a block.

``algorithm._gate_block`` sends a row through the candidate and gate
kernels only when its incumbent can fall k * floor(k) behind the minimum
within the block.  These tests hold the pruned stepper to the scalar
reference loop on gaps at the edges of that bound, and check that the
pruning is engaged where the learner has settled, in the stepper and in
the exact oracle's layers.
"""

import math

import numpy as np
import pytest

import germ.algorithm
import germ.oracle
from germ.algorithm import GermAlgorithm, _step_block, _step_bytes
from germ.gap import (
    EmpiricalBernstein,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
    UserConstant,
    delta_uniform,
    step_schedule,
)
from germ.montecarlo import McConfig, draw_outcomes, mc_risk_curve
from germ.oracle import exact_risk_curve
from germ.problem import DiscreteDistribution, LearningProblem, LossTable, Sample
from germ.rng import philox_stream
from germ.scenarios import load_scenario
from scalar_reference import draw_sample, scalar_run_germ


@pytest.fixture
def gate_rows(monkeypatch):
    """Row-steps and calls that reach ``_scan_gate``, counted as they happen."""
    seen = {"row_steps": 0, "calls": 0}
    scan = germ.algorithm._scan_gate

    def counted(S, cand, best, *args):
        seen["row_steps"] += best.size
        seen["calls"] += 1
        return scan(S, cand, best, *args)

    monkeypatch.setattr(germ.algorithm, "_scan_gate", counted)
    return seen


def stepped_and_scalar(problem, gap, initial, cfg):
    """The stepper's chosen indices for every replication, and the scalar
    reference loop's, at every step."""
    outcomes = draw_outcomes(problem, cfg.base_seed, 0, cfg.replications, cfg.n_max)
    chosen, _ = _step_block(problem, GermAlgorithm(gap, initial_index=initial), outcomes, None, cfg.grid)
    expected = [
        list(scalar_run_germ(problem, draw_sample(problem, cfg.n_max, philox_stream(cfg.base_seed, r)), gap, initial=initial).indices())
        for r in range(cfg.replications)
    ]
    return chosen.T.tolist(), expected


def every_step(replications, n_max, seed):
    return McConfig(replications=replications, n_max=n_max, base_seed=seed, grid=tuple(range(1, n_max + 1)))


def short_blocks(monkeypatch, steps, problem, cfg):
    """Blocks of at most ``steps`` steps, as a chunk of many replications
    gets; a row is pruned a block at a time, so a block as long as the run
    prunes nothing."""
    monkeypatch.setattr(germ.algorithm, "STEP_BLOCK", steps * cfg.replications * _step_bytes(problem.class_size))


def test_pruning_is_engaged_once_the_bernstein_learner_settles(gate_rows):
    problem = load_scenario("biased-coin-massart").problem
    algo = GermAlgorithm(GapSpec(EmpiricalBernstein(), problem.class_size))
    cfg = McConfig(replications=1024, n_max=2000, base_seed=107, grid=(50, 200, 2000))
    curve = mc_risk_curve(problem, algo, cfg, workers=1)
    share = gate_rows["row_steps"] / (cfg.replications * cfg.n_max)
    assert 0.0 < share < 0.10, share
    # the gate still moves the learner off the bad initial hypothesis
    assert curve.values[-1] < curve.values[0]


def test_pruned_bernstein_steps_equal_the_scalar_loop_at_a_long_horizon(monkeypatch, gate_rows):
    problem = load_scenario("margin-free-ladder").problem
    cfg = every_step(6, 2000, 11)
    short_blocks(monkeypatch, 10, problem, cfg)
    chosen, expected = stepped_and_scalar(problem, GapSpec(EmpiricalBernstein(), problem.class_size), 0, cfg)
    assert chosen == expected
    assert any(len(set(row)) > 1 for row in expected)
    assert gate_rows["row_steps"] < 0.5 * cfg.replications * cfg.n_max


def test_zero_fixed_gap_never_prunes(monkeypatch, gate_rows):
    problem = load_scenario("three-outcome-misspecified").problem
    cfg = every_step(12, 300, 5)
    short_blocks(monkeypatch, 4, problem, cfg)
    chosen, expected = stepped_and_scalar(problem, FixedDelta(0.0), 2, cfg)
    assert chosen == expected
    assert gate_rows["row_steps"] == cfg.replications * cfg.n_max


def test_infinite_fixed_gap_prunes_every_row(gate_rows):
    # with one block as long as the run
    problem = load_scenario("three-outcome-misspecified").problem
    chosen, expected = stepped_and_scalar(problem, FixedDelta(math.inf), 1, every_step(12, 300, 5))
    assert chosen == expected == [[1] * 300] * 12
    assert gate_rows["calls"] == 0


def test_headroom_admits_a_fire_that_rounding_puts_past_k_times_the_gap(monkeypatch):
    # outcome 1 adds 0.05 to h0's lag behind h1.  After 28 steps of outcome
    # 0 and 7 of outcome 1 the running sum is 0.35, while 35 * 0.01 rounds
    # up to 0.35000000000000003; 0.35 / 35 still rounds to 0.01, so the
    # gate fires at k = 35, in a one-step block whose lag bound is exactly
    # that running sum
    problem = LearningProblem("rounding-edge", DiscreteDistribution((0.5, 0.5)), LossTable(((0.0, 0.05), (0.0, 0.0))))
    z = (0,) * 28 + (1,) * 7 + (0,) * 5
    gap = FixedDelta(0.01)
    monkeypatch.setattr(germ.algorithm, "STEP_BLOCK", _step_bytes(problem.class_size))
    chosen, _ = _step_block(problem, GermAlgorithm(gap), np.array([z]), None, tuple(range(1, len(z) + 1)))
    expected = list(scalar_run_germ(problem, Sample(z), gap).indices())
    assert chosen[:, 0].tolist() == expected
    assert expected.index(1) == 34


@pytest.mark.parametrize("edge", [10, 16, 21])
@pytest.mark.parametrize("steps", [1, 4, 7])
def test_a_block_whose_bound_meets_the_largest_lag_is_gated(monkeypatch, steps, edge):
    # losses in {0, 1}, so no lag grows by more than 1 per step and t1 bounds
    # every row's lag at the end of a block; the gap is 1 at step ``edge``
    # and above 4 elsewhere.  A row whose incumbent loses every step lags by
    # exactly edge = edge * gap there, so a block that ends at ``edge`` sits
    # on the quiet-block bound and must still be scanned: the gate fires
    problem = LearningProblem("quiet-edge", DiscreteDistribution((0.5, 0.5)), LossTable(((1.0, 0.0), (0.0, 1.0))))
    n = 30
    values = tuple((1.0 - delta_uniform(k, 0.0)) / 4.0 if k == edge else 1.0 for k in range(1, n + 1))
    gap = GapSpec(UniformConvergence(UserConstant(values)), problem.class_size)
    deltas = step_schedule(gap, n)[0]
    assert edge * deltas[edge - 1] == edge and min(deltas[: edge - 1].min(), deltas[edge:].min()) > 4.0
    z = np.vstack([np.zeros((1, n), dtype=np.intp), np.ones((1, n), dtype=np.intp), philox_stream(edge, 0).integers(0, 2, (6, n))])
    monkeypatch.setattr(germ.algorithm, "STEP_BLOCK", steps * len(z) * _step_bytes(problem.class_size))
    for initial in (0, 1):
        chosen, _ = _step_block(problem, GermAlgorithm(gap, initial_index=initial), z, None, tuple(range(1, n + 1)))
        expected = [list(scalar_run_germ(problem, Sample(tuple(row)), gap, initial=initial).indices()) for row in z.tolist()]
        assert chosen.T.tolist() == expected
        # the row whose incumbent loses every step switches at the edge
        assert expected[initial].index(1 - initial) == edge - 1


@pytest.mark.parametrize("steps", [3, 8, 40])
def test_a_gap_that_rises_and_falls_within_a_block(monkeypatch, gate_rows, steps):
    # the bound is 1 (gap above 4) except at every seventh step from 30 on,
    # where it is 0; a block that holds such a dip after its first step
    # must be scanned for it
    problem = load_scenario("biased-coin-massart").problem
    n_max = 400
    values = tuple(0.0 if k >= 30 and k % 7 == 0 else 1.0 for k in range(1, n_max + 1))
    gap = GapSpec(UniformConvergence(UserConstant(values)), problem.class_size)
    cfg = every_step(16, n_max, 3)
    short_blocks(monkeypatch, steps, problem, cfg)
    chosen, expected = stepped_and_scalar(problem, gap, 0, cfg)
    assert chosen == expected
    # rows switch at dips that do not start a block
    switches = [next(k for k, h in enumerate(row, start=1) if h != 0) for row in expected if row[-1] != 0]
    assert any((k - 1) % steps for k in switches)
    assert gate_rows["row_steps"] < cfg.replications * n_max


def test_massart_rows_are_scanned_only_where_they_can_switch(monkeypatch, gate_rows):
    problem = load_scenario("biased-coin-massart").problem
    cfg = every_step(8, 600, 21)
    short_blocks(monkeypatch, 6, problem, cfg)
    chosen, expected = stepped_and_scalar(problem, GapSpec(UniformConvergence(MassartDeterministic()), problem.class_size), 0, cfg)
    assert chosen == expected
    assert gate_rows["row_steps"] < cfg.replications * cfg.n_max
    assert np.ptp(np.array(expected)) > 0


@pytest.mark.parametrize("variant", [UniformConvergence(MassartDeterministic()), EmpiricalBernstein()], ids=["massart", "bernstein"])
def test_exact_bound_gates_send_no_state_to_the_gate_at_small_n(gate_rows, variant):
    # both gaps stay above 1 through n = 10, and losses lie in [0, 1]
    problem = load_scenario("three-outcome-misspecified").problem
    curve = exact_risk_curve(problem, GermAlgorithm(GapSpec(variant, problem.class_size)), 10)
    assert gate_rows["calls"] == 0
    assert len(curve.values) == 11


def test_exact_zero_fixed_gap_sends_every_state_to_the_gate(monkeypatch, gate_rows):
    children = {"count": 0}
    gate_block = germ.oracle._gate_block

    def counted(S, *args):
        children["count"] += S.shape[1]
        return gate_block(S, *args)

    monkeypatch.setattr(germ.oracle, "_gate_block", counted)
    problem = load_scenario("three-outcome-misspecified").problem
    exact_risk_curve(problem, GermAlgorithm(FixedDelta(0.0)), 8)
    assert gate_rows["calls"] == 8
    assert gate_rows["row_steps"] == children["count"] > 3 * 8
