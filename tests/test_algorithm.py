import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import germ.algorithm
import germ.oracle
from germ.algorithm import (
    GermAlgorithm,
    PlainErm,
    Trajectory,
    TrajectoryStep,
    algo_label,
    erm,
    run_germ,
    _gate,
    _step_block,
)
from germ.cli import _write_json
from germ.gap import (
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
    UserConstant,
    bernstein_delta_from_sq,
    delta_uniform,
    is_randomized,
)
from germ.oracle import exact_risk_curve
from germ.problem import (
    DiscreteDistribution,
    LearningProblem,
    LossTable,
    Sample,
)
from germ.rademacher import rbar_massart
from germ.rng import philox_stream
from germ.scenarios import load_scenario
from scalar_reference import draw_sample, draw_signs, empirical_risk, json_text, rbar_from_signs, scalar_run_germ
from scalar_reference import erm as scalar_erm


def two_point_problem():
    return LearningProblem(
        name="two-point",
        distribution=DiscreteDistribution(probs=(0.5, 0.5)),
        loss=LossTable(rows=((0.0, 0.0), (1.0, 1.0))),
    )


def random_problem(rng, class_size, outcome_count):
    probs = rng.dirichlet(np.ones(outcome_count))
    rows = tuple(
        tuple(round(float(v), 3) for v in rng.random(outcome_count))
        for _ in range(class_size)
    )
    return LearningProblem(
        name="random",
        distribution=DiscreteDistribution(probs=tuple(float(p) for p in probs)),
        loss=LossTable(rows=rows),
    )


def massart_gap(class_size):
    return GapSpec(UniformConvergence(MassartDeterministic()), class_size)


def empirical_gap(class_size):
    return GapSpec(UniformConvergence(EmpiricalMcDiarmid()), class_size)


def bernstein_gap(class_size):
    return GapSpec(EmpiricalBernstein(), class_size)


def test_erm_examples():
    loss = LossTable(rows=((0.2, 0.8), (0.6, 0.1), (0.4, 0.4)))
    assert erm(loss, Sample((0,))) == 0
    assert erm(loss, Sample((1,))) == 1
    # sums over (0, 1): h0 = 1.0, h1 = 0.7, h2 = 0.8
    assert erm(loss, Sample((0, 1))) == 1


def test_erm_tie_breaks_to_lowest_index():
    loss = LossTable(rows=((0.5, 0.5), (0.5, 0.5), (0.1, 0.9)))
    assert erm(loss, Sample((0, 1))) == 0
    assert erm(loss, Sample((0,))) == 2


def test_erm_rejects_empty_prefix():
    loss = LossTable(rows=((0.0,),))
    with pytest.raises(ValueError):
        erm(loss, Sample(()))


def test_erm_matches_argmin_of_empirical_risk():
    for trial in range(50):
        rng = philox_stream(4000, trial)
        problem = random_problem(rng, class_size=5, outcome_count=3)
        sample = draw_sample(problem, 12, rng)
        got = erm(problem.loss, sample)
        risks = [empirical_risk(problem.loss, h, sample) for h in range(5)]
        best = min(range(5), key=risks.__getitem__)
        assert risks[got] == pytest.approx(risks[best], abs=1e-12)
        assert all(risks[got] < risks[h] for h in range(got))


def test_erm_matches_the_scalar_reference():
    # losses on a grid of 1/q make sums that tie in exact arithmetic; the
    # float sums then decide, and agree only when added in the same order
    rng = philox_stream(4050, 0)
    for q in (3, 7, 10, 20):
        for _ in range(500):
            grid = rng.integers(0, q + 1, size=(rng.integers(2, 6), rng.integers(2, 5)))
            loss = LossTable(tuple(tuple(v / q for v in row) for row in grid.tolist()))
            sample = Sample(tuple(rng.integers(0, loss.outcome_count, size=rng.integers(1, 13)).tolist()))
            assert erm(loss, sample) == scalar_erm(loss, sample)
    # three orders of one sample whose two lowest sums tie exactly (0.8)
    loss = load_scenario("three-outcome-misspecified").problem.loss
    for outcomes, want in (((0, 0, 1), 0), ((0, 1, 0), 1), ((1, 0, 0), 1)):
        assert erm(loss, Sample(outcomes)) == scalar_erm(loss, Sample(outcomes)) == want


def test_huge_fixed_gap_never_updates():
    problem = two_point_problem()
    sample = Sample((0,) * 30)
    trajectory = run_germ(problem, sample, FixedDelta(10.0), initial=1)
    assert trajectory.final_index == 1
    assert not any(step.updated for step in trajectory.steps)
    assert all(step.chosen_index == 1 for step in trajectory.steps)
    assert all(step.erm_index == 0 for step in trajectory.steps)


def test_zero_fixed_gap_tracks_the_erm():
    # diff <= 0 always holds for the lowest-index ERM, so a zero gap
    # reduces the loop to plain ERM; a step is an update where that
    # changes the chosen index.
    for trial in range(10):
        rng = philox_stream(4100, trial)
        problem = random_problem(rng, class_size=4, outcome_count=3)
        sample = draw_sample(problem, 15, rng)
        trajectory = run_germ(problem, sample, FixedDelta(0.0), initial=2)
        previous = 2
        for step in trajectory.steps:
            assert step.updated == (step.chosen_index != previous)
            assert step.chosen_index == step.erm_index
            assert step.erm_index == scalar_erm(problem.loss, sample.prefix(step.k))
            previous = step.chosen_index


def test_updated_counts_the_switches_of_a_zero_gap_trajectory():
    # under a zero gap the gate clears at every step, also where the ERM
    # already is the incumbent; only a change of index is an update
    problem = load_scenario("symmetric-coin").problem
    sample = draw_sample(problem, 200, philox_stream(4150, 0))
    trajectory = run_germ(problem, sample, FixedDelta(0.0), initial=0)
    indices = (0, *trajectory.indices())
    switches = sum(a != b for a, b in zip(indices, indices[1:]))
    assert 0 < switches < len(trajectory.steps)
    assert sum(step.updated for step in trajectory.steps) == switches
    assert [s["updated"] for s in asdict(trajectory)["steps"]] == [a != b for a, b in zip(indices, indices[1:])]


def test_first_update_step_with_massart_gap():
    # Two hypotheses with constant losses 0 and 1, incumbent starts at the
    # bad one.  The gate fires at the first k with delta_k <= 1.  Scanning
    # 4*sqrt(2*ln(2)/k) + sqrt(2*ln(2k)/k) + 2/k puts that at k = 66.
    first = None
    for k in range(1, 200):
        if delta_uniform(k, rbar_massart(2, k)) <= 1.0:
            first = k
            break
    assert first == 66

    problem = two_point_problem()
    sample = Sample((0,) * 80)
    trajectory = run_germ(problem, sample, massart_gap(2), initial=1)
    updates = [step.k for step in trajectory.steps if step.updated]
    assert updates == [66]
    assert [step.chosen_index for step in trajectory.steps] == [1] * 65 + [0] * 15
    assert trajectory.final_index == 0


def test_first_update_step_with_bernstein_gap():
    # Same two-hypothesis setup.  Squared loss differences are all 1, so
    # the scan uses sq_sum = k; the gate first clears 1 at k = 62.
    first = None
    for k in range(2, 200):
        if bernstein_delta_from_sq(k, float(k), 2) <= 1.0:
            first = k
            break
    assert first == 62

    problem = two_point_problem()
    sample = Sample((0,) * 70)
    trajectory = run_germ(problem, sample, bernstein_gap(2), initial=1)
    updates = [step.k for step in trajectory.steps if step.updated]
    assert updates == [62]
    assert trajectory.steps[0].delta == math.inf
    assert trajectory.final_index == 0


def test_single_hypothesis_class_is_constant():
    problem = LearningProblem(
        name="solo",
        distribution=DiscreteDistribution(probs=(0.4, 0.6)),
        loss=LossTable(rows=((0.3, 0.7),)),
    )
    sample = Sample((0, 1, 1, 0, 1))
    for gap in (massart_gap(1), bernstein_gap(1), FixedDelta(0.5)):
        trajectory = run_germ(problem, sample, gap, initial=0)
        assert trajectory.indices() == (0,) * 5
        assert not any(step.updated for step in trajectory.steps)


def test_trajectory_invariants_across_gap_variants():
    for trial in range(30):
        rng = philox_stream(4300, trial)
        problem = random_problem(rng, class_size=4, outcome_count=3)
        sample = draw_sample(problem, 14, rng)
        gaps = [
            massart_gap(4),
            empirical_gap(4),
            bernstein_gap(4),
            FixedDelta(0.3),
        ]
        for gap in gaps:
            trajectory = run_germ(problem, sample, gap, initial=3, origin=(4301, trial, 0))
            assert [step.k for step in trajectory.steps] == list(range(1, 15))
            previous = 3
            for step in trajectory.steps:
                assert step.delta >= 0.0
                expected = step.erm_index if step.updated else previous
                assert step.chosen_index == expected
                # lowest-index ERM never has a worse sum than the incumbent
                assert step.erm_empirical_loss <= step.incumbent_empirical_loss
                assert step.erm_empirical_loss == pytest.approx(
                    empirical_risk(problem.loss, step.erm_index, sample.prefix(step.k)),
                    abs=1e-12,
                )
                if step.updated:
                    gate = step.erm_empirical_loss - step.incumbent_empirical_loss
                    assert gate <= -step.delta
                previous = step.chosen_index
            assert trajectory.final_index == previous


def test_run_germ_equals_the_scalar_reference():
    # run_germ is one row of the lockstep stepper; the reference writes each
    # step out in plain Python.  repr tells apart values that compare equal,
    # such as 0.0 and -0.0, True and 1, or a float and a NumPy scalar.
    cases = []
    for trial in range(30):
        rng = philox_stream(4300, trial)
        problem = random_problem(rng, class_size=4, outcome_count=3)
        cases.append((problem, draw_sample(problem, 14, rng), 3, trial))
    # on the biased coin the Massart and Bernstein gates fire by n = 200
    coin = load_scenario("biased-coin-massart").problem
    for trial in range(4):
        cases.append((coin, draw_sample(coin, 200, philox_stream(4310, trial)), 0, trial))
    fired = set()
    for problem, sample, initial, trial in cases:
        H = problem.class_size
        for gap in (massart_gap(H), empirical_gap(H), bernstein_gap(H), FixedDelta(0.3), FixedDelta(0.0)):
            got = run_germ(problem, sample, gap, initial=initial, origin=(4301, trial, 0))
            want = scalar_run_germ(problem, sample, gap, initial=initial, rng=philox_stream(4301, trial))
            assert got == want, gap
            assert repr(got) == repr(want), gap
            if any(s.chosen_index != initial for s in got.steps):
                fired.add(algo_label(GermAlgorithm(gap)))
    assert {"germ:uniform-massart:init0", "germ:bernstein:init0", "germ:fixed:init0"} <= fired


def test_empirical_mode_is_deterministic_per_stream():
    rng = philox_stream(4400, 0)
    problem = random_problem(rng, class_size=3, outcome_count=2)
    sample = draw_sample(problem, 20, rng)
    a = run_germ(problem, sample, empirical_gap(3), initial=2, origin=(77, 5, 0))
    b = run_germ(problem, sample, empirical_gap(3), initial=2, origin=(77, 5, 0))
    assert a == b
    c = run_germ(problem, sample, empirical_gap(3), initial=2, origin=(77, 6, 0))
    assert [s.rbar for s in a.steps] != [s.rbar for s in c.steps]


def test_empirical_mode_consumes_one_sign_block_per_step():
    # Replaying the stream from the origin must reproduce every recorded
    # rbar exactly: the loop reads exactly one k-sign block per step and
    # nothing else, also from an odd half, the pending half of a generator
    # that has drawn one sign
    rng = philox_stream(4500, 0)
    problem = random_problem(rng, class_size=4, outcome_count=3)
    sample = draw_sample(problem, 12, rng)
    for half in (0, 1):
        trajectory = run_germ(problem, sample, empirical_gap(4), origin=(91, 3, half))
        replay, reference = philox_stream(91, 3), philox_stream(91, 3)
        if half:
            draw_signs(replay, 1)
            draw_signs(reference, 1)
        for step in trajectory.steps:
            signs = draw_signs(replay, step.k)
            assert step.rbar == rbar_from_signs(problem.loss, sample.prefix(step.k), signs)
            assert step.delta == delta_uniform(step.k, step.rbar)
        assert trajectory == scalar_run_germ(problem, sample, empirical_gap(4), rng=reference)


def test_empirical_mode_requires_rng():
    problem = two_point_problem()
    with pytest.raises(ValueError):
        run_germ(problem, Sample((0, 1)), empirical_gap(2))
    # a seed and stream fit in 64 bits, and a half is a nonnegative integer
    for origin in ((-1, 0, 0), (0, 2**64, 0), (0.5, 0, 0), (0, 0, -1), (0, 0, 1.0), (0, 0, True)):
        with pytest.raises(ValueError):
            run_germ(problem, Sample((0, 1)), empirical_gap(2), origin=origin)
    run_germ(problem, Sample((0, 1)), empirical_gap(2), origin=(2**64 - 1, 2**64 - 1, 2**70))


def test_massart_and_bernstein_ignore_rng():
    problem = two_point_problem()
    sample = Sample((0, 1, 0, 1))
    for gap in (massart_gap(2), bernstein_gap(2)):
        with_origin = run_germ(problem, sample, gap, origin=(1, 1, 0))
        without = run_germ(problem, sample, gap)
        assert with_origin == without


def test_only_the_bernstein_gap_carries_outcome_counts(monkeypatch):
    # the gate picks each outcome's row of the running sums: its H losses,
    # and its m outcome indicators only where the Bernstein settle reads them
    problem = load_scenario("three-outcome-misspecified").problem
    L = problem.loss.as_array()
    H, m = L.shape
    n = 6
    outcomes = np.array([[0, 2, 1, 1, 0, 2]], dtype=np.uint8)
    origins = (3, np.array([0], dtype=np.uint64), 2 * n)
    widths = []
    gate_block = germ.algorithm._gate_block

    def recorded(S, *args):
        widths.append(S.shape[-1])
        return gate_block(S, *args)

    monkeypatch.setattr(germ.algorithm, "_gate_block", recorded)
    monkeypatch.setattr(germ.oracle, "_gate_block", recorded)
    gaps = [
        (GapSpec(EmpiricalBernstein(), H), H + m),
        (GapSpec(UniformConvergence(MassartDeterministic()), H), H),
        (GapSpec(UniformConvergence(UserConstant(values=(0.1,) * n)), H), H),
        (GapSpec(UniformConvergence(EmpiricalMcDiarmid()), H), H),
        (FixedDelta(0.0), H),
    ]
    algos = [(GermAlgorithm(gap, initial_index=2), width) for gap, width in gaps] + [(PlainErm(), H)]
    for algo, width in algos:
        rows = _gate(algo, L, n, (outcomes, origins)).rows
        assert rows.shape == (m, width)
        assert np.array_equal(rows[:, :H], L.T)
        assert np.array_equal(rows[:, H:], np.eye(m)[:, : width - H])
        # the stepper and the exact oracle step the rows the gate picks
        widths.clear()
        _step_block(problem, algo, outcomes, origins, [n])
        if isinstance(algo, PlainErm) or not is_randomized(algo.gap):
            exact_risk_curve(problem, algo, 3)
        assert widths and set(widths) == {width}


def test_user_constant_values_feed_the_uniform_gap():
    problem = two_point_problem()
    values = (0.5, 0.4, 0.3, 0.2)
    gap = GapSpec(UniformConvergence(UserConstant(values=values)), 2)
    trajectory = run_germ(problem, Sample((0, 1, 0, 1)), gap)
    for step, rbar in zip(trajectory.steps, values):
        assert step.rbar == rbar
        assert step.delta == delta_uniform(step.k, rbar)


def test_user_constant_must_cover_the_run():
    problem = two_point_problem()
    gap = GapSpec(UniformConvergence(UserConstant(values=(0.1, 0.1))), 2)
    with pytest.raises(ValueError):
        run_germ(problem, Sample((0, 1, 0)), gap)


def test_gap_class_size_must_match():
    problem = two_point_problem()
    with pytest.raises(ValueError):
        run_germ(problem, Sample((0, 1)), massart_gap(3))


def test_initial_index_must_be_in_range():
    problem = two_point_problem()
    with pytest.raises(ValueError):
        run_germ(problem, Sample((0, 1)), FixedDelta(0.0), initial=2)


def test_empty_sample_is_rejected():
    problem = two_point_problem()
    with pytest.raises(ValueError):
        run_germ(problem, Sample(()), FixedDelta(0.0))


def test_algo_label_forms():
    assert algo_label(PlainErm()) == "erm"
    assert algo_label(GermAlgorithm(gap=massart_gap(2))) == "germ:uniform-massart:init0"
    assert (
        algo_label(GermAlgorithm(gap=empirical_gap(2), initial_index=3))
        == "germ:uniform-empirical:init3"
    )
    assert algo_label(GermAlgorithm(gap=bernstein_gap(2))) == "germ:bernstein:init0"
    assert algo_label(GermAlgorithm(gap=FixedDelta(0.1))) == "germ:fixed:init0"
    user = GapSpec(UniformConvergence(UserConstant(values=(0.1,))), 2)
    assert algo_label(GermAlgorithm(gap=user)) == "germ:uniform-constant:init0"


def test_algorithm_spec_validation():
    with pytest.raises(ValueError):
        GermAlgorithm(gap="massart")
    with pytest.raises(ValueError):
        GermAlgorithm(gap=FixedDelta(0.0), initial_index=-1)


def test_trajectory_json_is_stable_and_encodes_infinities(tmp_path):
    problem = two_point_problem()
    trajectory = run_germ(problem, Sample((0, 1, 0)), bernstein_gap(2), initial=1)
    path = tmp_path / "trajectory.json"
    _write_json(path, asdict(trajectory))
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    decoded = json.loads(text)
    assert decoded["initial_index"] == 1
    assert set(decoded) == {"initial_index", "steps"}
    assert decoded["steps"][0]["delta"] == "inf"
    assert decoded["steps"][1]["delta"] == pytest.approx(
        bernstein_delta_from_sq(2, 2.0, 2)
    )
    assert [s["k"] for s in decoded["steps"]] == [1, 2, 3]
    assert text == json_text(asdict(trajectory))


def test_trajectory_final_index_defaults_to_initial():
    empty = Trajectory(initial_index=2, steps=())
    assert empty.final_index == 2
    one = Trajectory(
        initial_index=2,
        steps=(
            TrajectoryStep(
                k=1,
                erm_index=0,
                chosen_index=0,
                delta=0.0,
                erm_empirical_loss=0.0,
                incumbent_empirical_loss=1.0,
                updated=True,
            ),
        ),
    )
    assert one.final_index == 0
