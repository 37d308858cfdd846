"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test records one PASS/FAIL verdict line; the session summary prints
them after capture ends. Tolerances are stated inline next to each assert.
"""

import json
import math
import time

import numpy as np
from conftest import ACCEPTANCE_LINES

from germ.algorithm import GermAlgorithm, PlainErm
from germ.analysis import minimizer_bound
from germ.cli import EXIT_PASS, main
from germ.gap import (
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
)
from germ.montecarlo import (
    ExcessBoundEvent,
    McConfig,
    PairwiseBernsteinEvent,
    excess_risk_decay,
    mc_bound_coverage,
    mc_risk_curve,
)
from germ.oracle import check_monotone, exact_risk_curve
from germ.rademacher import estimator_deviation_exceedance
from germ.rng import philox_stream
from germ.scenarios import builtin_scenarios, load_scenario, rerun_witness_search

WORKERS = 4
REPLICATIONS = 20_000


def _announce(index: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {index} {name}: {status} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


def _massart_algo(class_size: int) -> GermAlgorithm:
    gap = GapSpec(variant=UniformConvergence(mode=MassartDeterministic()), class_size=class_size)
    return GermAlgorithm(gap=gap)


def _empirical_algo(class_size: int) -> GermAlgorithm:
    gap = GapSpec(variant=UniformConvergence(mode=EmpiricalMcDiarmid()), class_size=class_size)
    return GermAlgorithm(gap=gap)


def _bernstein_algo(class_size: int) -> GermAlgorithm:
    return GermAlgorithm(gap=GapSpec(variant=EmpiricalBernstein(), class_size=class_size))


def test_criterion_1_exact_monotonicity():
    # every built-in scenario has <= 3 outcomes, so n = 8 enumerates <= 3^8 states
    start = time.perf_counter()
    worst = 0.0
    for scenario in builtin_scenarios():
        assert scenario.problem.outcome_count <= 3
        for factory in (_massart_algo, _bernstein_algo):
            curve = exact_risk_curve(scenario.problem, factory(scenario.problem.class_size), 8)
            report = check_monotone(curve)
            worst = max(worst, report.max_increase)
            assert report.verdict == "monotone", (scenario.name, factory.__name__, report.violations)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and elapsed < 60.0
    _announce(1, "exact-risk-monotonicity", passed, f"max_increase={worst!r} elapsed={elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_2_erm_dip_witness():
    start = time.perf_counter()
    scenario = load_scenario("erm-dip-witness")
    replayed = rerun_witness_search(scenario)
    assert replayed is not None
    assert replayed.distribution.as_array().tolist() == scenario.problem.distribution.as_array().tolist()
    assert replayed.loss.as_array().tolist() == scenario.problem.loss.as_array().tolist()
    curve = exact_risk_curve(scenario.problem, PlainErm(), scenario.witness.n_probe)
    increase = max(b - a for a, b in zip(curve.values, curve.values[1:]))
    elapsed = time.perf_counter() - start
    passed = increase > 1e-9 and elapsed < 60.0
    _announce(2, "erm-dip-witness", passed, f"max_increase={increase!r} elapsed={elapsed:.1f}s")
    assert increase > 1e-9
    assert elapsed < 60.0


def test_criterion_3_mc_monotonicity_randomized_estimator():
    start = time.perf_counter()
    details = []
    for name in ("symmetric-coin", "three-outcome-misspecified"):
        problem = load_scenario(name).problem
        cfg = McConfig(replications=REPLICATIONS, n_max=200, base_seed=404, grid=(10, 20, 50, 100, 200))
        curve = mc_risk_curve(problem, _empirical_algo(problem.class_size), cfg, workers=WORKERS)
        report = check_monotone(curve)
        details.append(f"{name}:max_increase={report.max_increase:.2e}")
        assert report.verdict == "monotone", (name, report.violations)
    elapsed = time.perf_counter() - start
    passed = elapsed < 300.0
    _announce(3, "mc-risk-monotonicity", passed, f"{' '.join(details)} elapsed={elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_4_excess_bound_coverage():
    details = []
    ok = True
    for name in ("symmetric-coin", "three-outcome-misspecified"):
        problem = load_scenario(name).problem
        event = ExcessBoundEvent(algo=_empirical_algo(problem.class_size))
        cfg = McConfig(replications=REPLICATIONS, n_max=200, base_seed=505, grid=(50, 200))
        result = mc_bound_coverage(problem, event, cfg, workers=WORKERS)
        for n, coverage, floor in zip(result.ns, result.coverages, result.floors):
            sigma = math.sqrt(floor * (1.0 - floor) / REPLICATIONS)
            threshold = floor - 3.0 * sigma
            details.append(f"{name}@n={n}:{coverage:.4f}>={threshold:.4f}")
            ok = ok and coverage >= threshold
    _announce(4, "excess-bound-coverage", ok, " ".join(details))
    assert ok, details


def test_criterion_5_estimator_deviation_exact():
    cases = 0
    worst_margin = math.inf
    ok = True
    # the count-vector sum reaches k = 100 on two outcomes and k = 30 on three
    for name, far in (("symmetric-coin", 100), ("three-outcome-misspecified", 30)):
        problem = load_scenario(name).problem
        for k in (2, 4, 6, far):
            for delta in (0.1, 0.25, 0.5):
                exceedance = estimator_deviation_exceedance(problem, k, delta)
                ok = ok and exceedance <= delta
                worst_margin = min(worst_margin, delta - exceedance)
                cases += 1
    _announce(5, "estimator-deviation-exact", ok, f"cases={cases} worst_margin={worst_margin!r}")
    assert ok
    assert worst_margin >= 0.0


def test_criterion_6_pairwise_bernstein_coverage():
    delta = 0.1
    floor = 1.0 - delta
    threshold = floor - 3.0 * math.sqrt(floor * delta / REPLICATIONS)
    details = []
    ok = True
    for name in ("symmetric-coin", "three-outcome-misspecified"):
        problem = load_scenario(name).problem
        cfg = McConfig(replications=REPLICATIONS, n_max=200, base_seed=606, grid=(50, 200))
        result = mc_bound_coverage(problem, PairwiseBernsteinEvent(delta=delta), cfg, workers=WORKERS)
        for n, coverage in zip(result.ns, result.coverages):
            details.append(f"{name}@n={n}:{coverage:.4f}")
            ok = ok and coverage >= threshold
    _announce(6, "pairwise-bernstein-coverage", ok, f"threshold={threshold:.4f} " + " ".join(details))
    assert ok, details


def test_criterion_7_minimizer_bound_dominates_grid():
    rng = philox_stream(20260821, 0)
    etas = np.linspace(0.5 / 100_000, 0.5, 100_000)
    worst_slack = math.inf
    for _ in range(1000):
        A = float(10.0 ** rng.uniform(-2.0, 2.0))
        B = float(10.0 ** rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(0.0, 0.95))
        objective = A * etas ** (1.0 / (1.0 - beta)) + B / etas
        slack = minimizer_bound(A, B, beta) - float(objective.min())
        worst_slack = min(worst_slack, slack)
    ok = worst_slack >= -1e-9
    _announce(7, "minimizer-bound-grid", ok, f"worst_slack={worst_slack!r} triples=1000 grid=1e5")
    assert worst_slack >= -1e-9


def test_criterion_8_bernstein_variant_decay_rates():
    grid = (50, 70, 100, 140, 200, 500, 1000, 2000)
    cases = (("margin-free-ladder", 0.0, -0.35), ("biased-coin-massart", 1.0, -0.6))
    details = []
    ok = True
    for name, beta, threshold in cases:
        problem = load_scenario(name).problem
        cfg = McConfig(replications=REPLICATIONS, n_max=2000, base_seed=101, grid=grid)
        fit = excess_risk_decay(problem, _bernstein_algo(problem.class_size), cfg, beta, workers=WORKERS)
        details.append(f"{name}:slope={fit.slope:.3f}<= {threshold}")
        ok = ok and not fit.degenerate and fit.slope <= threshold
        assert not fit.degenerate, name
    _announce(8, "excess-risk-decay", ok, " ".join(details))
    assert ok, details


def test_criterion_9_run_determinism_across_workers(tmp_path):
    def config(out_dir):
        return {
            "scenario": "biased-coin-massart",
            "algorithm": {"kind": "germ", "gap": {"variant": "uniform", "mode": "empirical"}},
            "engine": {"kind": "mc", "replications": 6000, "n_max": 100, "grid": [10, 50, 100]},
            "seed": 424242,
            "checks": [
                {"check": "monotone"},
                {"check": "coverage", "event": "excess-bound", "level": 0.9},
                {"check": "coverage", "event": "pairwise-bernstein", "delta": 0.1, "level": 0.85},
            ],
            "trajectory": {"n": 50},
            "out_dir": out_dir,
        }

    artifacts = (
        "report.json",
        "curve.csv",
        "coverage-excess-bound.csv",
        "coverage-pairwise-bernstein.csv",
        "trajectory.json",
    )
    for label, workers in (("w1", "1"), ("w8", "8")):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(config(str(tmp_path / label))), encoding="utf-8")
        assert main(["run", str(path), "--workers", workers]) == EXIT_PASS
    identical = all(
        (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w8" / name).read_bytes()
        for name in artifacts
    )
    _announce(9, "worker-determinism", identical, f"artifacts={len(artifacts)} byte-identical={identical}")
    assert identical
