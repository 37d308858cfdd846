"""CLI tests: config parsing, exit codes, artifacts, and output lines."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import germ
import germ.cli
import germ.montecarlo
from germ.algorithm import GermAlgorithm, PlainErm, _step_block, algo_label
from germ.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_RESOURCE,
    _config_echo,
    _write_json,
    main,
    parse_algo_spec,
    parse_experiment_config,
)
from germ.gap import (
    GAP_CODES,
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
)
from germ.montecarlo import (
    ExcessBoundEvent,
    McConfig,
    PairwiseBernsteinEvent,
    coverage_to_csv,
    draw_outcomes,
    mc_bound_coverage,
    mc_risk_curve,
)
from germ.oracle import curve_to_csv
from germ.rng import philox_stream
from germ.problem import problem_to_dict
from germ.scenarios import load_scenario, scenario_dir
from scalar_reference import draw_sample, draw_signs, json_text, rbar_from_signs, scalar_run_germ


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def exact_config(tmp_path, **overrides):
    doc = {
        "scenario": "single-hypothesis",
        "algorithm": {"kind": "germ", "gap": {"variant": "uniform", "mode": "massart"}},
        "engine": {"kind": "exact", "n_max": 8},
        "checks": [{"check": "monotone"}],
        "out_dir": "out",
    }
    doc.update(overrides)
    return doc


def test_exact_monotone_run_passes(tmp_path, capsys):
    code = main(["run", write_config(tmp_path, exact_config(tmp_path))])
    assert code == EXIT_PASS
    line = capsys.readouterr().out.strip()
    assert line.startswith("run source=scenario:single-hypothesis")
    assert "status=pass" in line and "checks=1/1" in line
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["tool"] == {"name": "germ", "version": "0.1.0"}
    assert (tmp_path / "out" / "curve.csv").exists()


def test_witness_run_reports_violation(tmp_path):
    doc = exact_config(
        tmp_path,
        scenario="erm-dip-witness",
        algorithm={"kind": "erm"},
        engine={"kind": "exact", "n_max": 6},
        checks=[{"check": "monotone", "tolerance": 1e-9}],
    )
    code = main(["run", write_config(tmp_path, doc)])
    assert code == EXIT_CHECK_FAILED
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    entry = report["checks"][0]
    assert entry["passed"] is False
    assert entry["details"]["verdict"] == "violated"
    assert entry["details"]["violations"][0][0] == 4


def test_malformed_and_invalid_configs_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": ', encoding="utf-8")
    assert main(["run", str(bad)]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert main(["run", write_config(tmp_path, exact_config(tmp_path, mystery=1))]) == EXIT_CONFIG
    doc = exact_config(tmp_path)
    del doc["scenario"]
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    doc = exact_config(tmp_path, problem_file="also.json")
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG


def test_mc_engine_requires_seed(tmp_path):
    doc = exact_config(
        tmp_path,
        engine={"kind": "mc", "replications": 10, "n_max": 20, "grid": [10, 20]},
    )
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG


def test_exact_engine_rejects_randomized_gap_and_mc_checks(tmp_path):
    doc = exact_config(
        tmp_path,
        algorithm={"kind": "germ", "gap": {"variant": "uniform", "mode": "empirical"}},
    )
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    doc = exact_config(
        tmp_path,
        checks=[{"check": "coverage", "event": "pairwise-bernstein", "delta": 0.1, "level": 0.5}],
    )
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    doc = exact_config(tmp_path, checks=[{"check": "decay", "beta": 0.5}])
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG


def test_mc_run_artifacts_are_worker_invariant(tmp_path):
    def doc(out_dir):
        return {
            "scenario": "biased-coin-massart",
            "algorithm": {"kind": "erm"},
            "engine": {"kind": "mc", "replications": 300, "n_max": 40, "grid": [10, 40]},
            "seed": 7,
            "checks": [
                {"check": "monotone"},
                {"check": "coverage", "event": "pairwise-bernstein", "delta": 0.1, "level": 0.8},
            ],
            "out_dir": out_dir,
        }

    assert main(["run", write_config(tmp_path, doc("one"), "one.json")]) == EXIT_PASS
    assert main(["run", write_config(tmp_path, doc("two"), "two.json"), "--workers", "2"]) == EXIT_PASS
    for name in ("report.json", "curve.csv", "coverage-pairwise-bernstein.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    report = json.loads((tmp_path / "one" / "report.json").read_text())
    assert report["config"]["seed"] == 7
    assert report["config"]["replications"] == 300
    assert "out_dir" not in report["config"]
    assert "workers" not in json.dumps(report)


def mc_checks_config(gap, excess=True):
    """120 replications on the biased coin, with monotone, pairwise and
    (for uniform gaps) excess-bound checks."""
    checks = [{"check": "monotone"}, {"check": "coverage", "event": "pairwise-bernstein", "delta": 0.2, "level": 0.0}]
    if excess:
        checks.insert(1, {"check": "coverage", "event": "excess-bound", "level": 0.0})
    return {
        "scenario": "biased-coin-massart",
        "algorithm": {"kind": "germ", "gap": gap},
        "engine": {"kind": "mc", "replications": 120, "n_max": 60, "grid": [10, 30, 60]},
        "seed": 2024,
        "checks": checks,
        "out_dir": "out",
    }


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "gap, excess",
    [
        ({"variant": "uniform", "mode": "empirical"}, True),
        ({"variant": "uniform", "mode": "massart"}, True),
        ({"variant": "bernstein"}, False),
    ],
)
def test_run_artifacts_equal_standalone_calls(tmp_path, monkeypatch, gap, excess, workers):
    # chunks of 48 replications: three chunks
    monkeypatch.setattr(germ.montecarlo, "CHUNK", 48)
    doc = mc_checks_config(gap, excess)
    assert main(["run", write_config(tmp_path, doc), "--workers", str(workers)]) in (EXIT_PASS, EXIT_CHECK_FAILED)
    config = parse_experiment_config(doc, tmp_path)
    cfg = McConfig(replications=120, n_max=60, base_seed=2024, grid=(10, 30, 60))
    out = tmp_path / "out"
    curve = mc_risk_curve(config.problem, config.algo, cfg, workers=workers)
    assert (out / "curve.csv").read_bytes() == curve_to_csv(curve).encode()
    events = [PairwiseBernsteinEvent(0.2)] + ([ExcessBoundEvent(config.algo)] if excess else [])
    for event in events:
        result = mc_bound_coverage(config.problem, event, cfg, workers=workers)
        assert (out / f"coverage-{event.name}.csv").read_bytes() == coverage_to_csv(result).encode()
    assert len(list(out.iterdir())) == 2 + len(events)


def test_run_steps_each_chunk_once(tmp_path, monkeypatch):
    monkeypatch.setattr(germ.montecarlo, "CHUNK", 48)
    rows = []
    step = germ.montecarlo._step_block

    def counted(problem, algo, outcomes, *args):
        rows.append(len(outcomes))
        return step(problem, algo, outcomes, *args)

    monkeypatch.setattr(germ.montecarlo, "_step_block", counted)
    doc = mc_checks_config({"variant": "uniform", "mode": "empirical"})
    assert main(["run", write_config(tmp_path, doc)]) in (EXIT_PASS, EXIT_CHECK_FAILED)
    assert rows == [48, 48, 24]
    assert len(json.loads((tmp_path / "out" / "report.json").read_text())["checks"]) == 3


def test_excess_bound_check_is_refused_before_simulating(tmp_path, capsys):
    # the excess-risk bound is stated for uniform-convergence gaps only
    for algorithm in ({"kind": "germ", "gap": {"variant": "bernstein"}}, {"kind": "erm"}):
        doc = dict(mc_checks_config(None), algorithm=algorithm)
        # the parser builds the event, so the refusal comes from parsing
        with pytest.raises(ValueError):
            parse_experiment_config(doc, tmp_path)
        assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario, engine, checks, code",
    [
        ("biased-coin-massart", {"kind": "mc", "replications": 20, "n_max": 5, "grid": [1, 5]},
         [{"check": "coverage", "event": "pairwise-bernstein", "delta": 0.1, "level": 0.0}], EXIT_CONFIG),
        ("biased-coin-massart", {"kind": "mc", "replications": 20, "n_max": 50, "grid": [10, 20, 50]},
         [{"check": "decay", "beta": 1.0}], EXIT_CONFIG),
        ("three-outcome-misspecified", {"kind": "mc", "replications": 20, "n_max": 2000, "grid": [2000]},
         [{"check": "coverage", "event": "estimator-deviation", "delta": 0.1, "level": 0.0}], EXIT_RESOURCE),
        ("three-outcome-misspecified", {"kind": "exact", "n_max": 40}, [], EXIT_RESOURCE),
    ],
    ids=["pairwise-grid-from-1", "decay-grid-short-of-a-decade", "estimator-deviation-past-budget", "exact-past-budget"],
)
def test_a_refused_run_leaves_no_output(tmp_path, capsys, scenario, engine, checks, code):
    # every result and verdict is computed before out_dir is made
    doc = {
        "scenario": scenario,
        "algorithm": {"kind": "erm"},
        "engine": engine,
        "seed": 3,
        "checks": checks,
        "out_dir": "out",
    }
    assert main(["run", write_config(tmp_path, doc)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_the_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    doc = json.loads(blocks[0])
    echo = _config_echo(parse_experiment_config(doc, tmp_path))
    assert echo["source"] == f"scenario:{doc['scenario']}"
    assert echo["engine"] == doc["engine"]["kind"]
    assert echo["replications"] == doc["engine"]["replications"]
    assert echo["grid"] == doc["engine"]["grid"]
    assert echo["seed"] == doc["seed"]
    assert echo["trajectory"] == {"n": doc["trajectory"]["n"]}
    assert [c["check"] for c in echo["checks"]] == [c["check"] for c in doc["checks"]]


def test_repeated_coverage_event_is_refused(tmp_path, capsys):
    # both checks would write coverage-pairwise-bernstein.csv, the second
    # over the first
    doc = {
        "scenario": "symmetric-coin",
        "algorithm": {"kind": "germ", "gap": {"variant": "fixed", "value": 0.05}},
        "engine": {"kind": "mc", "replications": 20, "n_max": 30, "grid": [10, 30]},
        "seed": 5,
        "checks": [
            {"check": "coverage", "event": "pairwise-bernstein", "delta": delta, "level": 0.0}
            for delta in (0.1, 0.5)
        ],
        "out_dir": "out",
    }
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'pairwise-bernstein'" in err
    assert not (tmp_path / "out").exists()


def test_trajectory_artifact(tmp_path):
    doc = {
        "scenario": "biased-coin-massart",
        "algorithm": {"kind": "germ", "gap": {"variant": "fixed", "value": 0.05}, "initial_index": 0},
        "engine": {"kind": "mc", "replications": 20, "n_max": 30, "grid": [30]},
        "seed": 5,
        "checks": [],
        "trajectory": {"n": 30},
        "out_dir": "out",
    }
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_PASS
    trajectory = json.loads((tmp_path / "out" / "trajectory.json").read_text())
    assert len(trajectory["steps"]) == 30
    assert trajectory["initial_index"] == 0


def test_randomized_trajectory_matches_the_scalar_reference(tmp_path):
    # the trajectory is replication 0: its signs follow the n_max = 40 words
    # of replication 0's sample, so the reference draws all 40 before them
    doc = {
        "scenario": "three-outcome-misspecified",
        "algorithm": {"kind": "germ", "gap": {"variant": "uniform", "mode": "empirical"}, "initial_index": 2},
        "engine": {"kind": "mc", "replications": 4, "n_max": 40, "grid": [40]},
        "seed": 11,
        "checks": [],
        "trajectory": {"n": 25},
        "out_dir": "out",
    }
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_PASS
    config = parse_experiment_config(doc, tmp_path)
    gen = philox_stream(11, 0)
    sample = draw_sample(config.problem, 40, gen).prefix(25)
    want = scalar_run_germ(config.problem, sample, config.algo.gap, initial=2, rng=gen)
    assert (tmp_path / "out" / "trajectory.json").read_bytes() == json_text(asdict(want)).encode()


@pytest.mark.parametrize(
    "gap",
    [
        {"variant": "uniform", "mode": "empirical"},
        {"variant": "bernstein"},
        {"variant": "fixed", "value": 0.05},
    ],
    ids=["uniform-empirical", "bernstein", "fixed-0.05"],
)
def test_trajectory_is_replication_0(tmp_path, gap):
    # a trajectory shorter than n_max is replication 0's first n steps
    n, n_max, seed = 25, 40, 11
    doc = {
        "scenario": "three-outcome-misspecified",
        "algorithm": {"kind": "germ", "gap": gap, "initial_index": 2},
        "engine": {"kind": "mc", "replications": 4, "n_max": n_max, "grid": [n_max]},
        "seed": seed,
        "checks": [],
        "trajectory": {"n": n},
        "out_dir": "out",
    }
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_PASS
    steps = json.loads((tmp_path / "out" / "trajectory.json").read_text())["steps"]
    config = parse_experiment_config(doc, tmp_path)
    outcomes = draw_outcomes(config.problem, seed, 0, 1, n_max)
    origins = seed, np.zeros(1, dtype=np.uint64), 2 * n_max
    chosen, gate = _step_block(config.problem, config.algo, outcomes, origins, range(1, n_max + 1))
    rbars = gate.rbars(np.arange(1, n_max + 1), [0])
    assert len(steps) == n
    for step in steps:
        k = step["k"]
        assert step["chosen_index"] == chosen[k - 1][0], k
        assert step["rbar"] == (None if rbars is None else rbars[k - 1][0]), k


def test_trajectory_requires_seed_and_germ(tmp_path):
    doc = exact_config(tmp_path, trajectory={"n": 5})
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    doc = exact_config(tmp_path, algorithm={"kind": "erm"}, trajectory={"n": 5}, seed=1)
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG


def test_problem_file_source(tmp_path):
    problem_doc = {"name": "local", "probs": [0.5, 0.5], "losses": [[0.1, 0.9]]}
    (tmp_path / "local.json").write_text(json.dumps(problem_doc), encoding="utf-8")
    doc = exact_config(tmp_path)
    del doc["scenario"]
    doc["problem_file"] = "local.json"
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["source"] == "file:local.json"


def test_scenarios_list_prints_registry(capsys):
    assert main(["scenarios", "list"]) == EXIT_PASS
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 5
    for line in lines:
        assert "tags=" in line and "hypotheses=" in line


def test_curve_and_check_monotone_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "curves")
    code = main(["curve", "erm-dip-witness", "--algo", "erm", "--engine", "exact", "--n-max", "6", "--out", out])
    assert code == EXIT_PASS
    line = capsys.readouterr().out.strip()
    path = line.split("out=")[1]
    assert main(["check-monotone", path, "--tol", "1e-9"]) == EXIT_CHECK_FAILED
    verdict_line = capsys.readouterr().out.strip()
    assert "verdict=violated" in verdict_line and "worst_n=4" in verdict_line

    code = main(["curve", "single-hypothesis", "--algo", "germ:bernstein", "--engine", "exact", "--out", out])
    assert code == EXIT_PASS
    path = capsys.readouterr().out.strip().split("out=")[1]
    assert main(["check-monotone", path]) == EXIT_PASS


def test_check_monotone_rejects_nan_tolerance(tmp_path, capsys):
    out = str(tmp_path / "curves")
    assert main(["curve", "erm-dip-witness", "--algo", "erm", "--engine", "exact", "--n-max", "6", "--out", out]) == EXIT_PASS
    path = capsys.readouterr().out.strip().split("out=")[1]
    assert main(["check-monotone", path]) == EXIT_CHECK_FAILED
    capsys.readouterr()
    # a NaN tolerance would make every comparison false and pass any curve
    assert main(["check-monotone", path, "--tol", "nan"]) == EXIT_CONFIG
    assert "verdict" not in capsys.readouterr().out


def test_non_finite_monotone_tolerance_exits_2(tmp_path, capsys):
    # the exact ERM curve of the witness rises at n = 4; an infinite
    # tolerance would pass it
    out = str(tmp_path / "curves")
    assert main(["curve", "erm-dip-witness", "--algo", "erm", "--engine", "exact", "--n-max", "6", "--out", out]) == EXIT_PASS
    path = capsys.readouterr().out.strip().split("out=")[1]
    assert main(["check-monotone", path, "--tol", "1e999"]) == EXIT_CONFIG
    assert "verdict" not in capsys.readouterr().out
    doc = exact_config(
        tmp_path,
        scenario="erm-dip-witness",
        algorithm={"kind": "erm"},
        engine={"kind": "exact", "n_max": 6},
        checks=[{"check": "monotone", "tolerance": 1e999}],
    )
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_monotone_rejects_non_finite_stderr(tmp_path, capsys):
    # an MC curve that rises from 0.2 to 0.9; a NaN or infinite standard
    # error would widen the pooled tolerance until the rise passed
    path = tmp_path / "curve.csv"
    for stderr, code in (("0.0", EXIT_CHECK_FAILED), ("nan", EXIT_CONFIG), ("inf", EXIT_CONFIG)):
        path.write_text(
            "n,value,stderr,kind,problem,algo,seed\n"
            f"1,0.2,{stderr},mc,p,erm,1\n2,0.9,{stderr},mc,p,erm,1\n",
            encoding="utf-8",
        )
        assert main(["check-monotone", str(path)]) == code
        assert ("verdict" in capsys.readouterr().out) == (code == EXIT_CHECK_FAILED)


def test_exact_budget_refuses_a_huge_horizon(tmp_path):
    # the check decides without forming 3**100000000
    out = str(tmp_path / "curves")
    args = ["curve", "three-outcome-misspecified", "--engine", "exact", "--algo", "erm", "--n-max", "100000000"]
    assert main([*args, "--out", out]) == EXIT_RESOURCE
    doc = exact_config(tmp_path, engine={"kind": "exact", "n_max": 100_000_000})
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_RESOURCE


def test_curve_mc_needs_seed(tmp_path):
    out = str(tmp_path / "curves")
    assert main(["curve", "symmetric-coin", "--algo", "erm", "--engine", "mc", "--out", out]) == EXIT_CONFIG


def test_curve_mc_with_seed(tmp_path, capsys):
    out = str(tmp_path / "curves")
    code = main(
        [
            "curve", "symmetric-coin", "--algo", "germ:uniform-massart:init1", "--engine", "mc",
            "--seed", "3", "--out", out, "--replications", "50", "--n-max", "20", "--grid", "5,20",
        ]
    )
    assert code == EXIT_PASS
    assert "points=2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "algo",
    [
        "germ:bernstein:init0_1",  # int() reads 1
        "germ:bernstein:init 1",  # int() strips the space
        "germ:bernstein:init+1",
        "germ:bernstein:init\u0661",  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
        "germ:bernstein:init",
        "germ:fixed=1_0",  # float() reads 10.0
        "germ:fixed= 0.5",
        "germ:fixed=inf",
        "germ:fixed=1e999",  # float() overflows it to inf
        "germ:fixed=nan",
        "germ:fixed=-0.1",
    ],
)
def test_curve_refuses_a_loose_algo_spec(tmp_path, capsys, algo):
    out = str(tmp_path / "curves")
    code = main(["curve", "symmetric-coin", "--algo", algo, "--engine", "exact", "--n-max", "3", "--out", out])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "curves").exists()


@pytest.mark.parametrize(
    "options", [["--grid", "5,7"], ["--replications", "3"], ["--grid", "5,7", "--replications", "3"]]
)
def test_curve_exact_engine_refuses_mc_options(tmp_path, capsys, options):
    # the exact engine reads neither, and the config parser refuses them too
    out = str(tmp_path / "curves")
    code = main(["curve", "symmetric-coin", "--algo", "erm", "--engine", "exact", "--n-max", "4", "--out", out, *options])
    assert code == EXIT_CONFIG
    assert "the exact engine takes no grid or replications" in capsys.readouterr().err
    assert not (tmp_path / "curves").exists()


def test_curve_exact_engine_refuses_a_seed(tmp_path, capsys):
    # an exact curve reads no seed; an exact run's config keeps one for its trajectory
    out = str(tmp_path / "curves")
    code = main(["curve", "symmetric-coin", "--algo", "erm", "--engine", "exact", "--n-max", "4", "--seed", "3", "--out", out])
    assert code == EXIT_CONFIG
    assert "the exact engine takes no seed" in capsys.readouterr().err
    assert not (tmp_path / "curves").exists()


@pytest.mark.parametrize("grid", ["5,2_0", "5, 20", "5,+20", "5,\u0662\u0660", "5,,20", "5,20.0", "5,-20"])
def test_curve_refuses_a_grid_entry_that_is_not_decimal_digits(tmp_path, capsys, grid):
    out = str(tmp_path / "curves")
    code = main(
        [
            "curve", "symmetric-coin", "--algo", "erm", "--engine", "mc", "--seed", "3", "--out", out,
            "--replications", "5", "--n-max", "20", "--grid", grid,
        ]
    )
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "symmetric-coin", "--algo", "erm", "--engine", "mc", "--seed", "3", "--replications", "1_0"],
        ["curve", "symmetric-coin", "--algo", "erm", "--engine", "mc", "--seed", "3", "--n-max", " 20"],
        ["curve", "symmetric-coin", "--algo", "erm", "--engine", "mc", "--seed", "+3"],
        ["curve", "symmetric-coin", "--algo", "erm", "--engine", "exact", "--workers", "0_1"],
        ["rademacher", "symmetric-coin", "--k", "1_0", "--mode", "massart"],
    ],
)
def test_integer_options_refuse_what_is_not_decimal_digits(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "curves")] if argv[0] == "curve" else argv) == EXIT_CONFIG
    assert "must be ASCII decimal digits" in capsys.readouterr().err
    assert not (tmp_path / "curves").exists()


@pytest.mark.parametrize("value", ["0_0", " 1", "+1", "inf", "nan", "\u0661", "1_0", "-1", ""])
@pytest.mark.parametrize("option", ["--tol", "--beta"])
def test_real_options_refuse_what_is_not_a_decimal_number(tmp_path, capsys, option, value):
    # float() reads "0_0" as 0.0, " 1" as 1.0 and "\u0661" (ARABIC-INDIC DIGIT ONE) as 1.0
    path = tmp_path / "curve.csv"
    path.write_text("n,value,stderr,kind,problem,algo,seed\n1,0.2,,exact,p,erm,\n", encoding="utf-8")
    argv = ["check-monotone", str(path)] if option == "--tol" else ["bernstein", "symmetric-coin"]
    assert main([*argv, option, value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "must be a decimal number" in captured.err
    assert not captured.out


@pytest.mark.parametrize("value", ["0", ".5", "5e-2"])
def test_real_options_read_decimal_forms(tmp_path, capsys, value):
    path = tmp_path / "curve.csv"
    path.write_text("n,value,stderr,kind,problem,algo,seed\n1,0.1,,exact,p,erm,\n2,0.9,,exact,p,erm,\n", encoding="utf-8")
    # the curve rises by 0.8, past each tolerance
    assert main(["check-monotone", str(path), "--tol", value]) == EXIT_CHECK_FAILED
    assert f"tolerance={float(value)}" in capsys.readouterr().out
    assert main(["bernstein", "symmetric-coin", "--beta", value]) == EXIT_PASS
    assert f"beta={float(value)!r}" in capsys.readouterr().out


def test_parse_algo_spec_reads_decimal_forms():
    assert parse_algo_spec("germ:bernstein:init01", 2).initial_index == 1
    for text, value in (("0", 0.0), ("0.05", 0.05), ("5e-2", 0.05), (".5", 0.5), ("1.", 1.0), ("2E+1", 20.0)):
        assert parse_algo_spec(f"germ:fixed={text}", 2).gap == FixedDelta(value)


def test_rademacher_subcommand(capsys):
    assert main(["rademacher", "biased-coin-massart", "--k", "10", "--mode", "massart"]) == EXIT_PASS
    assert "mode=massart" in capsys.readouterr().out
    assert main(["rademacher", "biased-coin-massart", "--k", "4", "--mode", "exact"]) == EXIT_PASS
    capsys.readouterr()
    assert main(["rademacher", "biased-coin-massart", "--k", "6", "--mode", "empirical", "--seed", "2"]) == EXIT_PASS
    capsys.readouterr()
    assert main(["rademacher", "biased-coin-massart", "--k", "6", "--mode", "empirical"]) == EXIT_CONFIG
    assert main(["rademacher", "three-outcome-misspecified", "--k", "40", "--mode", "exact"]) == EXIT_PASS
    capsys.readouterr()
    # C(63 + 5, 5) = 10,424,128 signed count vectors pass the 10^7 budget
    assert main(["rademacher", "three-outcome-misspecified", "--k", "63", "--mode", "exact"]) == EXIT_RESOURCE


def test_rademacher_empirical_is_the_single_draw_bound(capsys):
    # k outcomes, then k signs, from stream (seed, 0)
    problem = load_scenario("three-outcome-misspecified").problem
    for k, seed in ((1, 0), (6, 2), (40, 9)):
        assert main(["rademacher", "three-outcome-misspecified", "--k", str(k), "--mode", "empirical", "--seed", str(seed)]) == EXIT_PASS
        gen = philox_stream(seed, 0)
        sample = draw_sample(problem, k, gen)
        want = rbar_from_signs(problem.loss, sample, draw_signs(gen, k))
        assert capsys.readouterr().out.strip().endswith(f"value={want!r}")


def test_bernstein_subcommand(capsys):
    assert main(["bernstein", "symmetric-coin", "--beta", "0"]) == EXIT_PASS
    assert "minimal_B=1.0" in capsys.readouterr().out
    assert main(["bernstein", "symmetric-coin", "--beta", "1"]) == EXIT_PASS
    assert "minimal_B=inf" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG


def test_parse_algo_spec():
    assert isinstance(parse_algo_spec("erm", 3), PlainErm)
    algo = parse_algo_spec("germ:uniform-empirical", 3)
    assert isinstance(algo.gap.variant.mode, EmpiricalMcDiarmid)
    assert algo.initial_index == 0
    algo = parse_algo_spec("germ:uniform-massart:init2", 3)
    assert isinstance(algo.gap.variant.mode, MassartDeterministic)
    assert algo.initial_index == 2
    algo = parse_algo_spec("germ:bernstein", 4)
    assert isinstance(algo.gap.variant, EmpiricalBernstein)
    assert algo.gap.class_size == 4
    algo = parse_algo_spec("germ:fixed=0.25", 2)
    assert algo.gap == FixedDelta(0.25)
    for bad in ("germ", "germ:unknown", "erm:extra", "germ:uniform-massart:k2", "germ:uniform-massart:init1:more"):
        with pytest.raises(ValueError):
            parse_algo_spec(bad, 2)


def test_every_label_but_a_constant_schedules_reads_back():
    # a constant schedule's label omits its values
    gaps = [FixedDelta(x) for x in (0.0, 0.05, 0.3, 1e-05, 5e-324, 1.0)]
    for H in (1, 3):
        algos = [PlainErm()] + [
            GermAlgorithm(gap=gap, initial_index=i)
            for gap in gaps + [GapSpec(variant, H) for variant in GAP_CODES.values()]
            for i in range(H)
        ]
        for algo in algos:
            assert parse_algo_spec(algo_label(algo), H) == algo


def _gap(gap):
    def change(doc, tmp_path, monkeypatch):
        doc["algorithm"]["gap"] = gap
    return change


def _out_dir(value):
    def change(doc, tmp_path, monkeypatch):
        doc["out_dir"] = value
    return change


def _problem_file_with_a_source(doc, tmp_path, monkeypatch):
    problem = problem_to_dict(load_scenario("symmetric-coin").problem)
    (tmp_path / "problem.json").write_text(json.dumps({**problem, "source": "by hand"}), encoding="utf-8")
    del doc["scenario"]
    doc["problem_file"] = "problem.json"


def _witness_copy(extend):
    # a copy of the witness scenario, loaded from GERM_DATA_DIR, with one
    # more field in its witness or erm_curve
    def change(doc, tmp_path, monkeypatch):
        scenario = json.loads((scenario_dir() / "erm-dip-witness.json").read_text(encoding="utf-8"))
        extend(scenario["witness"])
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "erm-dip-witness.json").write_text(json.dumps(scenario), encoding="utf-8")
        monkeypatch.setenv("GERM_DATA_DIR", str(tmp_path / "data"))
        doc["scenario"] = "erm-dip-witness"
    return change


def _refused_config_file(doc, tmp_path, monkeypatch):
    # the config that CI's run of the installed germ script must refuse
    doc.clear()
    doc.update(json.loads((Path(__file__).parent / "data" / "refused" / "bernstein-mode.json").read_text(encoding="utf-8")))


@pytest.mark.parametrize(
    "change",
    [
        _gap({"variant": "bernstein", "mode": "massart"}),
        _gap({"variant": "bernstein", "value": 0.3}),
        _gap({"variant": "bernstein", "values": [9]}),
        _gap({"variant": "fixed", "value": 0.3, "mode": "massart"}),
        _gap({"variant": "uniform", "mode": "massart", "values": [9]}),
        _problem_file_with_a_source,
        _witness_copy(lambda witness: witness.update(found_by="search")),
        _witness_copy(lambda witness: witness["erm_curve"].update(stderr=[0.0] * 6)),
        _out_dir(None),
        _out_dir(7),
        _out_dir(["a", 1]),
        _refused_config_file,
    ],
    ids=[
        "bernstein-mode",
        "bernstein-value",
        "bernstein-values",
        "fixed-mode",
        "massart-values",
        "problem-file-field",
        "witness-field",
        "erm-curve-field",
        "out-dir-null",
        "out-dir-number",
        "out-dir-list",
        "refused-config-file",
    ],
)
def test_a_document_with_a_field_it_cannot_take_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, change):
    monkeypatch.delenv("GERM_DATA_DIR", raising=False)
    doc = exact_config(tmp_path, scenario="symmetric-coin", engine={"kind": "exact", "n_max": 4})
    change(doc, tmp_path, monkeypatch)
    path = write_config(tmp_path, doc)
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", path]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_config_defaults_echoed(tmp_path):
    doc = {
        "scenario": "symmetric-coin",
        "algorithm": {"kind": "erm"},
        "engine": {"kind": "mc", "replications": 40, "n_max": 200},
        "seed": 1,
        "checks": [],
        "out_dir": "out",
    }
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["grid"] == [10, 20, 50, 100, 200]
    assert report["config"]["n_max"] == 200


def test_default_mc_grid_fits_n_max(tmp_path, capsys):
    # as germ curve does, the default grid keeps its points up to n_max
    doc = {
        "scenario": "symmetric-coin",
        "algorithm": {"kind": "erm"},
        "engine": {"kind": "mc", "replications": 40, "n_max": 100},
        "seed": 1,
        "out_dir": "out",
    }
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["grid"] == [10, 20, 50, 100]
    out = str(tmp_path / "curves")
    capsys.readouterr()
    argv = ["curve", "symmetric-coin", "--algo", "erm", "--engine", "mc", "--seed", "1", "--replications", "40"]
    assert main([*argv, "--n-max", "100", "--out", out]) == EXIT_PASS
    assert "points=4" in capsys.readouterr().out


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file", encoding="utf-8")
    doc = exact_config(tmp_path, out_dir="blocker/out")
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unexpected_exception_exits_4(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("planted defect")

    monkeypatch.setattr(germ.cli, "_cmd_bernstein", broken)
    assert main(["bernstein", "symmetric-coin", "--beta", "1.0"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: planted defect\n"


def integer_fields_config():
    return {
        "scenario": "symmetric-coin",
        "algorithm": {"kind": "germ", "gap": {"variant": "uniform", "mode": "massart"}},
        "engine": {"kind": "mc", "replications": 20, "n_max": 8, "grid": [4, 8]},
        "seed": 1,
        "trajectory": {"n": 8},
        "checks": [],
        "out_dir": "out",
    }


@pytest.mark.parametrize("bad", [4.9, True, "8"])
@pytest.mark.parametrize(
    "where",
    ["exact.n_max", "mc.n_max", "mc.replications", "mc.grid", "seed", "trajectory.n", "initial_index"],
)
def test_non_integral_config_values_exit_2(tmp_path, where, bad):
    doc = integer_fields_config()
    if where == "exact.n_max":
        doc["engine"] = {"kind": "exact", "n_max": bad}
        del doc["seed"], doc["trajectory"]
    elif where.startswith("mc."):
        key = where[len("mc."):]
        doc["engine"][key] = [4, bad] if key == "grid" else bad
    elif where == "trajectory.n":
        doc["trajectory"]["n"] = bad
    elif where == "initial_index":
        doc["algorithm"]["initial_index"] = bad
    else:
        doc["seed"] = bad
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "changes",
    [
        {"seed": -1},
        {"seed": 2**64},
        {"engine": {"kind": "exact", "n_max": 4}, "seed": -1},
        {"engine": {"kind": "exact", "n_max": 0}, "seed": None, "trajectory": None},
        {"engine": {"kind": "mc", "replications": 20, "n_max": 0}, "trajectory": None},
        {"engine": {"kind": "mc", "replications": 0, "n_max": 8, "grid": [4, 8]}},
        {"engine": {"kind": "mc", "replications": 20, "n_max": 8, "grid": [8, 4]}},
        {"engine": {"kind": "mc", "replications": 20, "n_max": 8, "grid": [4, 9]}},
        {"algorithm": {"kind": "germ", "gap": {"variant": "uniform", "mode": "massart"}, "initial_index": 5}},
        # a constant schedule that covers n_max but not the trajectory
        {"algorithm": {"kind": "germ", "gap": {"variant": "uniform", "mode": "constant", "values": [0.1] * 8}}, "trajectory": {"n": 10}},
        {"trajectory": {"n": 0}},
        {"trajectory": {"n": -1}},
    ],
    ids=[
        "mc-seed-negative",
        "mc-seed-past-64-bits",
        "exact-trajectory-seed-negative",
        "exact-n_max-0",
        "mc-n_max-0",
        "replications-0",
        "grid-decreasing",
        "grid-past-n_max",
        "initial-index-out-of-class",
        "constant-gap-short-of-trajectory",
        "trajectory-n-0",
        "trajectory-n-negative",
    ],
)
def test_out_of_range_config_values_exit_2_before_any_output(tmp_path, capsys, changes):
    doc = integer_fields_config()
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    trajectory = changes.get("trajectory")
    if trajectory and trajectory["n"] < 1:
        assert f"got n={trajectory['n']}" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["12345678901234567.0", "9007199254740992.0", "1e17"])
def test_integral_floats_a_float_cannot_hold_exit_2(tmp_path, capsys, literal):
    # JSON reads 12345678901234567.0 as the float 12345678901234568.0, and
    # from 2**53 on a float may be the rounding of a neighbouring integer
    path = tmp_path / "config.json"
    path.write_text(json.dumps(integer_fields_config()).replace('"seed": 1', f'"seed": {literal}'))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "2**53" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_large_json_integers_stay_exact(tmp_path):
    doc = integer_fields_config()
    doc["seed"] = 12345678901234567
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 12345678901234567


def test_grid_must_be_a_list(tmp_path):
    doc = integer_fields_config()
    doc["engine"]["grid"] = 8
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG


def test_integral_floats_are_accepted(tmp_path):
    assert main(["run", write_config(tmp_path, integer_fields_config())]) == EXIT_PASS
    doc = exact_config(tmp_path, engine={"kind": "exact", "n_max": 4.0})
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["n_max"] == 4


def float_fields_config():
    return {
        "scenario": "biased-coin-massart",
        "algorithm": {"kind": "germ", "gap": {"variant": "fixed", "value": 0.1}},
        "engine": {"kind": "mc", "replications": 20, "n_max": 40, "grid": [4, 40]},
        "seed": 1,
        "checks": [
            {"check": "monotone", "tolerance": 1},
            {"check": "coverage", "event": "pairwise-bernstein", "delta": 0.5, "level": 0},
            {"check": "decay", "beta": 1},
        ],
        "out_dir": "out",
    }


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "Infinity", "NaN"])
@pytest.mark.parametrize("where", ["value", "values", "level", "beta"])
def test_non_finite_config_floats_exit_2(tmp_path, capsys, where, literal):
    # JSON reads 1e999 as inf: the number parses, but no float holds it
    doc = float_fields_config()
    marker = 0.4375
    if where == "value":
        doc["algorithm"]["gap"]["value"] = marker
    elif where == "values":
        doc["algorithm"]["gap"] = {"variant": "uniform", "mode": "constant", "values": [0.1] * 39 + [marker]}
    elif where == "level":
        doc["checks"][1]["level"] = marker
    else:
        doc["checks"][2]["beta"] = marker
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace(repr(marker), literal))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integers_fill_float_fields(tmp_path):
    assert main(["run", write_config(tmp_path, float_fields_config())]) != EXIT_CONFIG
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [type(c.get("tolerance", c.get("level", c.get("beta")))) for c in report["config"]["checks"]] == [float] * 3
    doc = float_fields_config()
    doc["algorithm"]["gap"] = {"variant": "uniform", "mode": "constant", "values": [1] * 40}
    assert main(["run", write_config(tmp_path, doc)]) != EXIT_CONFIG


# an explicit null tolerance means the default, like an absent one
@pytest.mark.parametrize(
    "where, bad",
    [
        (where, bad)
        for where in ("tolerance", "level", "delta", "beta", "value", "values")
        for bad in (True, "0.5", None, [1], 10**400)
        if not (where == "tolerance" and bad is None)
    ],
)
def test_non_numeric_config_floats_exit_2(tmp_path, capsys, where, bad):
    doc = float_fields_config()
    if where == "tolerance":
        doc["checks"][0]["tolerance"] = bad
    elif where in ("level", "delta"):
        doc["checks"][1][where] = bad
    elif where == "beta":
        doc["checks"][2]["beta"] = bad
    elif where == "value":
        doc["algorithm"]["gap"]["value"] = bad
    else:
        doc["algorithm"]["gap"] = {"variant": "uniform", "mode": "constant", "values": [bad] + [0.1] * 39}
    assert main(["run", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_importing_germ_leaves_the_generator_and_the_pool_unloaded():
    # numpy.random and the process pool load on first use, in a process
    # that draws or starts workers; the import of germ pays for neither
    code = (
        "import sys, germ.cli, germ.oracle, germ.montecarlo, germ.scenarios; "
        "print(sorted(m for m in ('numpy.random', 'concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(germ.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "[]\n"


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_run_reproduces_the_golden_artifacts(tmp_path, name):
    # each golden directory holds a config and the files an earlier
    # ``germ run`` wrote for it
    shutil.copy(GOLDEN / name / "config.json", tmp_path)
    assert main(["run", str(tmp_path / "config.json")]) == EXIT_PASS
    want = GOLDEN / name / "out"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (tmp_path / "out" / path.name).read_bytes() == path.read_bytes(), path.name


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64) - 1, 10**300]),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e22, 1e16, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(["é", " ", "\U0001f600", '"', "\\", "\x00", "\x1f\n\t", "\ud800"]),
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(['"', "é", "\x7f"]), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_JSON_DOCS)
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path, doc):
    path = tmp_path / "doc.json"
    _write_json(path, doc)
    assert path.read_bytes() == json_text(doc).encode()


@pytest.mark.parametrize(
    "doc",
    [{1, 2}, np.int64(3), {"a": [np.int64(1)]}, [np.float32(0.5)], {"a": np.bool_(True)}, {"a": frozenset()}, object()],
    ids=["set", "int64", "nested-int64", "float32", "bool_", "nested-frozenset", "object"],
)
def test_write_json_raises_type_error_where_json_dumps_does(tmp_path, doc):
    with pytest.raises(TypeError):
        json_text(doc)
    with pytest.raises(TypeError):
        _write_json(tmp_path / "doc.json", doc)
