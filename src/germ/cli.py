"""Experiment runner and diagnostic subcommands.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 invalid arguments or configuration, or an input or output file that
cannot be read or written, 3 an exact sum exceeded its budget (count
vectors for Rademacher values and pairwise coverage, sequences for exact
curves), 4 an unexpected internal error (any other exception).
Every subcommand prints one machine-parseable summary line of
space-separated key=value pairs to standard output.

Reports are byte-stable: the report JSON embeds only artifact basenames
and never the output directory or worker count, so reruns of the same
configuration produce identical bytes regardless of where results land or
how many processes computed them.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algorithm import (
    AlgorithmSpec,
    GermAlgorithm,
    PlainErm,
    algo_label,
    check_algorithm,
    run_germ,
    trajectory_to_dict,
)
from .analysis import bernstein_certificate
from .errors import ResourceLimitError
from .gap import (
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
    UserConstant,
    is_randomized,
)
from .montecarlo import (
    EstimatorDeviationEvent,
    ExcessBoundEvent,
    McConfig,
    PairwiseBernsteinEvent,
    coverage_to_csv,
    excess_risk_decay,
    mc_experiment,
    mc_risk_curve,
)
from .oracle import check_monotone, exact_risk_curve, read_curve, write_curve
from .problem import LearningProblem, draw_sample, load_problem
from .rademacher import _rbars, exact_rademacher, rbar_massart
from .rng import _check_key, philox_stream
from .scenarios import builtin_scenarios, load_scenario

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

MC_DEFAULT_REPLICATIONS = 2000
MC_DEFAULT_N_MAX = 200
MC_DEFAULT_GRID = (10, 20, 50, 100, 200)


@dataclass(frozen=True)
class MonotoneCheck:
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.tolerance is not None and not 0.0 <= self.tolerance < math.inf:
            raise ValueError(f"monotone tolerance must be finite and >= 0, got {self.tolerance!r}")


@dataclass(frozen=True)
class CoverageCheck:
    event: str
    level: float
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.event not in ("excess-bound", "estimator-deviation", "pairwise-bernstein"):
            raise ValueError(f"unknown coverage event {self.event!r}")
        needs_delta = self.event != "excess-bound"
        if needs_delta != (self.delta is not None):
            raise ValueError(f"coverage event {self.event!r} takes a delta exactly when it is not excess-bound")
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"coverage level must lie in [0, 1], got {self.level!r}")


@dataclass(frozen=True)
class DecayCheck:
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"decay beta must lie in [0, 1], got {self.beta!r}")


Check = MonotoneCheck | CoverageCheck | DecayCheck


@dataclass(frozen=True)
class TrajectoryRequest:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"trajectory length must be >= 1, got {self.n}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: problem, algorithm, engine, checks."""

    source: str
    problem: LearningProblem
    algo: AlgorithmSpec
    engine: str
    n_max: int
    checks: tuple[Check, ...]
    out_dir: Path
    replications: int | None = None
    grid: tuple[int, ...] | None = None
    seed: int | None = None
    trajectory: TrajectoryRequest | None = None

    def __post_init__(self) -> None:
        if self.engine not in ("exact", "mc"):
            raise ValueError(f"engine must be exact or mc, got {self.engine!r}")
        if self.engine == "mc":
            if self.seed is None:
                raise ValueError("the mc engine requires a seed")
            if self.replications is None or self.grid is None:
                raise ValueError("the mc engine requires replications and a grid")
        else:
            if isinstance(self.algo, GermAlgorithm) and is_randomized(self.algo.gap):
                raise ValueError("the exact engine requires a deterministic gap mode")
            for check in self.checks:
                if isinstance(check, (CoverageCheck, DecayCheck)):
                    raise ValueError("coverage and decay checks require the mc engine")
        if self.trajectory is not None:
            if self.seed is None:
                raise ValueError("a trajectory request requires a seed")
            if not isinstance(self.algo, GermAlgorithm):
                raise ValueError("trajectories are recorded for the gated loop only")
        # the checks the engines and the trajectory run, made here so that a
        # value out of range exits before run_experiment makes out_dir
        check_algorithm(self.algo, self.problem.class_size, self.n_max)
        if self.engine == "mc":
            McConfig(self.replications, self.n_max, self.seed, self.grid)
        if self.trajectory is not None:
            check_algorithm(self.algo, self.problem.class_size, self.trajectory.n)
            _check_key(self.seed, 0)


@dataclass(frozen=True)
class ExperimentResult:
    exit_code: int
    report_path: Path
    curve_path: Path
    coverage_paths: dict[str, Path]
    trajectory_path: Path | None


_DIGITS = re.compile(r"[0-9]+")
_DECIMAL = re.compile(r"([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _digits(text: str, what: str) -> int:
    """The integer that ``text`` writes in ASCII decimal digits and nothing else."""
    if not _DIGITS.fullmatch(text):
        raise ValueError(f"{what} must be ASCII decimal digits, got {text!r}")
    return int(text)


def _decimal(text: str, what: str) -> float:
    """The number that ``text`` writes as an ASCII decimal such as 0.05, .5
    or 5e-2, with no sign, space or underscore, and that a float holds
    without overflowing to inf."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{what} must be a decimal number, got {text!r}")
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return value


def _option_int(text: str) -> int:
    """The value of an integer option, in ASCII decimal digits only."""
    try:
        return _digits(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _option_float(text: str) -> float:
    """The value of a real-valued option, an ASCII decimal number only."""
    try:
        return _decimal(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_algo_spec(text: str, class_size: int) -> AlgorithmSpec:
    """Parse a colon-separated algorithm label into an algorithm spec.

    Grammar: ``erm`` or ``germ:<gap>[:init<i>]`` with gap one of
    uniform-empirical, uniform-massart, bernstein, or fixed=<x>.  ``<i>``
    is ASCII decimal digits and ``<x>`` a decimal number in ASCII digits
    such as 0.05 or 5e-2, with no sign, space or underscore.  The
    uniform-constant mode needs a value sequence, so it is reachable only
    through config files.
    """
    if text == "erm":
        return PlainErm()
    parts = text.split(":")
    if parts[0] != "germ" or len(parts) < 2 or len(parts) > 3:
        raise ValueError(f"cannot parse algorithm spec {text!r}")
    initial = 0
    if len(parts) == 3:
        if not parts[2].startswith("init"):
            raise ValueError(f"cannot parse algorithm spec {text!r}")
        initial = _digits(parts[2][len("init"):], "the initial index")
    gap_text = parts[1]
    if gap_text == "uniform-empirical":
        gap = GapSpec(UniformConvergence(EmpiricalMcDiarmid()), class_size)
    elif gap_text == "uniform-massart":
        gap = GapSpec(UniformConvergence(MassartDeterministic()), class_size)
    elif gap_text == "bernstein":
        gap = GapSpec(EmpiricalBernstein(), class_size)
    elif gap_text.startswith("fixed="):
        gap = FixedDelta(_decimal(gap_text[len("fixed="):], "the fixed gap"))
    else:
        raise ValueError(f"unknown gap {gap_text!r} in algorithm spec {text!r}")
    return GermAlgorithm(gap=gap, initial_index=initial)


def _config_int(value, field: str) -> int:
    """An integer config value; booleans, fractional numbers and integral
    floats of magnitude 2**53 or more, which may be the rounding of another
    integer, are errors."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if isinstance(value, float) and abs(value) >= 2.0**53:
        raise ValueError(f"{field} of 2**53 or more must be written without a point or exponent, got {value!r}")
    return int(value)


def _config_float(value, field: str) -> float:
    """A finite real config value; booleans, strings, null, lists, integers
    too large for a float, inf and nan are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{field} is too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{field} must be finite, got {value!r}")
    return value


def _algo_from_config(doc: dict, class_size: int, n_max: int) -> AlgorithmSpec:
    unknown = set(doc) - {"kind", "gap", "initial_index", "learner"}
    if unknown:
        raise ValueError(f"unknown algorithm fields {sorted(unknown)}")
    kind = doc.get("kind")
    if kind == "erm":
        if set(doc) - {"kind"}:
            raise ValueError("the erm algorithm takes no further fields")
        return PlainErm()
    if kind != "germ":
        raise ValueError(f"algorithm kind must be erm or germ, got {kind!r}")
    learner = doc.get("learner", "erm-lowest")
    if learner != "erm-lowest":
        raise ValueError(f"the only config learner is erm-lowest, got {learner!r}")
    gap_doc = doc.get("gap")
    if not isinstance(gap_doc, dict):
        raise ValueError("a germ algorithm needs a gap object")
    unknown = set(gap_doc) - {"variant", "mode", "values", "value"}
    if unknown:
        raise ValueError(f"unknown gap fields {sorted(unknown)}")
    variant = gap_doc.get("variant")
    if variant == "uniform":
        mode_name = gap_doc.get("mode")
        if mode_name == "empirical":
            mode = EmpiricalMcDiarmid()
        elif mode_name == "massart":
            mode = MassartDeterministic()
        elif mode_name == "constant":
            values = gap_doc.get("values")
            if not isinstance(values, list) or len(values) < n_max:
                raise ValueError(f"the constant mode needs a values list covering n_max={n_max}")
            mode = UserConstant(tuple(_config_float(v, "algorithm.gap.values entry") for v in values))
        else:
            raise ValueError(f"unknown uniform mode {mode_name!r}")
        gap = GapSpec(UniformConvergence(mode), class_size)
    elif variant == "bernstein":
        gap = GapSpec(EmpiricalBernstein(), class_size)
    elif variant == "fixed":
        if "value" not in gap_doc:
            raise ValueError("the fixed gap needs a value")
        gap = FixedDelta(_config_float(gap_doc["value"], "algorithm.gap.value"))
    else:
        raise ValueError(f"unknown gap variant {variant!r}")
    return GermAlgorithm(gap=gap, initial_index=_config_int(doc.get("initial_index", 0), "algorithm.initial_index"))


def _check_from_config(doc: dict) -> Check:
    if not isinstance(doc, dict) or "check" not in doc:
        raise ValueError(f"each check needs a 'check' field, got {doc!r}")
    kind = doc["check"]
    if kind == "monotone":
        unknown = set(doc) - {"check", "tolerance"}
        if unknown:
            raise ValueError(f"unknown monotone fields {sorted(unknown)}")
        tol = doc.get("tolerance")
        return MonotoneCheck(tolerance=None if tol is None else _config_float(tol, "monotone tolerance"))
    if kind == "coverage":
        unknown = set(doc) - {"check", "event", "delta", "level"}
        if unknown:
            raise ValueError(f"unknown coverage fields {sorted(unknown)}")
        if "event" not in doc or "level" not in doc:
            raise ValueError("coverage checks need event and level")
        delta = doc.get("delta")
        return CoverageCheck(
            event=str(doc["event"]),
            level=_config_float(doc["level"], "coverage level"),
            delta=None if delta is None else _config_float(delta, "coverage delta"),
        )
    if kind == "decay":
        unknown = set(doc) - {"check", "beta"}
        if unknown:
            raise ValueError(f"unknown decay fields {sorted(unknown)}")
        if "beta" not in doc:
            raise ValueError("decay checks need beta")
        return DecayCheck(beta=_config_float(doc["beta"], "decay beta"))
    raise ValueError(f"unknown check kind {kind!r}")


def parse_experiment_config(doc: dict, config_dir: Path) -> ExperimentConfig:
    """Validate a config document; unknown fields anywhere are errors."""
    if not isinstance(doc, dict):
        raise ValueError("the config document must be a JSON object")
    allowed = {"scenario", "problem_file", "algorithm", "engine", "seed", "checks", "out_dir", "trajectory"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")
    has_scenario = "scenario" in doc
    has_file = "problem_file" in doc
    if has_scenario == has_file:
        raise ValueError("exactly one of scenario or problem_file is required")
    if has_scenario:
        problem = load_scenario(str(doc["scenario"])).problem
        source = f"scenario:{doc['scenario']}"
    else:
        path = Path(str(doc["problem_file"]))
        if not path.is_absolute():
            path = config_dir / path
        problem = load_problem(path)
        source = f"file:{doc['problem_file']}"

    engine_doc = doc.get("engine")
    if not isinstance(engine_doc, dict) or "kind" not in engine_doc:
        raise ValueError("the engine object needs a kind")
    kind = engine_doc["kind"]
    if kind == "exact":
        unknown = set(engine_doc) - {"kind", "n_max"}
        if unknown:
            raise ValueError(f"unknown exact-engine fields {sorted(unknown)}")
        n_max = _config_int(engine_doc.get("n_max", 8), "engine.n_max")
        replications = None
        grid = None
    elif kind == "mc":
        unknown = set(engine_doc) - {"kind", "n_max", "replications", "grid"}
        if unknown:
            raise ValueError(f"unknown mc-engine fields {sorted(unknown)}")
        n_max = _config_int(engine_doc.get("n_max", MC_DEFAULT_N_MAX), "engine.n_max")
        replications = _config_int(engine_doc.get("replications", MC_DEFAULT_REPLICATIONS), "engine.replications")
        grid_doc = engine_doc.get("grid")
        if grid_doc is not None and not isinstance(grid_doc, list):
            raise ValueError(f"engine.grid must be a list, got {grid_doc!r}")
        if grid_doc is None:
            grid = tuple(n for n in MC_DEFAULT_GRID if n <= n_max)
        else:
            grid = tuple(_config_int(n, "engine.grid entry") for n in grid_doc)
    else:
        raise ValueError(f"engine kind must be exact or mc, got {kind!r}")

    if "algorithm" not in doc or not isinstance(doc["algorithm"], dict):
        raise ValueError("the config needs an algorithm object")
    algo = _algo_from_config(doc["algorithm"], problem.class_size, n_max)

    checks_doc = doc.get("checks", [])
    if not isinstance(checks_doc, list):
        raise ValueError("checks must be a list")
    checks = tuple(_check_from_config(c) for c in checks_doc)
    events = [c.event for c in checks if isinstance(c, CoverageCheck)]
    for event in events:
        if events.count(event) > 1:
            raise ValueError(f"coverage event {event!r} is checked more than once; it has one coverage-{event}.csv")

    seed = doc.get("seed")
    if seed is not None:
        seed = _config_int(seed, "seed")

    trajectory = None
    if "trajectory" in doc:
        traj_doc = doc["trajectory"]
        if not isinstance(traj_doc, dict) or set(traj_doc) - {"n"}:
            raise ValueError("the trajectory request takes exactly the field n")
        trajectory = TrajectoryRequest(n=_config_int(traj_doc.get("n", n_max), "trajectory.n"))

    out_dir = Path(str(doc.get("out_dir", "results")))
    if not out_dir.is_absolute():
        out_dir = config_dir / out_dir

    return ExperimentConfig(
        source=source,
        problem=problem,
        algo=algo,
        engine=kind,
        n_max=n_max,
        checks=checks,
        out_dir=out_dir,
        replications=replications,
        grid=grid,
        seed=seed,
        trajectory=trajectory,
    )


def _json_safe(value):
    """Recursively make a report or trajectory value JSON-serializable and byte-stable."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_json(path: Path, doc) -> None:
    """Write ``doc`` byte-stably: sorted keys, two-space indent, non-finite floats as strings."""
    path.write_text(json.dumps(_json_safe(doc), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check_echo(check: Check) -> dict:
    if isinstance(check, MonotoneCheck):
        return {"check": "monotone", "tolerance": check.tolerance}
    if isinstance(check, CoverageCheck):
        echo = {"check": "coverage", "event": check.event, "level": check.level}
        if check.delta is not None:
            echo["delta"] = check.delta
        return echo
    return {"check": "decay", "beta": check.beta}


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {
        "source": config.source,
        "algorithm": algo_label(config.algo),
        "engine": config.engine,
        "n_max": config.n_max,
        "checks": [_check_echo(c) for c in config.checks],
    }
    if config.engine == "mc":
        echo["replications"] = config.replications
        echo["grid"] = list(config.grid)
    if config.seed is not None:
        echo["seed"] = config.seed
    if config.trajectory is not None:
        echo["trajectory"] = {"n": config.trajectory.n}
    return echo


def _coverage_event(check: CoverageCheck, config: ExperimentConfig):
    if check.event == "excess-bound":
        if not isinstance(config.algo, GermAlgorithm):
            raise ValueError("the excess-bound event needs a germ algorithm")
        return ExcessBoundEvent(config.algo)
    if check.event == "estimator-deviation":
        return EstimatorDeviationEvent(delta=check.delta)
    return PairwiseBernsteinEvent(delta=check.delta)


def _run_checks(config: ExperimentConfig, curve, coverages, mc_cfg, workers: int, out_dir: Path):
    """Judge each check; ``coverages`` holds the coverage checks' results in order."""
    entries = []
    coverage_paths: dict[str, Path] = {}
    all_passed = True
    coverages = iter(coverages)
    for check in config.checks:
        if isinstance(check, MonotoneCheck):
            report = check_monotone(curve, tolerance=check.tolerance)
            passed = report.verdict == "monotone"
            details = {
                "verdict": report.verdict,
                "max_increase": report.max_increase,
                "tolerance": report.tolerance,
                "violations": [list(v) for v in report.violations],
            }
        elif isinstance(check, CoverageCheck):
            result = next(coverages)
            path = out_dir / f"coverage-{check.event}.csv"
            path.write_text(coverage_to_csv(result), encoding="utf-8")
            coverage_paths[check.event] = path
            passed = all(c >= check.level for c in result.coverages)
            details = {
                "ns": list(result.ns),
                "coverages": list(result.coverages),
                "floors": list(result.floors),
                "level": check.level,
                "min_coverage": min(result.coverages),
            }
        else:
            fit = excess_risk_decay(config.problem, config.algo, mc_cfg, check.beta, curve=curve, workers=workers)
            passed = (not fit.degenerate) and fit.slope <= fit.slope_bound
            details = {
                "slope": fit.slope,
                "slope_bound": fit.slope_bound,
                "intercept": fit.intercept,
                "residual": fit.residual,
                "degenerate": fit.degenerate,
                "ns": list(fit.ns),
                "excesses": list(fit.excesses),
            }
        all_passed = all_passed and passed
        entries.append({**_check_echo(check), "passed": passed, "details": details})
    return entries, coverage_paths, all_passed


def run_experiment(config: ExperimentConfig, *, workers: int = 1) -> ExperimentResult:
    """Execute one experiment and write curve, coverage, and report files."""
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    # an event the algorithm cannot run is refused before any simulation
    events = tuple(_coverage_event(c, config) for c in config.checks if isinstance(c, CoverageCheck))
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    mc_cfg = None
    coverages = ()
    if config.engine == "exact":
        curve = exact_risk_curve(config.problem, config.algo, config.n_max, workers=workers)
    else:
        mc_cfg = McConfig(
            replications=config.replications,
            n_max=config.n_max,
            base_seed=config.seed,
            grid=config.grid,
        )
        curve, coverages = mc_experiment(config.problem, config.algo, mc_cfg, events, workers=workers)
    curve_path = out_dir / "curve.csv"
    write_curve(curve, curve_path)

    trajectory_path = None
    if config.trajectory is not None:
        n = config.trajectory.n
        sample = draw_sample(config.problem, n, philox_stream(config.seed, 0))
        # the signs follow the sample's n words in stream (seed, 0)
        trajectory = run_germ(
            config.problem,
            sample,
            config.algo.gap,
            initial=config.algo.initial_index,
            origin=(config.seed, 0, 2 * n),
        )
        trajectory_path = out_dir / "trajectory.json"
        _write_json(trajectory_path, trajectory_to_dict(trajectory))

    check_entries, coverage_paths, all_passed = _run_checks(config, curve, coverages, mc_cfg, workers, out_dir)

    report = {
        "tool": {"name": "germ", "version": __version__},
        "config": _config_echo(config),
        "artifacts": {
            "curve_csv": curve_path.name,
            "coverage_csv": {event: path.name for event, path in sorted(coverage_paths.items())},
            "trajectory_json": trajectory_path.name if trajectory_path else None,
        },
        "checks": check_entries,
        "passed": all_passed,
    }
    report_path = out_dir / "report.json"
    _write_json(report_path, report)
    return ExperimentResult(
        exit_code=EXIT_PASS if all_passed else EXIT_CHECK_FAILED,
        report_path=report_path,
        curve_path=curve_path,
        coverage_paths=coverage_paths,
        trajectory_path=trajectory_path,
    )


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        doc = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: no config file {config_path}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: malformed config JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    config = parse_experiment_config(doc, config_path.resolve().parent)
    result = run_experiment(config, workers=args.workers)
    n_checks = len(config.checks)
    n_passed = sum(1 for entry in json.loads(result.report_path.read_text())["checks"] if entry["passed"])
    status = "pass" if result.exit_code == EXIT_PASS else "fail"
    print(
        f"run source={config.source} engine={config.engine} "
        f"checks={n_passed}/{n_checks} status={status} report={result.report_path}"
    )
    return result.exit_code


def _cmd_scenarios(args) -> int:
    if args.action != "list":
        print(f"error: unknown scenarios action {args.action!r}", file=sys.stderr)
        return EXIT_CONFIG
    for scenario in builtin_scenarios():
        tags = ",".join(sorted(scenario.tags))
        print(
            f"{scenario.name} outcomes={scenario.problem.outcome_count} "
            f"hypotheses={scenario.problem.class_size} tags={tags}"
        )
    return EXIT_PASS


def _cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    problem = scenario.problem
    if args.engine == "mc":
        if args.seed is None:
            raise ValueError("the mc engine requires --seed")
        n_max = args.n_max if args.n_max is not None else MC_DEFAULT_N_MAX
        grid = tuple(_digits(n, "a grid entry") for n in args.grid.split(",")) if args.grid else tuple(
            n for n in MC_DEFAULT_GRID if n <= n_max
        )
        algo = parse_algo_spec(args.algo, problem.class_size)
        cfg = McConfig(
            replications=args.replications,
            n_max=n_max,
            base_seed=args.seed,
            grid=grid,
        )
        curve = mc_risk_curve(problem, algo, cfg, workers=args.workers)
    else:
        n_max = args.n_max if args.n_max is not None else 8
        algo = parse_algo_spec(args.algo, problem.class_size)
        curve = exact_risk_curve(problem, algo, n_max, workers=args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    safe_algo = algo_label(algo).replace(":", "_").replace("=", "")
    path = out_dir / f"curve-{args.scenario}-{safe_algo}-{args.engine}.csv"
    write_curve(curve, path)
    print(
        f"curve scenario={args.scenario} algo={algo_label(algo)} engine={args.engine} "
        f"points={len(curve.ns)} out={path}"
    )
    return EXIT_PASS


def _cmd_check_monotone(args) -> int:
    curve = read_curve(Path(args.curve))
    report = check_monotone(curve, tolerance=args.tol)
    worst = max(report.violations, key=lambda v: v[1])[0] if report.violations else "-"
    print(
        f"check-monotone verdict={report.verdict} max_increase={report.max_increase!r} "
        f"tolerance={report.tolerance} worst_n={worst}"
    )
    return EXIT_PASS if report.verdict == "monotone" else EXIT_CHECK_FAILED


def _cmd_rademacher(args) -> int:
    scenario = load_scenario(args.scenario)
    problem = scenario.problem
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.mode == "massart":
        value = float(rbar_massart(problem.class_size, args.k))
    elif args.mode == "exact":
        value = exact_rademacher(problem, args.k)
    else:
        if args.seed is None:
            raise ValueError("the empirical mode requires --seed")
        sample = draw_sample(problem, args.k, philox_stream(args.seed, 0))
        # the k signs follow the sample's k words in stream (seed, 0)
        origin = args.seed, np.zeros(1, dtype=np.uint64), 2 * args.k
        value = float(_rbars(problem.loss.as_array(), np.array([sample.outcomes]), origin, [args.k], [0])[0, 0])
    print(f"rademacher scenario={args.scenario} k={args.k} mode={args.mode} value={value!r}")
    return EXIT_PASS


def _cmd_bernstein(args) -> int:
    scenario = load_scenario(args.scenario)
    certificate = bernstein_certificate(scenario.problem, args.beta)
    print(
        f"bernstein scenario={args.scenario} beta={args.beta!r} "
        f"minimal_B={certificate.minimal_B!r} hstar={certificate.hstar_index}"
    )
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germ",
        description="Gated empirical risk minimization: experiments, curves, and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--workers", type=_option_int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_scen = sub.add_parser("scenarios", help="inspect built-in scenarios")
    p_scen.add_argument("action", choices=["list"])
    p_scen.set_defaults(func=_cmd_scenarios)

    p_curve = sub.add_parser("curve", help="compute one risk curve")
    p_curve.add_argument("scenario")
    p_curve.add_argument("--algo", required=True, help="erm | germ:<gap>[:init<i>]")
    p_curve.add_argument("--engine", choices=["exact", "mc"], required=True)
    p_curve.add_argument("--seed", type=_option_int, default=None)
    p_curve.add_argument("--out", required=True)
    p_curve.add_argument("--n-max", type=_option_int, default=None, dest="n_max")
    p_curve.add_argument("--replications", type=_option_int, default=MC_DEFAULT_REPLICATIONS)
    p_curve.add_argument("--grid", default=None, help="comma-separated n values")
    p_curve.add_argument("--workers", type=_option_int, default=1)
    p_curve.set_defaults(func=_cmd_curve)

    p_check = sub.add_parser("check-monotone", help="check a stored curve CSV")
    p_check.add_argument("curve")
    p_check.add_argument("--tol", type=_option_float, default=None)
    p_check.set_defaults(func=_cmd_check_monotone)

    p_rad = sub.add_parser("rademacher", help="per-step complexity bounds")
    p_rad.add_argument("scenario")
    p_rad.add_argument("--k", type=_option_int, required=True)
    p_rad.add_argument("--mode", choices=["empirical", "massart", "exact"], required=True)
    p_rad.add_argument("--seed", type=_option_int, default=None)
    p_rad.set_defaults(func=_cmd_rademacher)

    p_bern = sub.add_parser("bernstein", help="variance-to-mean certificate")
    p_bern.add_argument("scenario")
    p_bern.add_argument("--beta", type=_option_float, required=True)
    p_bern.set_defaults(func=_cmd_bernstein)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # a defect, not a bad input: keep exit 1 meaning "a check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
