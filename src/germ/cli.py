"""Experiment runner and diagnostic subcommands.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
2 invalid arguments or configuration, or an input or output file that
cannot be read or written, 3 an exact sum exceeded its budget (count
vectors for Rademacher values and pairwise coverage, sequences for exact
curves), 4 an unexpected internal error (any other exception).  ``run``
computes every result and verdict before it makes the output directory,
so a run refused for its configuration or a budget writes nothing.
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
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .algorithm import (
    AlgorithmSpec,
    GermAlgorithm,
    PlainErm,
    algo_label,
    run_germ,
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
)
from .montecarlo import (
    BoundEvent,
    EstimatorDeviationEvent,
    ExcessBoundEvent,
    McConfig,
    PairwiseBernsteinEvent,
    coverage_to_csv,
    draw_outcomes,
    excess_risk_decay,
    mc_experiment,
    mc_risk_curve,
)
from .oracle import check_monotone, exact_risk_curve, read_curve, write_curve
from .problem import LearningProblem, Sample, load_problem
from .rademacher import _rbars, exact_rademacher, rbar_massart
from .scenarios import builtin_scenarios, load_scenario

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

EXACT_DEFAULT_N_MAX = 8
MC_DEFAULT_REPLICATIONS = 2000
MC_DEFAULT_N_MAX = 200
MC_DEFAULT_GRID = (10, 20, 50, 100, 200)


def _engine_config(
    engine: str, n_max: int | None, replications: int | None, grid: tuple[int, ...] | None, seed: int | None
) -> tuple[int, McConfig | None]:
    """The horizon and, for the mc engine, its ``McConfig``, with the
    defaults of ``germ run`` and ``germ curve`` filled in: the default
    grid is the points of ``MC_DEFAULT_GRID`` up to n_max.  The exact
    engine refuses the mc engine's grid and replications."""
    if engine == "exact":
        if grid is not None or replications is not None:
            raise ValueError("the exact engine takes no grid or replications")
        return (EXACT_DEFAULT_N_MAX if n_max is None else n_max), None
    if seed is None:
        raise ValueError("the mc engine requires a seed")
    n_max = MC_DEFAULT_N_MAX if n_max is None else n_max
    if grid is None:
        grid = tuple(n for n in MC_DEFAULT_GRID if n <= n_max)
    replications = MC_DEFAULT_REPLICATIONS if replications is None else replications
    return n_max, McConfig(replications, n_max, seed, grid)


@dataclass(frozen=True)
class MonotoneCheck:
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.tolerance is not None and not 0.0 <= self.tolerance < math.inf:
            raise ValueError(f"monotone tolerance must be finite and >= 0, got {self.tolerance!r}")


@dataclass(frozen=True)
class CoverageCheck:
    event: BoundEvent
    level: float

    def __post_init__(self) -> None:
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
class ExperimentConfig:
    """A fully resolved experiment: problem, algorithm, engine, checks.

    ``mc`` is the Monte Carlo engine's configuration, None for the exact
    engine; ``trajectory`` is the length of the recorded trajectory.  Only
    the rules that no engine checks are checked here: the engines, the
    trajectory's run and its stream check the rest before any output.
    """

    source: str
    problem: LearningProblem
    algo: AlgorithmSpec
    n_max: int
    checks: tuple[Check, ...]
    out_dir: Path
    mc: McConfig | None = None
    seed: int | None = None
    trajectory: int | None = None

    def __post_init__(self) -> None:
        if self.mc is None and any(isinstance(c, (CoverageCheck, DecayCheck)) for c in self.checks):
            raise ValueError("coverage and decay checks require the mc engine")
        if self.trajectory is not None:
            if self.seed is None:
                raise ValueError("a trajectory request requires a seed")
            if not isinstance(self.algo, GermAlgorithm):
                raise ValueError("trajectories are recorded for the gated loop only")

    @property
    def engine(self) -> str:
        return "exact" if self.mc is None else "mc"


@dataclass(frozen=True)
class ExperimentResult:
    exit_code: int
    checks_passed: int
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


def _algo_from_config(doc: dict, class_size: int) -> AlgorithmSpec:
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
            if not isinstance(values, list):
                raise ValueError("the constant mode needs a values list")
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


_EVENTS = {event.name: event for event in (ExcessBoundEvent, EstimatorDeviationEvent, PairwiseBernsteinEvent)}


def _check_from_config(doc: dict, algo: AlgorithmSpec) -> Check:
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
        name = str(doc["event"])
        if name not in _EVENTS:
            raise ValueError(f"unknown coverage event {name!r}")
        level = _config_float(doc["level"], "coverage level")
        delta = doc.get("delta")
        if (delta is None) != (name == ExcessBoundEvent.name):
            raise ValueError(f"coverage event {name!r} takes a delta exactly when it is not excess-bound")
        if delta is None:
            return CoverageCheck(ExcessBoundEvent(algo), level)
        return CoverageCheck(_EVENTS[name](_config_float(delta, "coverage delta")), level)
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

    seed = doc.get("seed")
    if seed is not None:
        seed = _config_int(seed, "seed")

    engine_doc = doc.get("engine")
    if not isinstance(engine_doc, dict) or "kind" not in engine_doc:
        raise ValueError("the engine object needs a kind")
    kind = engine_doc["kind"]
    if kind not in ("exact", "mc"):
        raise ValueError(f"engine kind must be exact or mc, got {kind!r}")
    unknown = set(engine_doc) - {"kind", "n_max"} - ({"replications", "grid"} if kind == "mc" else set())
    if unknown:
        raise ValueError(f"unknown {kind}-engine fields {sorted(unknown)}")
    n_max = _config_int(engine_doc["n_max"], "engine.n_max") if "n_max" in engine_doc else None
    replications = _config_int(engine_doc["replications"], "engine.replications") if "replications" in engine_doc else None
    grid = engine_doc.get("grid")
    if grid is not None:
        if not isinstance(grid, list):
            raise ValueError(f"engine.grid must be a list, got {grid!r}")
        grid = tuple(_config_int(n, "engine.grid entry") for n in grid)
    n_max, mc = _engine_config(kind, n_max, replications, grid, seed)

    if "algorithm" not in doc or not isinstance(doc["algorithm"], dict):
        raise ValueError("the config needs an algorithm object")
    algo = _algo_from_config(doc["algorithm"], problem.class_size)

    checks_doc = doc.get("checks", [])
    if not isinstance(checks_doc, list):
        raise ValueError("checks must be a list")
    checks = tuple(_check_from_config(c, algo) for c in checks_doc)
    events = [c.event.name for c in checks if isinstance(c, CoverageCheck)]
    for event in events:
        if events.count(event) > 1:
            raise ValueError(f"coverage event {event!r} is checked more than once; it has one coverage-{event}.csv")

    trajectory = None
    if "trajectory" in doc:
        traj_doc = doc["trajectory"]
        if not isinstance(traj_doc, dict) or set(traj_doc) - {"n"}:
            raise ValueError("the trajectory request takes exactly the field n")
        trajectory = _config_int(traj_doc.get("n", n_max), "trajectory.n")

    out_dir = Path(str(doc.get("out_dir", "results")))
    if not out_dir.is_absolute():
        out_dir = config_dir / out_dir

    return ExperimentConfig(
        source=source,
        problem=problem,
        algo=algo,
        n_max=n_max,
        checks=checks,
        out_dir=out_dir,
        mc=mc,
        seed=seed,
        trajectory=trajectory,
    )


def _float_text(value: float) -> str:
    """A float as ``json`` writes it, with nan, inf and -inf as strings."""
    if math.isfinite(value):
        return float.__repr__(value)
    return '"nan"' if value != value else '"inf"' if value > 0 else '"-inf"'


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value, indent: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it,
    in one pass, except that nan, inf and -inf are the strings "nan", "inf"
    and "-inf".  Keys must be strings, as in every document ``run`` writes;
    a value ``json`` cannot write, or any other key, raises TypeError."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    for base in (str, int, float):
        # a subclass, such as np.float64, is written as its base, as json does
        if isinstance(value, base):
            return _SCALAR_TEXT[base](value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        brackets = "[]"
    elif isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _write_json(path: Path, doc) -> None:
    """Write ``doc`` byte-stably: sorted keys, two-space indent, non-finite floats as strings."""
    path.write_text(_json_text(doc) + "\n", encoding="utf-8")


def _check_echo(check: Check) -> dict:
    if isinstance(check, MonotoneCheck):
        return {"check": "monotone", "tolerance": check.tolerance}
    if isinstance(check, CoverageCheck):
        echo = {"check": "coverage", "event": check.event.name, "level": check.level}
        if not isinstance(check.event, ExcessBoundEvent):
            echo["delta"] = check.event.delta
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
    if config.mc is not None:
        echo["replications"] = config.mc.replications
        echo["grid"] = list(config.mc.grid)
    if config.seed is not None:
        echo["seed"] = config.seed
    if config.trajectory is not None:
        echo["trajectory"] = {"n": config.trajectory}
    return echo


def _judge_checks(config: ExperimentConfig, curve, coverages, workers: int) -> list[dict]:
    """Each check's report entry; ``coverages`` holds the coverage checks' results in order."""
    entries = []
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
            passed = all(c >= check.level for c in result.coverages)
            details = {
                "ns": list(result.ns),
                "coverages": list(result.coverages),
                "floors": list(result.floors),
                "level": check.level,
                "min_coverage": min(result.coverages),
            }
        else:
            fit = excess_risk_decay(config.problem, config.algo, config.mc, check.beta, curve=curve, workers=workers)
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
        entries.append({**_check_echo(check), "passed": passed, "details": details})
    return entries


def run_experiment(config: ExperimentConfig, *, workers: int = 1) -> ExperimentResult:
    """Execute one experiment and write curve, coverage, trajectory and report files.

    Every result and every check's verdict is computed before ``out_dir``
    is made, so a run refused for its config or its budget writes nothing.
    """
    # the trajectory is one row, so its refusals come before the simulation's
    trajectory = None
    if config.trajectory is not None:
        n = config.trajectory
        sample = Sample(draw_outcomes(config.problem, config.seed, 0, 1, n)[0])
        # replication 0's signs follow its n_max words, a longer sample's its n
        trajectory = run_germ(
            config.problem,
            sample,
            config.algo.gap,
            initial=config.algo.initial_index,
            origin=(config.seed, 0, 2 * max(n, config.n_max)),
        )
    if config.mc is None:
        curve, coverages = exact_risk_curve(config.problem, config.algo, config.n_max, workers=workers), ()
    else:
        events = tuple(c.event for c in config.checks if isinstance(c, CoverageCheck))
        curve, coverages = mc_experiment(config.problem, config.algo, config.mc, events, workers=workers)
    entries = _judge_checks(config, curve, coverages, workers)
    checks_passed = sum(entry["passed"] for entry in entries)

    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "curve.csv"
    write_curve(curve, curve_path)
    coverage_paths = {result.event: out_dir / f"coverage-{result.event}.csv" for result in coverages}
    for result in coverages:
        coverage_paths[result.event].write_text(coverage_to_csv(result), encoding="utf-8")
    trajectory_path = None
    if trajectory is not None:
        trajectory_path = out_dir / "trajectory.json"
        # the fields that ``dataclasses.asdict`` gives, without its deep copy
        # of every value
        _write_json(trajectory_path, dict(vars(trajectory), steps=[vars(s) for s in trajectory.steps]))
    all_passed = checks_passed == len(entries)
    report = {
        "tool": {"name": "germ", "version": __version__},
        "config": _config_echo(config),
        "artifacts": {
            "curve_csv": curve_path.name,
            "coverage_csv": {event: path.name for event, path in sorted(coverage_paths.items())},
            "trajectory_json": trajectory_path.name if trajectory_path else None,
        },
        "checks": entries,
        "passed": all_passed,
    }
    report_path = out_dir / "report.json"
    _write_json(report_path, report)
    return ExperimentResult(
        exit_code=EXIT_PASS if all_passed else EXIT_CHECK_FAILED,
        checks_passed=checks_passed,
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
    status = "pass" if result.exit_code == EXIT_PASS else "fail"
    print(
        f"run source={config.source} engine={config.engine} "
        f"checks={result.checks_passed}/{len(config.checks)} status={status} report={result.report_path}"
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
    grid = tuple(_digits(n, "a grid entry") for n in args.grid.split(",")) if args.grid else None
    if args.engine == "exact" and args.seed is not None:
        # a run's exact engine takes a seed for its trajectory; a curve has none
        raise ValueError("the exact engine takes no seed")
    n_max, mc = _engine_config(args.engine, args.n_max, args.replications, grid, args.seed)
    algo = parse_algo_spec(args.algo, problem.class_size)
    if mc is None:
        curve = exact_risk_curve(problem, algo, n_max, workers=args.workers)
    else:
        curve = mc_risk_curve(problem, algo, mc, workers=args.workers)
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
        outcomes = draw_outcomes(problem, args.seed, 0, 1, args.k)
        # the k signs follow the sample's k words in stream (seed, 0)
        origin = args.seed, np.zeros(1, dtype=np.uint64), 2 * args.k
        value = float(_rbars(problem.loss.as_array(), outcomes, origin, [args.k], [0])[0, 0])
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
    p_curve.add_argument("--replications", type=_option_int, default=None)
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
