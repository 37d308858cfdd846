"""Built-in learning problems with verified behavioral tags.

Each scenario ships as a JSON file in the package data directory and
carries a set of tags from a fixed vocabulary.  Tags are not decorative:
``verify_scenario`` recomputes the certificate or curve behind each tag
and rejects the scenario if the claim no longer holds, and loading always
verifies.  The non-monotonicity witness additionally stores the exact
risk curve it was frozen with and the seed that found it, so the search
can be replayed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .algorithm import PlainErm
from .analysis import bernstein_certificate
from .oracle import check_monotone, exact_risk_curve, find_erm_nonmonotone
from .problem import LearningProblem, optimal_risk, problem_from_dict
from .rng import check_integer, philox_stream

SCENARIO_TAGS = frozenset(
    {
        "single-hypothesis",
        "realizable",
        "misspecified",
        "erm-nonmonotone-witness",
        "massart",
        "worst-case",
    }
)

BUILTIN_NAMES = (
    "single-hypothesis",
    "symmetric-coin",
    "erm-dip-witness",
    "biased-coin-massart",
    "three-outcome-misspecified",
    "margin-free-ladder",
    "realizable-pair",
)

DATA_DIR_ENV = "GERM_DATA_DIR"

# tag thresholds; certificates use the exact-moment analysis routines
MASSART_MAX_B = 2.0
WORST_CASE_MIN_B1 = 4.0
WORST_CASE_MAX_B0 = 1.0
MISSPECIFIED_MIN_RISK = 1e-9
REALIZABLE_MAX_RISK = 1e-12
WITNESS_MIN_INCREASE = 1e-9
WITNESS_CURVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class WitnessRecord:
    """Seed and frozen curve behind a non-monotonicity witness."""

    outcome_count: int
    class_size: int
    n_probe: int
    search_budget: int
    base_seed: int
    stream: int
    curve_ns: tuple[int, ...]
    curve_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.outcome_count < 1 or self.class_size < 1:
            raise ValueError("witness sizes must be positive")
        if self.n_probe < 2:
            raise ValueError(f"witness probe length must be >= 2, got {self.n_probe}")
        if self.search_budget < 1:
            raise ValueError(f"witness search budget must be >= 1, got {self.search_budget}")
        if len(self.curve_ns) != len(self.curve_values) or not self.curve_ns:
            raise ValueError("witness curve must be nonempty with matching lengths")


@dataclass(frozen=True)
class Scenario:
    """A named problem plus verified tags and a provenance note."""

    problem: LearningProblem
    tags: frozenset[str]
    note: str
    witness: WitnessRecord | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tags, frozenset):
            object.__setattr__(self, "tags", frozenset(self.tags))
        unknown = self.tags - SCENARIO_TAGS
        if unknown:
            raise ValueError(f"unknown scenario tags {sorted(unknown)}")
        if not self.tags:
            raise ValueError("a scenario needs at least one tag")
        if not self.note:
            raise ValueError("a scenario needs a provenance note")
        has_witness_tag = "erm-nonmonotone-witness" in self.tags
        if has_witness_tag != (self.witness is not None):
            raise ValueError(
                "a witness record is required exactly when the "
                "erm-nonmonotone-witness tag is claimed"
            )

    @property
    def name(self) -> str:
        return self.problem.name


def scenario_dir():
    """Directory scenarios load from; the environment variable overrides."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return resources.files("germ") / "data"


def _witness_from_dict(doc: dict) -> WitnessRecord:
    curve = doc["erm_curve"]
    fields = ("outcome_count", "class_size", "n_probe", "search_budget", "base_seed", "stream")
    return WitnessRecord(
        **{field: check_integer(doc[field], f"witness {field}") for field in fields},
        curve_ns=tuple(check_integer(n, "witness curve n") for n in curve["ns"]),
        curve_values=tuple(float(v) for v in curve["values"]),
    )


def scenario_from_dict(doc: dict) -> Scenario:
    unknown = set(doc) - {"problem", "tags", "note", "witness"}
    if unknown:
        raise ValueError(f"unknown scenario fields {sorted(unknown)}")
    for field in ("problem", "tags", "note"):
        if field not in doc:
            raise ValueError(f"scenario document is missing {field!r}")
    witness = _witness_from_dict(doc["witness"]) if "witness" in doc else None
    return Scenario(
        problem=problem_from_dict(doc["problem"]),
        tags=frozenset(doc["tags"]),
        note=str(doc["note"]),
        witness=witness,
    )


def _verify_tag(scenario: Scenario, tag: str) -> None:
    problem = scenario.problem
    if tag == "single-hypothesis":
        if problem.class_size != 1:
            raise ValueError(f"{scenario.name}: single-hypothesis needs class size 1, got {problem.class_size}")
    elif tag == "realizable":
        best = optimal_risk(problem)[0]
        if best > REALIZABLE_MAX_RISK:
            raise ValueError(f"{scenario.name}: realizable needs optimal risk 0, got {best!r}")
    elif tag == "misspecified":
        best = optimal_risk(problem)[0]
        if best < MISSPECIFIED_MIN_RISK:
            raise ValueError(f"{scenario.name}: misspecified needs optimal risk > 0, got {best!r}")
    elif tag == "massart":
        b1 = bernstein_certificate(problem, 1.0).minimal_B
        if not (math.isfinite(b1) and b1 <= MASSART_MAX_B):
            raise ValueError(f"{scenario.name}: massart needs a finite full-margin constant <= {MASSART_MAX_B}, got {b1!r}")
    elif tag == "worst-case":
        b1 = bernstein_certificate(problem, 1.0).minimal_B
        b0 = bernstein_certificate(problem, 0.0).minimal_B
        if b1 < WORST_CASE_MIN_B1:
            raise ValueError(f"{scenario.name}: worst-case needs full-margin constant >= {WORST_CASE_MIN_B1} or infinite, got {b1!r}")
        if b0 > WORST_CASE_MAX_B0:
            raise ValueError(f"{scenario.name}: worst-case needs margin-free constant <= {WORST_CASE_MAX_B0}, got {b0!r}")
    elif tag == "erm-nonmonotone-witness":
        _verify_witness(scenario)
    else:
        raise ValueError(f"unknown scenario tag {tag!r}")


def _verify_witness(scenario: Scenario) -> None:
    record = scenario.witness
    curve = exact_risk_curve(scenario.problem, PlainErm(), record.n_probe)
    if curve.ns != record.curve_ns:
        raise ValueError(f"{scenario.name}: stored witness curve covers {record.curve_ns}, recomputed {curve.ns}")
    for n, stored, fresh in zip(curve.ns, record.curve_values, curve.values):
        if abs(stored - fresh) > WITNESS_CURVE_TOLERANCE:
            raise ValueError(
                f"{scenario.name}: stored witness value {stored!r} at n={n} "
                f"differs from recomputed {fresh!r}"
            )
    report = check_monotone(curve, tolerance=WITNESS_MIN_INCREASE)
    if report.verdict != "violated":
        raise ValueError(f"{scenario.name}: witness curve shows no increase above {WITNESS_MIN_INCREASE}")


def verify_scenario(scenario: Scenario) -> None:
    """Recompute the claim behind every tag; raise on the first failure."""
    for tag in sorted(scenario.tags):
        _verify_tag(scenario, tag)


def rerun_witness_search(scenario: Scenario) -> LearningProblem | None:
    """Replay the witness search from its recorded seed."""
    record = scenario.witness
    if record is None:
        raise ValueError(f"{scenario.name} carries no witness record")
    return find_erm_nonmonotone(
        record.outcome_count,
        record.class_size,
        record.n_probe,
        record.search_budget,
        philox_stream(record.base_seed, record.stream),
    )


def load_scenario(name: str) -> Scenario:
    """Load and verify one scenario by name from the scenario directory."""
    if not name or any(sep in name for sep in ("/", "\\", "..")):
        raise ValueError(f"invalid scenario name {name!r}")
    path = scenario_dir() / f"{name}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"unknown scenario {name!r}; no file {name}.json in {scenario_dir()}") from None
    scenario = scenario_from_dict(json.loads(text))
    if scenario.problem.name != name:
        raise ValueError(f"scenario file {name}.json holds a problem named {scenario.problem.name!r}")
    verify_scenario(scenario)
    return scenario


def builtin_scenarios() -> tuple[Scenario, ...]:
    """The fixed registry, loaded and verified in declaration order."""
    return tuple(load_scenario(name) for name in BUILTIN_NAMES)
