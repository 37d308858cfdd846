"""Scenario registry tests: loading, tag verification, witness replay."""

import json

import pytest

from germ.algorithm import GermAlgorithm, PlainErm
from germ.gap import EmpiricalBernstein, GapSpec, MassartDeterministic, UniformConvergence
from germ.oracle import check_monotone, exact_risk_curve
from germ.problem import DiscreteDistribution, LearningProblem, LossTable, population_risk
from germ.scenarios import (
    BUILTIN_NAMES,
    SCENARIO_TAGS,
    WITNESS_CURVE_TOLERANCE,
    Scenario,
    WitnessRecord,
    builtin_scenarios,
    load_scenario,
    rerun_witness_search,
    scenario_from_dict,
    verify_scenario,
)


def test_registry_has_verified_contents():
    scenarios = builtin_scenarios()
    assert len(scenarios) >= 5
    assert tuple(s.name for s in scenarios) == BUILTIN_NAMES
    assert len(set(BUILTIN_NAMES)) == len(BUILTIN_NAMES)
    for s in scenarios:
        assert s.tags <= SCENARIO_TAGS
        assert s.note
        assert s.problem.outcome_count <= 3


def test_registry_covers_required_tags():
    scenarios = builtin_scenarios()
    by_tag = {}
    for s in scenarios:
        for tag in s.tags:
            by_tag.setdefault(tag, []).append(s.name)
    for required in ("single-hypothesis", "erm-nonmonotone-witness", "massart", "worst-case", "misspecified", "realizable"):
        assert required in by_tag, required


def test_single_hypothesis_exact_curves_are_constant():
    s = load_scenario("single-hypothesis")
    expected = population_risk(s.problem, 0)
    for gap in (
        GapSpec(UniformConvergence(MassartDeterministic()), 1),
        GapSpec(EmpiricalBernstein(), 1),
    ):
        curve = exact_risk_curve(s.problem, GermAlgorithm(gap=gap), 8)
        assert all(v == expected for v in curve.values)
        assert check_monotone(curve).verdict == "monotone"


def test_witness_scenario_replays_from_recorded_seed():
    s = load_scenario("erm-dip-witness")
    assert s.witness is not None
    again = rerun_witness_search(s)
    assert again is not None
    assert again.distribution.probs == s.problem.distribution.probs
    assert again.loss.rows == s.problem.loss.rows


def test_witness_curve_has_a_strict_increase():
    s = load_scenario("erm-dip-witness")
    curve = exact_risk_curve(s.problem, PlainErm(), s.witness.n_probe)
    report = check_monotone(curve, tolerance=1e-9)
    assert report.verdict == "violated"
    assert report.max_increase > 1e-9
    assert curve.ns == s.witness.curve_ns
    for fresh, stored in zip(curve.values, s.witness.curve_values):
        assert abs(fresh - stored) <= WITNESS_CURVE_TOLERANCE


def test_rerun_witness_search_requires_record():
    s = load_scenario("symmetric-coin")
    with pytest.raises(ValueError, match="witness record"):
        rerun_witness_search(s)


def test_three_outcome_scenario_has_distinct_risks():
    s = load_scenario("three-outcome-misspecified")
    pops = [population_risk(s.problem, h) for h in range(s.problem.class_size)]
    assert len(set(pops)) == s.problem.class_size


def test_tag_verification_rejects_false_claims():
    coin = load_scenario("symmetric-coin")
    for bad_tag in ("massart", "realizable", "single-hypothesis"):
        fake = Scenario(problem=coin.problem, tags=frozenset({bad_tag}), note="forced")
        with pytest.raises(ValueError, match=bad_tag.split("-")[0]):
            verify_scenario(fake)
    realizable = load_scenario("realizable-pair")
    fake = Scenario(problem=realizable.problem, tags=frozenset({"misspecified"}), note="forced")
    with pytest.raises(ValueError, match="misspecified"):
        verify_scenario(fake)
    fake = Scenario(problem=realizable.problem, tags=frozenset({"worst-case"}), note="forced")
    with pytest.raises(ValueError, match="worst-case"):
        verify_scenario(fake)


def test_scenario_validation():
    problem = LearningProblem(
        name="demo",
        distribution=DiscreteDistribution((0.5, 0.5)),
        loss=LossTable(((0.1, 0.9),)),
    )
    with pytest.raises(ValueError, match="unknown scenario tags"):
        Scenario(problem=problem, tags=frozenset({"shiny"}), note="x")
    with pytest.raises(ValueError, match="at least one tag"):
        Scenario(problem=problem, tags=frozenset(), note="x")
    with pytest.raises(ValueError, match="note"):
        Scenario(problem=problem, tags=frozenset({"single-hypothesis"}), note="")
    with pytest.raises(ValueError, match="witness record"):
        Scenario(problem=problem, tags=frozenset({"erm-nonmonotone-witness"}), note="x")
    record = WitnessRecord(
        outcome_count=2,
        class_size=1,
        n_probe=4,
        search_budget=10,
        base_seed=0,
        stream=0,
        curve_ns=(1, 2),
        curve_values=(0.5, 0.5),
    )
    with pytest.raises(ValueError, match="witness record"):
        Scenario(problem=problem, tags=frozenset({"single-hypothesis"}), note="x", witness=record)


def test_witness_record_validation():
    with pytest.raises(ValueError, match="probe"):
        WitnessRecord(2, 2, 1, 10, 0, 0, (1,), (0.5,))
    with pytest.raises(ValueError, match="matching lengths"):
        WitnessRecord(2, 2, 4, 10, 0, 0, (1, 2), (0.5,))


def test_tampered_witness_curve_is_rejected(tmp_path, monkeypatch):
    # tamper with a copy of the packaged original, then load from the copy
    from germ.scenarios import scenario_dir

    original = json.loads((scenario_dir() / "erm-dip-witness.json").read_text(encoding="utf-8"))
    original["witness"]["erm_curve"]["values"][3] -= 0.01
    (tmp_path / "erm-dip-witness.json").write_text(json.dumps(original), encoding="utf-8")
    monkeypatch.setenv("GERM_DATA_DIR", str(tmp_path))
    with pytest.raises(ValueError, match="differs from recomputed"):
        load_scenario("erm-dip-witness")


@pytest.mark.parametrize(
    "field, value",
    [("stream", 0.5), ("base_seed", 5.5), ("base_seed", True), ("n_probe", 6.0), ("search_budget", "10000")],
)
def test_witness_fields_must_be_integers(tmp_path, monkeypatch, field, value):
    # int() would truncate 5.5 to the recorded seed 5 and replay the search
    from germ.scenarios import scenario_dir

    doc = json.loads((scenario_dir() / "erm-dip-witness.json").read_text(encoding="utf-8"))
    doc["witness"][field] = value
    (tmp_path / "erm-dip-witness.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("GERM_DATA_DIR", str(tmp_path))
    with pytest.raises(ValueError, match=f"witness {field} must be an integer"):
        load_scenario("erm-dip-witness")


def test_data_dir_override_and_lookup_errors(tmp_path, monkeypatch):
    problem_doc = {
        "problem": {"name": "local-coin", "probs": [0.5, 0.5], "losses": [[0.2, 0.8]]},
        "tags": ["single-hypothesis"],
        "note": "local override fixture",
    }
    (tmp_path / "local-coin.json").write_text(json.dumps(problem_doc), encoding="utf-8")
    (tmp_path / "renamed.json").write_text(json.dumps(problem_doc), encoding="utf-8")
    monkeypatch.setenv("GERM_DATA_DIR", str(tmp_path))
    loaded = load_scenario("local-coin")
    assert loaded.problem.loss.rows == ((0.2, 0.8),)
    with pytest.raises(ValueError, match="holds a problem named"):
        load_scenario("renamed")
    with pytest.raises(ValueError, match="unknown scenario"):
        load_scenario("absent")
    with pytest.raises(ValueError, match="invalid scenario name"):
        load_scenario("../escape")


def test_scenario_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown scenario fields"):
        scenario_from_dict({"problem": {}, "tags": [], "note": "x", "extra": 1})
    with pytest.raises(ValueError, match="missing"):
        scenario_from_dict({"tags": ["realizable"], "note": "x"})
