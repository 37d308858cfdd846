"""Tests for problems, risks, sampling, and JSON round-trips."""

from __future__ import annotations

import ast
import itertools
import math
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

import germ.problem
from germ.errors import ResourceLimitError
from germ.problem import (
    DiscreteDistribution,
    check_fields,
    LearningProblem,
    LossTable,
    Sample,
    load_problem,
    multinomial_blocks,
    optimal_risk,
    population_risk,
    population_risks,
    problem_from_json,
    problem_to_json,
    save_problem,
)
from germ.rng import philox_stream
from scalar_reference import draw_sample, empirical_risk


def make_problem(probs, rows, name="p"):
    return LearningProblem(name, DiscreteDistribution(tuple(probs)), LossTable(tuple(map(tuple, rows))))


def test_empirical_risk_examples():
    loss = LossTable(((0.2, 0.8),))
    assert empirical_risk(loss, 0, Sample((0, 1))) == pytest.approx(0.5)
    const = LossTable(((0.7, 0.7),))
    assert empirical_risk(const, 0, Sample((1, 0, 1))) == pytest.approx(0.7)
    ind = LossTable(((0.0, 1.0),))
    assert empirical_risk(ind, 0, Sample((1, 1, 1, 0))) == pytest.approx(0.75)


def test_population_risk_examples():
    assert population_risk(make_problem((0.5, 0.5), [(0.0, 1.0)]), 0) == pytest.approx(0.5)
    assert population_risk(make_problem((1.0, 0.0), [(0.3, 0.9)]), 0) == pytest.approx(0.3)
    assert population_risk(make_problem((0.25, 0.75), [(1.0, 0.0)]), 0) == pytest.approx(0.25)


def test_population_risk_bounded_by_row_range():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        h_count = int(rng.integers(1, 5))
        raw = rng.random(m)
        probs = tuple(raw / raw.sum())
        rows = [tuple(rng.random(m)) for _ in range(h_count)]
        problem = make_problem(probs, rows)
        for h in range(h_count):
            risk = population_risk(problem, h)
            assert min(rows[h]) - 1e-12 <= risk <= max(rows[h]) + 1e-12


def test_optimal_risk_examples():
    value, index = optimal_risk(make_problem((0.5, 0.5), [(0.5, 0.5), (0.3, 0.3)]))
    assert (value, index) == (pytest.approx(0.3), 1)
    value, index = optimal_risk(make_problem((0.5, 0.5), [(0.4, 0.4), (0.4, 0.4)]))
    assert (value, index) == (pytest.approx(0.4), 0)
    value, index = optimal_risk(make_problem((0.5, 0.5), [(0.2, 0.6)]))
    assert (value, index) == (pytest.approx(0.4), 0)
    # plain Python numbers, which the report writes with repr
    assert type(value) is float and type(index) is int


def test_population_risks_equal_each_population_risk():
    problem = make_problem((0.1, 0.3, 0.6), [(0.2, 0.6, 0.1), (1.0, 0.0, 0.35), (0.0, 0.0, 0.0)])
    risks = population_risks(problem)
    assert risks.dtype == np.float64
    assert risks.tolist() == [population_risk(problem, h) for h in range(3)]


def test_optimal_risk_tie_break_stable_under_permutation():
    # permuting rows must keep both the winning row and the lowest-index rule
    rows = [(0.9, 0.9), (0.2, 0.4), (0.2, 0.4), (0.8, 0.0)]
    problem = make_problem((0.5, 0.5), rows)
    _, index = optimal_risk(problem)
    assert rows[index] == (0.2, 0.4)
    for perm in itertools.permutations(range(len(rows))):
        permuted = make_problem((0.5, 0.5), [rows[i] for i in perm])
        _, pidx = optimal_risk(permuted)
        assert rows[perm[pidx]] == rows[index]
        # among equal-risk rows the lowest index wins
        risks = [population_risk(permuted, h) for h in range(len(rows))]
        assert pidx == risks.index(min(risks))


def test_enumerated_mean_of_empirical_risk_matches_population_risk():
    problem = make_problem((0.25, 0.25, 0.25, 0.25), [(0.1, 0.7, 0.4, 1.0)])
    n = 4
    m = problem.outcome_count
    total = 0.0
    for zs in itertools.product(range(m), repeat=n):
        total += empirical_risk(problem.loss, 0, Sample(zs))
    assert total / m**n == pytest.approx(population_risk(problem, 0), abs=1e-12)


@pytest.mark.parametrize("block", [1024, 5])
def test_multinomial_blocks_cover_every_possible_count_vector(block, monkeypatch):
    # blocks of 5 ranks cut the 56 vectors within and across first counts
    monkeypatch.setattr(germ.problem, "COUNT_BLOCK", block)
    probs = (0.2, 0.0, 0.5, 0.3)
    n = 5
    blocks = list(multinomial_blocks(probs, n))
    counts = np.concatenate([c for c, _ in blocks]).tolist()
    want = sorted(
        list(c) for c in itertools.product(range(n + 1), repeat=len(probs)) if sum(c) == n and c[1] == 0
    )
    assert counts == want
    assert all(len(c) <= block for c, _ in multinomial_blocks((0.25,) * 4, n))
    for c, w in blocks:
        for row, weight in zip(c.tolist(), w.tolist()):
            exact = math.factorial(n) / math.prod(math.factorial(x) for x in row)
            exact *= math.prod(p**x for p, x in zip(probs, row))
            assert weight == pytest.approx(exact, rel=1e-13)
    assert math.fsum(w for _, ws in blocks for w in ws.tolist()) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("block", [5, 1024])
def test_count_vector_blocks_are_the_lexicographic_enumeration(block, monkeypatch):
    # nonnegative rows that sum to n, strictly ascending, C(n + m - 1, m - 1)
    # of them: every count vector once, in lexicographic order.  Five-row
    # blocks stop at m = 5 (75,461 blocks, against 465,034 with m = 6); they
    # still run the unranking loop over three parts and put block
    # boundaries inside and across first-count groups
    monkeypatch.setattr(germ.problem, "COUNT_BLOCK", block)
    for n in range(31):
        for m in range(1, 6 if block == 5 else 7):
            blocks = list(germ.problem._count_vector_blocks(n, m))
            rows = np.concatenate(blocks)
            assert (rows >= 0).all() and (rows.sum(axis=1) == n).all()
            step = np.diff(rows, axis=0)
            # the first nonzero entry of each step is positive
            assert (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all()
            assert len(rows) == math.comb(n + m - 1, m - 1)
            # a block is COUNT_BLOCK consecutive ranks
            assert all(len(b) == block for b in blocks[:-1])
            assert 1 <= len(blocks[-1]) <= block


def test_count_vector_blocks_hold_memory_to_one_block():
    # (62, 6) has C(67, 5) = 9,657,648 vectors, 720,720 with first count 0
    tracemalloc.start()
    try:
        next(germ.problem._count_vector_blocks(62, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_multinomial_blocks_budget(monkeypatch):
    # C(5 + 3, 3) = 56 count vectors of 4 categories
    monkeypatch.setattr(germ.problem, "ENUMERATION_BUDGET", 55)
    with pytest.raises(ResourceLimitError):
        next(multinomial_blocks((0.25,) * 4, 5))
    monkeypatch.setattr(germ.problem, "ENUMERATION_BUDGET", 56)
    assert sum(len(c) for c, _ in multinomial_blocks((0.25,) * 4, 5)) == 56


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(())
    with pytest.raises(ValueError):
        DiscreteDistribution((0.5, -0.5, 1.0))
    with pytest.raises(ValueError):
        DiscreteDistribution((0.5, 0.6))
    with pytest.raises(ValueError):
        DiscreteDistribution((0.5, float("nan")))
    # within tolerance: accepted and renormalized
    d = DiscreteDistribution((0.5, 0.5 + 1e-13))
    assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)
    third = 1.0 / 3.0
    assert math.fsum(DiscreteDistribution((third, third, third)).probs) == pytest.approx(1.0, abs=1e-15)


def test_loss_table_validation():
    with pytest.raises(ValueError):
        LossTable(())
    with pytest.raises(ValueError):
        LossTable(((0.5, 0.5), (0.5,)))
    with pytest.raises(ValueError):
        LossTable(((0.5, 1.2),))
    with pytest.raises(ValueError):
        LossTable(((-0.1, 0.5),))


def test_problem_validation():
    with pytest.raises(ValueError):
        make_problem((0.5, 0.5), [(0.1, 0.2, 0.3)])
    with pytest.raises(ValueError):
        make_problem((1.0,), [(0.1,)], name="")


def test_sample_prefix_and_validation():
    s = Sample((0, 1, 2, 1))
    assert s.prefix(2).outcomes == (0, 1)
    assert s.prefix(0).outcomes == ()
    assert len(s) == 4
    with pytest.raises(ValueError):
        s.prefix(5)
    with pytest.raises(ValueError):
        Sample((0, -1))


def test_draw_sample_point_mass_and_empty():
    problem = make_problem((1.0, 0.0), [(0.3, 0.9)])
    rng = philox_stream(1, 0)
    assert draw_sample(problem, 3, rng).outcomes == (0, 0, 0)
    assert draw_sample(problem, 0, rng).outcomes == ()


def test_draw_sample_deterministic_and_distributed():
    problem = make_problem((0.2, 0.5, 0.3), [(0.0, 0.5, 1.0)])
    a = draw_sample(problem, 2000, philox_stream(42, 7))
    b = draw_sample(problem, 2000, philox_stream(42, 7))
    assert a == b
    counts = np.bincount(a.outcomes, minlength=3) / 2000
    assert np.allclose(counts, (0.2, 0.5, 0.3), atol=0.05)
    c = draw_sample(problem, 2000, philox_stream(42, 8))
    assert a != c


def test_draw_sample_matches_scalar_inverse_cdf():
    # the vectorized path must agree with a plain per-draw inverse CDF
    problem = make_problem((0.2, 0.5, 0.3), [(0.0, 0.5, 1.0)])
    sample = draw_sample(problem, 50, philox_stream(3, 1))
    u = philox_stream(3, 1).random(50)
    cum = np.cumsum(problem.distribution.as_array())
    for z, ui in zip(sample.outcomes, u):
        expected = 0
        while ui >= cum[expected]:
            expected += 1
        assert z == expected


def test_json_round_trip_exact(tmp_path):
    problem = make_problem((1.0 / 3, 1.0 / 3, 1.0 / 3), [(0.62, 0.02, 0.32), (0.0, 0.3, 0.6)], name="trip")
    text = problem_to_json(problem)
    back = problem_from_json(text)
    assert back == problem
    path = tmp_path / "trip.json"
    save_problem(problem, path)
    assert load_problem(path) == problem


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        problem_from_json("not json {")
    with pytest.raises(ValueError):
        problem_from_json('{"name": "x", "probs": [1.0]}')
    with pytest.raises(ValueError):
        problem_from_json('{"name": "x", "probs": [1.0], "losses": [0.5]}')
    with pytest.raises(ValueError):
        problem_from_json('[1, 2]')


def test_check_fields():
    doc = {"name": "x", "probs": [1.0]}
    assert check_fields(doc, {"name", "probs", "losses"}, "problem") is doc
    with pytest.raises(ValueError, match=r"unknown problem fields \['note', 'source'\]"):
        check_fields({**doc, "source": 1, "note": 2}, {"name", "probs"}, "problem")
    for bad in ([1, 2], None, "x"):
        with pytest.raises(ValueError, match="the problem must be a JSON object"):
            check_fields(bad, {"name"}, "problem")
    with pytest.raises(ValueError, match=r"unknown problem fields \['source'\]"):
        problem_from_json('{"name": "x", "probs": [1.0], "losses": [[0.5]], "source": "by hand"}')


def test_only_check_fields_refuses_unknown_fields():
    # every JSON object germ reads is checked by the one rule
    raisers = set()
    for path in sorted(Path(germ.problem.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.JoinedStr):
                    text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    text = node.value
                else:
                    continue
                if text.startswith("unknown") and " fields" in text:
                    raisers.add((path.stem, getattr(top, "name", None)))
    assert raisers == {("problem", "check_fields")}


def test_philox_stream_validation():
    with pytest.raises(ValueError):
        philox_stream(-1, 0)
    with pytest.raises(ValueError):
        philox_stream(0, 2**64)
