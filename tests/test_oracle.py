import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import germ.oracle
import germ.problem
from germ.algorithm import GermAlgorithm, PlainErm
from germ.errors import ResourceLimitError
from germ.gap import (
    EmpiricalBernstein,
    EmpiricalMcDiarmid,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
    UserConstant,
    delta_uniform,
)
from germ.oracle import (
    MonotonicityReport,
    RiskCurve,
    check_monotone,
    curve_from_csv,
    curve_to_csv,
    exact_risk_curve,
    find_erm_nonmonotone,
    pairwise_bernstein_coverage,
    read_curve,
    write_curve,
)
from germ.problem import (
    DiscreteDistribution,
    LearningProblem,
    LossTable,
    Sample,
    population_risk,
)
from germ.rng import philox_stream
from germ.scenarios import builtin_scenarios, load_scenario
from scalar_reference import erm, pairwise_bernstein_rhs, pairwise_rhs_from_sq, scalar_run_germ, unique_rows


def make_problem(rows, probs):
    return LearningProblem(
        name="case",
        distribution=DiscreteDistribution(probs=tuple(probs)),
        loss=LossTable(rows=tuple(tuple(r) for r in rows)),
    )


def two_point_problem():
    return make_problem([(0.0, 0.0), (1.0, 1.0)], (0.5, 0.5))


def massart(class_size):
    return GapSpec(UniformConvergence(MassartDeterministic()), class_size)


def bernstein(class_size):
    return GapSpec(EmpiricalBernstein(), class_size)


def brute_force_curve(problem, algo, n_max):
    """Independent recomputation: run the loop on every explicit sequence.

    Sums weight times risk over the sequences in lexicographic order, one
    partial sum per first outcome.  The oracle adds the same probabilities
    over merged states in another order, so the two agree to within
    rounding.
    """
    probs = problem.distribution.probs
    m = problem.loss.outcome_count
    pop = [population_risk(problem, h) for h in range(problem.class_size)]
    germ = isinstance(algo, GermAlgorithm)
    values = []
    for n in range(1, n_max + 1):
        total = 0.0
        for z0 in range(m):
            part = 0.0
            for rest in itertools.product(range(m), repeat=n - 1):
                seq = (z0, *rest)
                weight = math.prod(probs[z] for z in seq)
                if germ:
                    final = scalar_run_germ(
                        problem,
                        Sample(seq),
                        algo.gap,
                        initial=algo.initial_index,
                    ).final_index
                else:
                    final = scalar_run_germ(problem, Sample(seq), FixedDelta(0.0)).final_index
                part += weight * pop[final]
            total += part
        values.append(total)
    return values


def test_single_hypothesis_constant_curve():
    problem = make_problem([(0.3, 0.7)], (0.4, 0.6))
    expected = population_risk(problem, 0)
    germ_curve = exact_risk_curve(problem, GermAlgorithm(gap=massart(1)), 5)
    assert germ_curve.ns == (0, 1, 2, 3, 4, 5)
    assert all(v == expected for v in germ_curve.values)
    erm_curve = exact_risk_curve(problem, PlainErm(), 5)
    assert erm_curve.ns == (1, 2, 3, 4, 5)
    assert all(v == expected for v in erm_curve.values)
    assert erm_curve.kind == "exact" and erm_curve.stderrs is None


def test_oversized_gap_keeps_the_initial_hypothesis():
    problem = two_point_problem()
    for gap in (FixedDelta(10.0), massart(2), bernstein(2)):
        curve = exact_risk_curve(problem, GermAlgorithm(gap=gap, initial_index=1), 8)
        assert curve.ns == tuple(range(0, 9))
        assert all(v == 1.0 for v in curve.values)


def test_plain_erm_on_the_symmetric_problem():
    # rows (0,1) and (1,0) under a fair coin: whatever the sample, the
    # chosen row has population risk exactly 1/2
    problem = make_problem([(0.0, 1.0), (1.0, 0.0)], (0.5, 0.5))
    curve = exact_risk_curve(problem, PlainErm(), 6)
    assert curve.ns == (1, 2, 3, 4, 5, 6)
    assert all(v == 0.5 for v in curve.values)


@st.composite
def int64_keys(draw):
    """Int64 key rows over a pool of at most four values, so rows repeat."""
    width = draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4))
    row = st.lists(st.sampled_from(pool), min_size=width, max_size=width)
    return np.array(draw(st.lists(row, min_size=1, max_size=40)), dtype=np.int64)


def layer_key(problem, algo, depth):
    """The key that the state walk merges at ``depth``, recorded from a walk."""
    keys = []
    merge = germ.oracle._merge_rows
    germ.oracle._merge_rows = lambda key: keys.append(key) or merge(key)
    try:
        exact_risk_curve(problem, algo, depth)
    finally:
        germ.oracle._merge_rows = merge
    return keys[-1]


# 918 children of the ladder's ERM walk at depth 8, merging onto 550 states
LADDER_KEY = layer_key(load_scenario("margin-free-ladder").problem, PlainErm(), 8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(int64_keys())
@example(np.array([[7, -3, 0]], dtype=np.int64))
@example(LADDER_KEY)
@example(np.full((9, 4), -(2**63), dtype=np.int64))
@example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, -2.0], [0.0, 1.0]]).view(np.int64))
def test_merge_rows_is_np_unique(key):
    # the state walk's merge must give np.unique's rows, order and inverse
    layer, inverse = germ.oracle._merge_rows(key)
    want_layer, want_inverse = unique_rows(key)
    assert layer.dtype == want_layer.dtype and np.array_equal(layer, want_layer)
    assert inverse.shape == want_inverse.shape and np.array_equal(inverse, want_inverse)


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_state_order_is_the_np_unique_order(name, monkeypatch):
    # the merge orders the states, and the states' order sets the order in
    # which the next layer adds weights, so the curve pins it bit for bit
    problem = load_scenario(name).problem
    H = problem.class_size
    algos = [PlainErm(), GermAlgorithm(massart(H)), GermAlgorithm(bernstein(H)), GermAlgorithm(FixedDelta(0.0))]
    want = [exact_risk_curve(problem, algo, 8).values for algo in algos]
    monkeypatch.setattr(germ.oracle, "_merge_rows", unique_rows)
    assert [exact_risk_curve(problem, algo, 8).values for algo in algos] == want


def test_gate_fires_inside_the_enumeration_budget():
    # with rbar forced to zero the uniform gap is sqrt(2 ln(2k)/k) + 2/k,
    # which first drops below the maximal empirical gap of 1 at k = 10
    first = next(k for k in range(1, 30) if delta_uniform(k, 0.0) <= 1.0)
    assert first == 10
    problem = two_point_problem()
    gap = GapSpec(UniformConvergence(UserConstant(values=(0.0,) * 12)), 2)
    curve = exact_risk_curve(problem, GermAlgorithm(gap=gap, initial_index=1), 12)
    assert curve.values[:10] == (1.0,) * 10
    assert curve.values[10:] == (0.0, 0.0, 0.0)
    assert check_monotone(curve).verdict == "monotone"


def test_bernstein_gate_fires_on_a_one_outcome_problem():
    # a bounded-loss Bernstein gap stays above 1 at every n that two or more
    # outcomes allow; one outcome keeps one state per depth at any n, and
    # there the gap, variance term included, falls below the loss gap of 1
    problem = make_problem([(0.0,), (1.0,)], (1.0,))
    algo = GermAlgorithm(gap=bernstein(2), initial_index=1)
    curve = exact_risk_curve(problem, algo, 120)
    chosen = scalar_run_germ(problem, Sample((0,) * 120), algo.gap, initial=1).indices()
    assert curve.values[1:] == tuple(population_risk(problem, h) for h in chosen)
    assert curve.values[-1] == 0.0


def test_exact_curve_matches_brute_force_within_rounding():
    rng = philox_stream(6100, 0)
    rows = tuple(
        tuple(round(float(v), 2) for v in rng.random(2)) for _ in range(3)
    )
    problems = [
        make_problem(rows, (0.3, 0.7)),
        # an impossible outcome between two possible ones
        make_problem([(r[0], v, r[1]) for r, v in zip(rows, (0.9, 0.0, 0.5))], (0.3, 0.0, 0.7)),
        # rows 0 and 1 agree, so their sums tie bit for bit at every step
        make_problem((rows[0], rows[0], rows[2]), (0.3, 0.7)),
        # outcomes 0 and 2 have the same loss column, so prefixes with other
        # outcome counts reach the same sums; only the Bernstein gate reads
        # the counts, so only its states keep them apart
        make_problem([(r[0], r[1], r[0]) for r in rows], (0.2, 0.5, 0.3)),
    ]
    algos = [
        PlainErm(),
        GermAlgorithm(gap=massart(3), initial_index=2),
        GermAlgorithm(gap=bernstein(3), initial_index=2),
        GermAlgorithm(gap=FixedDelta(0.05), initial_index=1),
        GermAlgorithm(gap=FixedDelta(0.0), initial_index=1),
        GermAlgorithm(
            gap=GapSpec(UniformConvergence(UserConstant(values=(0.0,) * 5)), 3),
            initial_index=2,
        ),
    ]
    for problem in problems:
        for algo in algos:
            curve = exact_risk_curve(problem, algo, 5)
            expected = brute_force_curve(problem, algo, 5)
            tail = curve.values[1:] if isinstance(algo, GermAlgorithm) else curve.values
            assert len(tail) == len(expected)
            for got, want in zip(tail, expected):
                assert abs(got - want) <= 1e-14


def exact_rational_curve(problem, algo, n_max):
    """Ground truth: exact-rational sums over every explicit prefix.

    Each prefix weighs the Fraction product of its float outcome
    probabilities, and its hypothesis comes from the scalar reference loop
    (gated) or the reference ``erm`` (plain) on that prefix, so nothing is
    rounded before the sum.
    """
    probs = [Fraction(p) for p in problem.distribution.probs]
    pop = [Fraction(population_risk(problem, h)) for h in range(problem.class_size)]
    chosen = {}
    for seq in itertools.product(range(problem.loss.outcome_count), repeat=n_max):
        if isinstance(algo, GermAlgorithm):
            picks = scalar_run_germ(problem, Sample(seq), algo.gap, initial=algo.initial_index).indices()
        else:
            picks = [erm(problem.loss, Sample(seq[:k])) for k in range(1, n_max + 1)]
        for k, h in enumerate(picks, start=1):
            chosen[seq[:k]] = h
    totals = [Fraction(0)] * (n_max + 1)
    for prefix, h in chosen.items():
        totals[len(prefix)] += math.prod(probs[z] for z in prefix) * pop[h]
    return totals[1:]


@pytest.mark.parametrize("name", ["three-outcome-misspecified", "margin-free-ladder", "erm-dip-witness"])
def test_exact_curve_matches_exact_rational_reference(name):
    problem = load_scenario(name).problem
    last = problem.class_size - 1
    algos = [
        PlainErm(),
        GermAlgorithm(gap=FixedDelta(0.0), initial_index=last),
        GermAlgorithm(gap=bernstein(problem.class_size), initial_index=last),
    ]
    for algo in algos:
        curve = exact_risk_curve(problem, algo, 7)
        tail = curve.values[1:] if isinstance(algo, GermAlgorithm) else curve.values
        exact = exact_rational_curve(problem, algo, 7)
        assert len(tail) == len(exact)
        for got, want in zip(tail, exact):
            assert abs(Fraction(got) - want) <= 1e-14


def test_fixed_small_gap_actually_updates():
    # sanity for the cross-check above: the 0.05 gap fires somewhere
    rng = philox_stream(6100, 0)
    rows = tuple(
        tuple(round(float(v), 2) for v in rng.random(2)) for _ in range(3)
    )
    problem = make_problem(rows, (0.3, 0.7))
    curve = exact_risk_curve(problem, GermAlgorithm(gap=FixedDelta(0.05), initial_index=1), 5)
    assert len(set(curve.values)) > 1


def test_prefix_consistency():
    problem = make_problem([(0.1, 0.9), (0.8, 0.2)], (0.6, 0.4))
    short = exact_risk_curve(problem, GermAlgorithm(gap=FixedDelta(0.02)), 4)
    long = exact_risk_curve(problem, GermAlgorithm(gap=FixedDelta(0.02)), 7)
    assert long.values[: len(short.values)] == short.values
    short_erm = exact_risk_curve(problem, PlainErm(), 4)
    long_erm = exact_risk_curve(problem, PlainErm(), 7)
    assert long_erm.values[:4] == short_erm.values


def test_worker_count_does_not_change_results():
    problem = make_problem([(0.1, 0.9), (0.8, 0.2), (0.5, 0.5)], (0.6, 0.4))
    algo = GermAlgorithm(gap=FixedDelta(0.03), initial_index=2)
    solo = exact_risk_curve(problem, algo, 9, workers=1)
    multi = exact_risk_curve(problem, algo, 9, workers=4)
    assert solo == multi
    assert curve_to_csv(solo) == curve_to_csv(multi)


def test_exact_budget_counts_only_possible_outcomes():
    # 3^16 sequences exceed the budget, but only 2^16 have nonzero
    # probability, as in the two-outcome problem without the middle column
    rows = [(0.0, 0.5, 1.0), (0.7, 0.5, 0.2)]
    padded = make_problem(rows, (0.5, 0.0, 0.5))
    plain = make_problem([(r[0], r[2]) for r in rows], (0.5, 0.5))
    for algo in (PlainErm(), GermAlgorithm(gap=FixedDelta(0.1), initial_index=1)):
        want = exact_risk_curve(plain, algo, 16)
        got = exact_risk_curve(padded, algo, 16)
        assert got.ns == want.ns
        assert all(abs(a - b) <= 1e-14 for a, b in zip(got.values, want.values))
    # 2^24 possible sequences still exceed it
    with pytest.raises(ResourceLimitError, match="2\\^24 sequences of possible outcomes"):
        exact_risk_curve(padded, PlainErm(), 24)


def test_exact_curve_argument_validation():
    problem = two_point_problem()
    with pytest.raises(ValueError):
        exact_risk_curve(
            problem,
            GermAlgorithm(gap=GapSpec(UniformConvergence(EmpiricalMcDiarmid()), 2)),
            4,
        )
    with pytest.raises(ResourceLimitError):
        exact_risk_curve(
            make_problem([(0.1, 0.2, 0.3)], (0.3, 0.3, 0.4)),
            PlainErm(),
            15,
        )
    with pytest.raises(ValueError):
        exact_risk_curve(problem, PlainErm(), 0)
    with pytest.raises(ValueError):
        exact_risk_curve(problem, PlainErm(), 4, workers=0)
    with pytest.raises(ValueError):
        exact_risk_curve(problem, GermAlgorithm(gap=massart(3)), 4)
    with pytest.raises(ValueError):
        exact_risk_curve(problem, GermAlgorithm(gap=massart(2), initial_index=2), 4)
    short_user = GapSpec(UniformConvergence(UserConstant(values=(0.0, 0.0))), 2)
    with pytest.raises(ValueError):
        exact_risk_curve(problem, GermAlgorithm(gap=short_user), 4)
    with pytest.raises(ValueError):
        exact_risk_curve(problem, "erm", 4)


def test_check_monotone_flags_increases():
    curve = RiskCurve(
        ns=(1, 2, 3),
        values=(0.5, 0.4, 0.45),
        stderrs=None,
        kind="exact",
        problem="p",
        algo="erm",
    )
    report = check_monotone(curve)
    assert report.verdict == "violated"
    assert len(report.violations) == 1
    n, increase = report.violations[0]
    assert n == 3
    assert increase == pytest.approx(0.05)
    assert report.max_increase == pytest.approx(0.05)
    assert report.tolerance == 1e-12


def test_check_monotone_tolerates_round_off():
    curve = RiskCurve(
        ns=(1, 2, 3),
        values=(0.5, 0.4, 0.4 + 1e-13),
        stderrs=None,
        kind="exact",
        problem="p",
        algo="erm",
    )
    report = check_monotone(curve)
    assert report.verdict == "monotone"
    assert report.violations == ()
    assert report.max_increase == pytest.approx(1e-13, rel=0.1)


def test_check_monotone_constant_curve():
    curve = RiskCurve(
        ns=(1, 2, 3),
        values=(0.4, 0.4, 0.4),
        stderrs=None,
        kind="exact",
        problem="p",
        algo="erm",
    )
    report = check_monotone(curve)
    assert report.verdict == "monotone"
    assert report.max_increase == 0.0


def test_check_monotone_pooled_standard_errors():
    base = dict(ns=(10, 20), kind="mc", problem="p", algo="erm", seed=7)
    wide = RiskCurve(values=(0.50, 0.52), stderrs=(0.01, 0.01), **base)
    report = check_monotone(wide)
    assert report.verdict == "monotone"
    assert report.tolerance == "3*pooled-se"
    narrow = RiskCurve(values=(0.50, 0.52), stderrs=(0.001, 0.001), **base)
    assert check_monotone(narrow).verdict == "violated"
    # scalar override ignores the standard errors
    assert check_monotone(wide, tolerance=0.001).verdict == "violated"
    with pytest.raises(ValueError):
        check_monotone(wide, tolerance=-0.1)


def test_check_monotone_rejects_nan_tolerance():
    curve = RiskCurve(ns=(1, 2), values=(0.4, 0.5), stderrs=None, kind="exact", problem="p", algo="erm")
    with pytest.raises(ValueError, match="nonnegative"):
        check_monotone(curve, tolerance=math.nan)
    # an infinite tolerance would pass any curve
    with pytest.raises(ValueError, match="finite"):
        check_monotone(curve, tolerance=math.inf)
    assert check_monotone(curve, tolerance=1e300).verdict == "monotone"


def test_monotonicity_report_validation():
    with pytest.raises(ValueError):
        MonotonicityReport(verdict="monotone", violations=((3, 0.1),), max_increase=0.1, tolerance=0.0)
    with pytest.raises(ValueError):
        MonotonicityReport(verdict="violated", violations=(), max_increase=0.0, tolerance=0.0)
    with pytest.raises(ValueError):
        MonotonicityReport(verdict="ok", violations=(), max_increase=0.0, tolerance=0.0)


def test_risk_curve_validation():
    good = dict(ns=(1, 2), values=(0.5, 0.4), stderrs=None, kind="exact", problem="p", algo="erm")
    RiskCurve(**good)
    with pytest.raises(ValueError):
        RiskCurve(**{**good, "kind": "approximate"})
    with pytest.raises(ValueError):
        RiskCurve(**{**good, "values": (0.5,)})
    with pytest.raises(ValueError):
        RiskCurve(**{**good, "ns": (2, 1), "values": (0.4, 0.5)})
    with pytest.raises(ValueError):
        RiskCurve(**{**good, "values": (0.5, 1.4)})
    with pytest.raises(ValueError):
        RiskCurve(**{**good, "stderrs": (0.1, 0.1)})
    with pytest.raises(ValueError):
        RiskCurve(ns=(1,), values=(0.5,), stderrs=(0.1,), kind="mc", problem="p", algo="erm")
    mc = dict(ns=(1, 2), values=(0.2, 0.9), kind="mc", problem="p", algo="erm", seed=1)
    RiskCurve(**mc, stderrs=(0.0, 0.0))
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            RiskCurve(**mc, stderrs=(0.0, bad))
    with pytest.raises(ValueError):
        RiskCurve(**{**good, "problem": ""})


def test_find_erm_nonmonotone_fixed_seed():
    witness = find_erm_nonmonotone(2, 2, 6, 10_000, philox_stream(5, 0))
    assert witness is not None
    assert witness.distribution.probs == (0.55, 0.45)
    assert witness.loss.rows == ((0.05, 0.6), (1.0, 0.2))
    curve = exact_risk_curve(witness, PlainErm(), 6)
    report = check_monotone(curve, tolerance=1e-9)
    assert report.verdict == "violated"
    assert report.max_increase > 1e-9


def test_find_erm_nonmonotone_degenerate_cases():
    assert find_erm_nonmonotone(2, 1, 4, 50, philox_stream(5, 1)) is None
    assert find_erm_nonmonotone(2, 2, 6, 0, philox_stream(5, 2)) is None
    with pytest.raises(ValueError):
        find_erm_nonmonotone(2, 2, 1, 10, philox_stream(5, 3))
    with pytest.raises(ValueError):
        find_erm_nonmonotone(0, 2, 4, 10, philox_stream(5, 4))


def brute_pairwise_coverage(problem, n, delta):
    probs = problem.distribution.probs
    m = problem.loss.outcome_count
    rows = problem.loss.rows
    H = problem.class_size
    pop = [population_risk(problem, h) for h in range(H)]
    covered = 0.0
    for seq in itertools.product(range(m), repeat=n):
        weight = math.prod(probs[z] for z in seq)
        emp = [math.fsum(row[z] for z in seq) / n for row in rows]
        ok = True
        for a in range(H):
            for b in range(H):
                if a == b:
                    continue
                rhs = pairwise_bernstein_rhs(
                    [rows[a][z] for z in seq], [rows[b][z] for z in seq], H, delta
                )
                if pop[a] - pop[b] > emp[a] - emp[b] + rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            covered += weight
    return covered


def reference_pairwise_coverage(problem, n, delta):
    """One count vector at a time, each sum by ``math.fsum``."""
    rows = problem.loss.rows
    m = problem.loss.outcome_count
    class_size = problem.class_size
    probs = problem.distribution.probs
    pop = [population_risk(problem, h) for h in range(class_size)]
    pairs = [(a, b) for a in range(class_size) for b in range(class_size) if a != b]

    def count_vectors(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in count_vectors(total - first, parts - 1):
                yield (first, *rest)

    log_fact = [math.lgamma(i + 1) for i in range(n + 1)]
    coverage = 0.0
    for counts in count_vectors(n, m):
        if any(c > 0 and p == 0.0 for c, p in zip(counts, probs)):
            continue
        weight = math.exp(
            log_fact[n]
            - math.fsum(log_fact[c] for c in counts)
            + math.fsum(c * math.log(p) for c, p in zip(counts, probs) if c > 0)
        )
        emp = [math.fsum(c * l for c, l in zip(counts, row)) / n for row in rows]
        ok = True
        for a, b in pairs:
            sq = math.fsum(c * (rows[a][z] - rows[b][z]) ** 2 for z, c in enumerate(counts))
            rhs = pairwise_rhs_from_sq(sq, n, class_size, delta)
            if pop[a] - pop[b] > emp[a] - emp[b] + rhs:
                ok = False
                break
        if ok:
            coverage += weight
    return coverage


PAIRWISE_CASES = {
    "one-outcome": (make_problem([(0.3,), (0.6,)], (1.0,)), 5, 0.1),
    "two-outcomes": (make_problem([(0.15, 0.9), (0.7, 0.1)], (0.4, 0.6)), 40, 0.1),
    # coverage 0.9965: each direction of the pair fails on some count vectors
    "mirrored-rows": (make_problem([(0.0, 1.0), (1.0, 0.0)], (0.45, 0.55)), 200, 0.9),
    "impossible-outcome": (
        make_problem([(0.2, 0.4, 0.9), (0.1, 0.6, 0.5), (0.55, 0.2, 0.3)], (0.6, 0.0, 0.4)),
        30,
        0.25,
    ),
    "three-outcomes": (
        make_problem([(0.2, 0.4, 0.9), (0.1, 0.6, 0.5), (0.55, 0.2, 0.3)], (0.5, 0.3, 0.2)),
        60,
        0.1,
    ),
}


@pytest.mark.parametrize("block", [1024, 64])
@pytest.mark.parametrize("case", sorted(PAIRWISE_CASES))
def test_pairwise_coverage_matches_per_vector_reference(case, block, monkeypatch):
    monkeypatch.setattr(germ.problem, "COUNT_BLOCK", block)
    problem, n, delta = PAIRWISE_CASES[case]
    blocked = pairwise_bernstein_coverage(problem, n, delta)
    assert abs(blocked - reference_pairwise_coverage(problem, n, delta)) <= 1e-13


def test_pairwise_coverage_matches_sequence_enumeration():
    problem = make_problem([(0.15, 0.9), (0.7, 0.1)], (0.4, 0.6))
    for n, delta in ((4, 0.5), (6, 0.1), (8, 0.25)):
        fast = pairwise_bernstein_coverage(problem, n, delta)
        slow = brute_pairwise_coverage(problem, n, delta)
        assert fast == pytest.approx(slow, abs=1e-12)
        assert 1.0 - delta <= fast <= 1.0 + 1e-12


def test_pairwise_coverage_three_outcomes():
    problem = make_problem(
        [(0.2, 0.4, 0.9), (0.1, 0.6, 0.5), (0.55, 0.2, 0.3)],
        (0.5, 0.3, 0.2),
    )
    for delta in (0.1, 0.5):
        coverage = pairwise_bernstein_coverage(problem, 8, delta)
        assert 1.0 - delta <= coverage <= 1.0 + 1e-12


def test_pairwise_coverage_ignores_impossible_outcomes():
    problem = make_problem([(0.0, 1.0), (1.0, 0.0)], (1.0, 0.0))
    assert pairwise_bernstein_coverage(problem, 4, 0.2) == pytest.approx(1.0)


def test_pairwise_coverage_validation():
    problem = two_point_problem()
    with pytest.raises(ValueError):
        pairwise_bernstein_coverage(problem, 1, 0.1)
    with pytest.raises(ValueError):
        pairwise_bernstein_coverage(problem, 4, 0.0)


def test_curve_csv_roundtrip_exact(tmp_path):
    problem = make_problem([(0.1, 0.9), (0.8, 0.2)], (0.6, 0.4))
    curve = exact_risk_curve(problem, GermAlgorithm(gap=FixedDelta(0.02)), 6)
    text = curve_to_csv(curve)
    assert text.splitlines()[0] == "n,value,stderr,kind,problem,algo,seed"
    assert text.endswith("\n")
    assert curve_from_csv(text) == curve
    path = tmp_path / "curve.csv"
    write_curve(curve, path)
    assert read_curve(path) == curve


def test_curve_csv_roundtrip_monte_carlo():
    curve = RiskCurve(
        ns=(10, 20),
        values=(0.123456789012345, 0.1),
        stderrs=(0.001953125, 0.0001220703125),
        kind="mc",
        problem="p",
        algo="germ:uniform-empirical:init0",
        seed=42,
    )
    # repr-based floats survive the roundtrip bit for bit
    assert curve_from_csv(curve_to_csv(curve)) == curve


def test_curve_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        curve_from_csv("")
    with pytest.raises(ValueError):
        curve_from_csv("a,b\n1,2\n")
    header = "n,value,stderr,kind,problem,algo,seed\n"
    with pytest.raises(ValueError):
        curve_from_csv(header)
    mixed = header + "1,0.5,,exact,p,erm,\n2,0.4,,exact,q,erm,\n"
    with pytest.raises(ValueError):
        curve_from_csv(mixed)
    partial = header + "1,0.5,0.01,mc,p,erm,7\n2,0.4,,mc,p,erm,7\n"
    with pytest.raises(ValueError):
        curve_from_csv(partial)
