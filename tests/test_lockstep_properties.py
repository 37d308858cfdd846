"""Property test: the lockstep engine makes the scalar loop's choices.

Random loss tables on the 0.01 grid, where ERM ties are common and are
decided by the rounding of the running sums, random distributions with
zero-probability outcomes, random block lengths, and each of the
Bernstein, Massart, constant and fixed gaps on every drawn problem.  Two
of the fixed gaps are one-step loss differences on the same grid, so k
times the gap lands exactly on sums the gate compares, at the edge of the
stepper's reach bound.  At every step, every replication's chosen index
must equal the scalar reference loop's on the same stream.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import germ.algorithm
from germ.algorithm import GermAlgorithm, _step_block, _step_bytes
from germ.gap import (
    EmpiricalBernstein,
    FixedDelta,
    GapSpec,
    MassartDeterministic,
    UniformConvergence,
    UserConstant,
)
from germ.montecarlo import McConfig, draw_outcomes
from germ.problem import DiscreteDistribution, LearningProblem, LossTable
from germ.rng import philox_stream
from scalar_reference import draw_sample, scalar_run_germ


@st.composite
def cases(draw):
    m = draw(st.integers(2, 3))
    H = draw(st.integers(1, 4))
    # cut points on the 0.01 grid; equal cuts give zero-probability outcomes
    cuts = sorted(draw(st.lists(st.integers(0, 100), min_size=m - 1, max_size=m - 1)))
    edges = [0, *cuts, 100]
    probs = tuple((b - a) / 100 for a, b in zip(edges, edges[1:]))
    # losses at 0 and 1 half the time, so that bound-derived gates fire by n = 150
    entry = st.one_of(st.sampled_from([0, 100]), st.integers(0, 100))
    hundredths = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(H)]
    rows = tuple(tuple(v / 100 for v in row) for row in hundredths)
    initial = draw(st.integers(0, H - 1))
    # what one step can add to a hypothesis's lag behind the minimum, and
    # the most it adds to the initial hypothesis's
    gains = sorted({a[z] - b[z] for a in hundredths for b in hundredths for z in range(m) if a[z] > b[z]}) or [0]
    reach = max(hundredths[initial][z] - min(row[z] for row in hundredths) for z in range(m))
    n_max = draw(st.one_of(st.integers(100, 150), st.integers(1, 150)))
    scale = draw(st.integers(0, 50)) / 100
    gaps = [
        GapSpec(EmpiricalBernstein(), H),
        GapSpec(UniformConvergence(MassartDeterministic()), H),
        GapSpec(UniformConvergence(UserConstant(tuple(scale / math.sqrt(k) for k in range(1, n_max + 1)))), H),
        FixedDelta(draw(st.integers(0, 30)) / 100),
        FixedDelta(draw(st.sampled_from(gains)) / 100),
        FixedDelta(reach / 100),
    ]
    problem = LearningProblem("drawn", DiscreteDistribution(probs), LossTable(rows))
    replications = draw(st.integers(1, 16))
    steps = draw(st.sampled_from([1, 2, 7, 40, None]))
    return problem, gaps, initial, n_max, replications, steps, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_lockstep_choices_equal_run_germ(case):
    problem, gaps, initial, n_max, replications, steps, seed = case
    cfg = McConfig(replications=replications, n_max=n_max, base_seed=seed, grid=tuple(range(1, n_max + 1)))
    samples = [draw_sample(problem, n_max, philox_stream(seed, r)) for r in range(replications)]
    outcomes = draw_outcomes(problem, cfg.base_seed, 0, replications, cfg.n_max)
    cap = germ.algorithm.STEP_BLOCK
    if steps is not None:
        germ.algorithm.STEP_BLOCK = steps * replications * _step_bytes(problem.class_size)
    try:
        for gap in gaps:
            algo = GermAlgorithm(gap=gap, initial_index=initial)
            chosen, _ = _step_block(problem, algo, outcomes, None, cfg.grid)
            for r, sample in enumerate(samples):
                trajectory = scalar_run_germ(problem, sample, gap, initial=initial)
                assert chosen[:, r].tolist() == list(trajectory.indices()), (gap, r)
    finally:
        germ.algorithm.STEP_BLOCK = cap
