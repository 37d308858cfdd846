"""Negative controls: risk curves that the monotone check must report as violated.

A monotone check that passes every curve cannot tell a monotone learner
from one that is not.  Each curve here rises: gated curves whose fixed gap
is too small for the problem, and plain ERM, whose lowest-index tie picks
the worse hypothesis at every even n on ``biased-coin-massart``.
"""

import pytest

from germ.algorithm import GermAlgorithm, PlainErm
from germ.gap import FixedDelta
from germ.montecarlo import McConfig, mc_risk_curve
from germ.oracle import check_monotone, exact_risk_curve
from germ.scenarios import load_scenario


@pytest.mark.parametrize(
    ("scenario", "algo", "n_max", "rises_at"),
    [
        # the rise at n = 1 is the first step off h_0; the one at n = 14 is the gate's
        ("erm-dip-witness", GermAlgorithm(FixedDelta(0.1)), 14, (1, 14)),
        ("three-outcome-misspecified", GermAlgorithm(FixedDelta(0.0)), 8, (2, 5, 8)),
        ("margin-free-ladder", GermAlgorithm(FixedDelta(0.1)), 8, (5,)),
        ("biased-coin-massart", PlainErm(), 10, (2, 4, 6, 8, 10)),
    ],
)
def test_exact_curve_that_rises_is_reported_violated(scenario, algo, n_max, rises_at):
    curve = exact_risk_curve(load_scenario(scenario).problem, algo, n_max)
    report = check_monotone(curve)
    assert report.verdict == "violated"
    assert tuple(n for n, _ in report.violations) == rises_at


def test_gated_rise_on_the_witness_has_its_measured_size():
    curve = exact_risk_curve(load_scenario("erm-dip-witness").problem, GermAlgorithm(FixedDelta(0.1)), 14)
    assert dict(check_monotone(curve).violations)[14] == pytest.approx(6.6e-4, abs=1e-5)


def test_mc_curve_of_plain_erm_on_the_biased_coin_is_reported_violated():
    problem = load_scenario("biased-coin-massart").problem
    curve = mc_risk_curve(problem, PlainErm(), McConfig(replications=4096, n_max=10, base_seed=1, grid=tuple(range(1, 11))))
    rises = [n for n, a, b in zip(curve.ns[1:], curve.values, curve.values[1:]) if b > a]
    assert rises == [2, 4, 6, 8, 10]
    report = check_monotone(curve)
    assert report.verdict == "violated"
    # the rise at n = 10 (3.0e-3 exactly) is within three pooled standard
    # errors at this replication count; the larger ones are not
    assert {2, 4, 6} <= {n for n, _ in report.violations} <= {2, 4, 6, 8, 10}
