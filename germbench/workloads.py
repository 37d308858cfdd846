"""The three benchmark workloads.

A workload is built from the run's seed (its set-up), then runs the same
list of operations once per pass.  The benchmark checks the outputs of the
first pass against its own reference figures and requires every later pass
to reproduce them exactly.

germ is reached through module attributes (``self.cli.main``,
``self.mc.mc_risk_curve``) at call time, so the tracer's wrappers see the
benchmark's calls as well as the program's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import germ.algorithm
import germ.cli
import germ.gap
import germ.montecarlo
import germ.oracle
import germ.problem
import germ.scenarios

from reference import (
    bernstein_replay,
    check_steps_within_se,
    check_trajectory,
    coverage_floor_ok,
    erm_n1,
    loglog_slope,
    philox_uniform_sample,
    read_table,
    require,
    sequences,
)


def _bernstein(H: int):
    return germ.algorithm.GermAlgorithm(gap=germ.gap.GapSpec(germ.gap.EmpiricalBernstein(), H))


def _massart(H: int, initial: int = 0):
    gap = germ.gap.GapSpec(germ.gap.UniformConvergence(germ.gap.MassartDeterministic()), H)
    return germ.algorithm.GermAlgorithm(gap=gap, initial_index=initial)


def _to_problem(table):
    p = germ.problem
    return p.LearningProblem(table.name, p.DiscreteDistribution(table.probs), p.LossTable(table.losses))


class Workload:
    """Set-up from a seed, a fixed list of operations per pass, and checks."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.data_dir = root / "src" / "germ" / "data"
        self.rng = random.Random(f"{self.name}/{seed}")

    def operations(self) -> list:
        """(label, thunk) pairs; one pass runs each thunk once, in order."""
        raise NotImplementedError

    def collect(self, results: dict) -> dict:
        """Outputs of one pass, gathered after its timing ends."""
        return results

    def check(self, outputs: dict) -> None:
        """Raise CheckFailed if the first pass's outputs disagree with the reference."""
        raise NotImplementedError


class RunEmpiricalGap(Workload):
    """In-process ``germ run`` of a reference config with the randomized gap."""

    name = "run-empirical-gap"
    scenario = "three-outcome-misspecified"
    replications = 128
    grid = (10, 20, 50, 100, 200)
    delta = 0.1
    artifacts = (
        "report.json",
        "curve.csv",
        "coverage-excess-bound.csv",
        "coverage-pairwise-bernstein.csv",
        "trajectory.json",
    )

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self.cli = germ.cli
        germ.scenarios.load_scenario(self.scenario)
        self.table = read_table(self.data_dir, self.scenario)
        self.seed = self.rng.getrandbits(63)
        sigma = lambda floor: 3.0 * math.sqrt(floor * (1.0 - floor) / self.replications)  # noqa: E731
        excess_level = min(1.0 - 2.0 / n - sigma(1.0 - 2.0 / n) for n in self.grid)
        pairwise_level = 1.0 - self.delta - sigma(1.0 - self.delta)
        config = {
            "scenario": self.scenario,
            "algorithm": {"kind": "germ", "gap": {"variant": "uniform", "mode": "empirical"}},
            "engine": {"kind": "mc", "replications": self.replications, "n_max": self.grid[-1], "grid": list(self.grid)},
            "seed": self.seed,
            "checks": [
                {"check": "monotone"},
                {"check": "coverage", "event": "excess-bound", "level": excess_level},
                {"check": "coverage", "event": "pairwise-bernstein", "delta": self.delta, "level": pairwise_level},
            ],
            "trajectory": {"n": self.grid[-1]},
            "out_dir": "out",
        }
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.out = work / "out"

    def operations(self) -> list:
        def germ_run():
            with contextlib.redirect_stdout(io.StringIO()) as summary:
                code = self.cli.main(["run", str(self.config_path), "--workers", "1"])
            if code != 0:
                raise RuntimeError(f"germ run exited {code}: {summary.getvalue().strip()}")

        return [("germ run", germ_run)]

    def collect(self, results: dict) -> dict:
        return {name: (self.out / name).read_bytes() for name in self.artifacts}

    def check(self, outputs: dict) -> None:
        report = json.loads(outputs["report.json"])
        require(report["passed"] is True, "report.json says a check failed")
        require(len(report["checks"]) == 3 and all(c["passed"] for c in report["checks"]), "a report check failed")
        risks = self.table.risks()
        rows = _csv_rows(outputs["curve.csv"])
        require([int(r["n"]) for r in rows] == list(self.grid), "curve.csv grid")
        for r in rows:
            v = float(r["value"])
            require(min(risks) - 1e-12 <= v <= max(risks) + 1e-12, f"curve value {v!r} outside [min L, max L]")
        for event, floor in (("excess-bound", lambda n: 1.0 - 2.0 / n), ("pairwise-bernstein", lambda n: 1.0 - self.delta)):
            rows = _csv_rows(outputs[f"coverage-{event}.csv"])
            require([int(r["n"]) for r in rows] == list(self.grid), f"coverage-{event}.csv grid")
            for r in rows:
                n, cov = int(r["n"]), float(r["coverage"])
                require(coverage_floor_ok(cov, floor(n), self.replications), f"{event} coverage {cov!r} at n={n}")
        sample = philox_uniform_sample(self.table, self.seed, 0, self.grid[-1])
        check_trajectory(json.loads(outputs["trajectory.json"]), self.table, sample, "trajectory.json")


def _csv_rows(data: bytes) -> list[dict]:
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


class McBernsteinDecay(Workload):
    """Bernstein-gap MC curve, decay fit and pairwise coverage at n_max = 2000."""

    name = "mc-bernstein-decay"
    # scenario, beta hint, largest slope the decay must reach
    cases = (("margin-free-ladder", 0.0, -0.35), ("biased-coin-massart", 1.0, -0.6))
    replications = 1024
    grid = (50, 70, 100, 140, 200, 500, 1000, 2000)
    delta = 0.1

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self.mc = germ.montecarlo
        self.problems = {name: germ.scenarios.load_scenario(name).problem for name, _, _ in self.cases}
        self.tables = {name: read_table(self.data_dir, name) for name, _, _ in self.cases}
        self.cfg = self.mc.McConfig(self.replications, self.grid[-1], self.rng.getrandbits(63), self.grid)
        self.event = self.mc.PairwiseBernsteinEvent(self.delta)

    def operations(self) -> list:
        ops = []
        results = {}
        for name, beta, _ in self.cases:
            problem = self.problems[name]
            algo = _bernstein(problem.class_size)

            def curve(problem=problem, algo=algo, name=name):
                results[name] = self.mc.mc_risk_curve(problem, algo, self.cfg, workers=1)
                return results[name]

            def decay(problem=problem, algo=algo, beta=beta, name=name):
                return self.mc.excess_risk_decay(problem, algo, self.cfg, beta, curve=results[name], workers=1)

            def coverage(problem=problem):
                return self.mc.mc_bound_coverage(problem, self.event, self.cfg, workers=1)

            ops += [(f"curve {name}", curve), (f"decay {name}", decay), (f"coverage {name}", coverage)]
        return ops

    def check(self, outputs: dict) -> None:
        for name, _, threshold in self.cases:
            table = self.tables[name]
            risks = table.risks()
            best = min(risks)
            curve = outputs[f"curve {name}"]
            require(curve.ns == self.grid, f"{name}: curve grid")
            for v in curve.values:
                require(best - 1e-12 <= v <= max(risks) + 1e-12, f"{name}: curve value {v!r} outside [min L, max L]")
            check_steps_within_se(curve.values, curve.stderrs, name)
            points = [(n, v - best) for n, v in zip(curve.ns, curve.values) if v - best > 1e-12]
            require(len(points) >= 2, f"{name}: fewer than two points with positive excess risk")
            slope = loglog_slope(points)
            require(slope <= threshold, f"{name}: log-log slope {slope!r} above {threshold}")
            fit = outputs[f"decay {name}"]
            require(not fit.degenerate and abs(fit.slope - slope) <= 1e-9, f"{name}: germ slope {fit.slope!r}, own {slope!r}")
            cov = outputs[f"coverage {name}"]
            for n, c in zip(cov.ns, cov.coverages):
                require(coverage_floor_ok(c, 1.0 - self.delta, self.replications), f"{name}: pairwise coverage {c!r} at n={n}")
        self._check_small_n()
        self._check_replay()

    def _check_small_n(self) -> None:
        """An MC run at grid n <= 10 agrees with the exact oracle within 4 standard errors."""
        cfg = self.mc.McConfig(4096, 10, self.cfg.base_seed, (2, 4, 6, 8, 10))
        for name, _, _ in self.cases:
            problem = self.problems[name]
            for algo in (germ.algorithm.PlainErm(), _bernstein(problem.class_size)):
                mc = self.mc.mc_risk_curve(problem, algo, cfg, workers=1)
                exact = germ.oracle.exact_risk_curve(problem, algo, 10, workers=1)
                by_n = dict(zip(exact.ns, exact.values))
                for n, v, se in zip(mc.ns, mc.values, mc.stderrs):
                    require(abs(v - by_n[n]) <= 4.0 * se + 1e-12, f"{name} {mc.algo}: MC {v!r} vs exact {by_n[n]!r} at n={n}")

    def _check_replay(self) -> None:
        """A short MC run equals the benchmark's own replay of the Bernstein gate
        on the same streams, up to n where the gate does switch."""
        cfg = self.mc.McConfig(32, 200, self.cfg.base_seed, (50, 100, 200))
        for name, _, _ in self.cases:
            problem = self.problems[name]
            want = bernstein_replay(self.tables[name], cfg.base_seed, cfg.replications, cfg.n_max, cfg.grid)
            if want is None:
                continue
            got = self.mc.mc_risk_curve(problem, _bernstein(problem.class_size), cfg, workers=1).values
            for n, a, b in zip(cfg.grid, got, want):
                require(abs(a - b) <= 1e-12, f"{name}: lockstep MC {a!r} vs replayed gate {b!r} at n={n}")


class ExactOracle(Workload):
    """Exact risk curves by enumeration and one exact coverage sum; no RNG."""

    name = "exact-oracle"
    large = "three-outcome-misspecified"
    large_n = 10
    witness = "erm-dip-witness"
    witness_n = 6
    sweep_n = 8
    pairwise_n = 200
    delta = 0.1
    brute_n = 6

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self.oracle = germ.oracle
        names = [s.name for s in germ.scenarios.builtin_scenarios()]
        # the seed relabels each problem's outcomes; curves are invariant up to rounding
        self.tables = {}
        for name in names:
            table = read_table(self.data_dir, name)
            order = list(range(table.m))
            self.rng.shuffle(order)
            self.tables[name] = table.permuted(order)
        self.problems = {name: _to_problem(t) for name, t in self.tables.items()}
        H = len(self.tables[self.large].losses)
        self.initial = self.rng.randrange(H)
        bernstein = germ.algorithm.GermAlgorithm(
            gap=germ.gap.GapSpec(germ.gap.EmpiricalBernstein(), H), initial_index=self.initial
        )
        fixed_zero = germ.algorithm.GermAlgorithm(gap=germ.gap.FixedDelta(0.0), initial_index=self.initial)
        # (label, scenario, algorithm, n_max)
        self.curves = [
            (f"erm {self.large}", self.large, germ.algorithm.PlainErm(), self.large_n),
            (f"massart {self.large}", self.large, _massart(H, self.initial), self.large_n),
            (f"bernstein {self.large}", self.large, bernstein, self.large_n),
            (f"erm {self.witness}", self.witness, germ.algorithm.PlainErm(), self.witness_n),
            # both bound-derived gaps exceed 1 at every n the budget allows, so those
            # gates never switch; gap 0 does, which gives the brute-force check power
            (f"fixed=0 {self.large}", self.large, fixed_zero, self.sweep_n),
        ]
        for name in names:
            Hs = len(self.tables[name].losses)
            self.curves.append((f"sweep massart {name}", name, _massart(Hs), self.sweep_n))
            self.curves.append((f"sweep bernstein {name}", name, _bernstein(Hs), self.sweep_n))

    def operations(self) -> list:
        ops = [
            (label, lambda name=name, algo=algo, n=n: self.oracle.exact_risk_curve(self.problems[name], algo, n, workers=1))
            for label, name, algo, n in self.curves
        ]
        large = self.problems[self.large]
        ops.append(("pairwise", lambda: self.oracle.pairwise_bernstein_coverage(large, self.pairwise_n, self.delta)))
        return ops

    def check(self, outputs: dict) -> None:
        for label, name, algo, n_max in self.curves:
            curve = outputs[label]
            table = self.tables[name]
            gated = isinstance(algo, germ.algorithm.GermAlgorithm)
            bound_gap = gated and isinstance(algo.gap, germ.gap.GapSpec)
            values = dict(zip(curve.ns, curve.values))
            require(list(curve.ns) == list(range(0 if gated else 1, n_max + 1)), f"{label}: curve grid")
            if bound_gap:
                for a, b in zip(curve.values, curve.values[1:]):
                    require(b - a <= 1e-12, f"{label}: gated curve rises by {b - a!r}")
            if gated:
                require(abs(values[0] - table.risk(algo.initial_index)) <= 1e-12, f"{label}: n=0 is not L(h0)")
            else:
                require(abs(values[1] - erm_n1(table)) <= 1e-12, f"{label}: n=1 differs from the ERM closed form")
            if bound_gap and isinstance(algo.gap.variant, germ.gap.EmpiricalBernstein):
                require(abs(values[1] - table.risk(algo.initial_index)) <= 1e-12, f"{label}: n=1 is not L(h0)")
            self._check_brute_force(label, name, algo, values)
        witness = outputs[f"erm {self.witness}"].values
        require(witness[3] - witness[2] > 1e-9, f"witness ERM curve does not rise from n=3 to n=4: {witness}")
        cov = outputs["pairwise"]
        require(cov >= 1.0 - self.delta - 1e-12, f"exact pairwise coverage {cov!r} below 1 - delta")

    def _check_brute_force(self, label, name, algo, values) -> None:
        """At n <= brute_n, the curve is the probability-weighted average of run_germ / erm."""
        table = self.tables[name]
        problem = self.problems[name]
        risks = table.risks()
        n = min(self.brute_n, max(values))
        acc = [[] for _ in range(n + 1)]
        for seq, weight in sequences(table, n):
            if isinstance(algo, germ.algorithm.GermAlgorithm):
                trajectory = germ.algorithm.run_germ(
                    problem, germ.problem.Sample(seq), algo.gap, initial=algo.initial_index
                )
                chosen = trajectory.indices()
            else:
                chosen = [germ.algorithm.erm(problem.loss, germ.problem.Sample(seq[:k])) for k in range(1, n + 1)]
            for k, h in enumerate(chosen, start=1):
                acc[k].append(weight * risks[h])
        for k in range(1, n + 1):
            want = math.fsum(acc[k])
            require(abs(values[k] - want) <= 1e-12, f"{label}: n={k} value {values[k]!r}, brute force {want!r}")


WORKLOADS = {w.name: w for w in (RunEmpiricalGap, McBernsteinDecay, ExactOracle)}
