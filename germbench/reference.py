"""Reference figures the benchmark computes itself, to check germ's outputs.

Nothing here imports germ.  Problems are read straight from the scenario
JSON files; population risks, closed forms, log-log fits and the gap rule
are written out from their definitions in the germ README and paper.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Table:
    """Outcome probabilities and loss rows of one finite problem."""

    name: str
    probs: tuple[float, ...]
    losses: tuple[tuple[float, ...], ...]

    @property
    def m(self) -> int:
        return len(self.probs)

    def risk(self, h: int) -> float:
        return math.fsum(p * l for p, l in zip(self.probs, self.losses[h]))

    def risks(self) -> list[float]:
        return [self.risk(h) for h in range(len(self.losses))]

    def permuted(self, order: list[int]) -> "Table":
        """The same problem with outcome ``order[j]`` relabelled as ``j``."""
        return Table(
            self.name,
            tuple(self.probs[z] for z in order),
            tuple(tuple(row[z] for z in order) for row in self.losses),
        )


def read_table(data_dir: Path, name: str) -> Table:
    doc = json.loads((data_dir / f"{name}.json").read_text(encoding="utf-8"))["problem"]
    return Table(doc["name"], tuple(map(float, doc["probs"])), tuple(tuple(map(float, r)) for r in doc["losses"]))


def argmin_lowest(values) -> int:
    best = 0
    for i, v in enumerate(values):
        if v < values[best]:
            best = i
    return best


def erm_n1(table: Table) -> float:
    """Expected risk of ERM after one observation: sum_z p_z L(argmin_h loss(h, z))."""
    risks = table.risks()
    return math.fsum(
        p * risks[argmin_lowest([row[z] for row in table.losses])] for z, p in enumerate(table.probs)
    )


def sequences(table: Table, n: int):
    """Every outcome sequence of length n with its probability."""
    for seq in itertools.product(range(table.m), repeat=n):
        yield seq, math.prod(table.probs[z] for z in seq)


def loglog_slope(points) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    xm = math.fsum(xs) / len(xs)
    ym = math.fsum(ys) / len(ys)
    return math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / math.fsum((x - xm) ** 2 for x in xs)


def coverage_floor_ok(coverage: float, floor: float, replications: int) -> bool:
    """Coverage at least its floor minus three binomial standard deviations."""
    return coverage >= floor - 3.0 * math.sqrt(floor * (1.0 - floor) / replications)


def check_steps_within_se(values, stderrs, label: str) -> None:
    """No step of an MC curve rises by more than three pooled standard errors."""
    for i in range(len(values) - 1):
        rise = values[i + 1] - values[i]
        tol = 3.0 * math.hypot(stderrs[i], stderrs[i + 1])
        require(rise <= tol, f"{label}: step {i} rises by {rise!r} > 3 pooled SE {tol!r}")


def uniform_gap(k: int, rbar: float) -> float:
    """delta_k = 4 rbar_k + sqrt(2 ln(2k) / k) + 2/k."""
    return 4.0 * rbar + math.sqrt(2.0 * math.log(2.0 * k) / k) + 2.0 / k


def philox_uniform_sample(table: Table, seed: int, stream: int, n: int) -> list[int]:
    """Replication ``stream``'s sample, from the seeding contract in the germ README:
    Philox keyed by (seed, stream), one ``random(n)`` block, inverse CDF."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    cum = np.cumsum(np.asarray(table.probs))
    idx = np.minimum(np.searchsorted(cum, gen.random(n), side="right"), table.m - 1)
    return [int(z) for z in idx]


def check_trajectory(doc: dict, table: Table, sample: list[int], label: str) -> None:
    """Recompute every gated step from the recorded rbar, own empirical risks and the gate rule."""
    H = len(table.losses)
    incumbent = doc["initial_index"]
    steps = doc["steps"]
    require(len(steps) == len(sample), f"{label}: {len(steps)} steps for a sample of {len(sample)}")
    for k, step in enumerate(steps, start=1):
        require(step["k"] == k, f"{label}: step {k} records k={step['k']}")
        emp = [math.fsum(table.losses[h][z] for z in sample[:k]) / k for h in range(H)]
        rbar = step["rbar"]
        radius = math.sqrt(2.0 * math.log(2.0 * k) / k)
        require(0.0 <= rbar <= 1.0 + radius, f"{label}: rbar {rbar!r} at k={k} outside [0, 1 + radius]")
        want_delta = uniform_gap(k, rbar)
        require(abs(step["delta"] - want_delta) <= 1e-12 * max(1.0, want_delta), f"{label}: delta at k={k}")
        cand = step["erm_index"]
        require(emp[cand] <= min(emp) + 1e-12, f"{label}: erm_index {cand} at k={k} is not an empirical minimizer")
        require(abs(step["erm_empirical_loss"] - emp[cand]) <= 1e-12, f"{label}: erm loss at k={k}")
        require(
            abs(step["incumbent_empirical_loss"] - emp[incumbent]) <= 1e-12,
            f"{label}: incumbent loss at k={k}",
        )
        margin = (emp[cand] - emp[incumbent]) + step["delta"]
        if abs(margin) > 1e-12:
            require(step["updated"] == (margin < 0.0), f"{label}: gate decision at k={k}")
        chosen = cand if step["updated"] else incumbent
        require(step["chosen_index"] == chosen, f"{label}: chosen index at k={k}")
        incumbent = chosen


def bernstein_replay(table: Table, seed: int, replications: int, n_max: int, grid) -> list[float] | None:
    """Mean risk at each grid n of the Bernstein-gated loop, replayed on the
    Philox streams (seed, r) for r < replications, initial hypothesis 0.

    The gap is sqrt(2 Q ln(2k|H|^2))/(k-1) + 5 ln(2k|H|^2)/(k-1) + 2/k with
    Q = sum_z count_z (loss(cand, z) - loss(inc, z))^2, and +inf at k = 1.
    Returns None when some gate decision lies within 1e-9 of its threshold,
    where rounding may legitimately decide it either way."""
    H = len(table.losses)
    risks = table.risks()
    chosen = {n: [] for n in grid}
    for r in range(replications):
        sums = [0.0] * H
        counts = [0] * table.m
        incumbent = 0
        for k, z in enumerate(philox_uniform_sample(table, seed, r, n_max), start=1):
            for h in range(H):
                sums[h] += table.losses[h][z]
            counts[z] += 1
            cand = argmin_lowest(sums)
            if k > 1:
                q = math.fsum(c * (table.losses[cand][x] - table.losses[incumbent][x]) ** 2 for x, c in enumerate(counts))
                log_term = math.log(2.0 * k * H * H)
                delta = math.sqrt(2.0 * q * log_term) / (k - 1) + 5.0 * log_term / (k - 1) + 2.0 / k
                margin = (sums[cand] - sums[incumbent]) / k + delta
                if abs(margin) < 1e-9:
                    return None
                if margin < 0.0:
                    incumbent = cand
            if k in chosen:
                chosen[k].append(risks[incumbent])
    return [math.fsum(chosen[n]) / replications for n in grid]
