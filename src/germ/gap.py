"""Gap sequences: the per-step empirical-improvement thresholds of the greedy loop.

Two production variants exist.  The uniform-convergence gap

    delta_k = 4 R-bar_k + sqrt(2 ln(2k) / k) + 2/k

consumes a per-step Rademacher bound R-bar_k (see the rademacher module for
the three modes).  The empirical-Bernstein gap

    delta_k = sqrt(2 Q_k ln(2k |H|^2)) / (k-1) + 5 ln(2k |H|^2) / (k-1) + 2/k

uses the empirical second moment Q_k = sum_i (l(cand, z_i) - l(inc, z_i))^2
of the candidate/incumbent loss differences, adapting to low-variance pairs.
At k = 1 the Bernstein gap is undefined (division by k-1) and is pinned to
+infinity, which freezes the incumbent at step 1; see the decisions ledger.

The formula kernels accept a float or a NumPy array for the per-step
quantity, so the single run, the lockstep Monte Carlo engine, and the exact
oracle evaluate one expression.  A float argument takes ``math.sqrt`` and
returns a Python float; ``np.sqrt`` rounds identically on arrays.  The
bound kernels in the analysis module do the same.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rademacher import mcdiarmid_radius, rbar_massart


@dataclass(frozen=True)
class EmpiricalMcDiarmid:
    """Randomized per-step bound: one fresh sign draw, McDiarmid-padded."""


@dataclass(frozen=True)
class MassartDeterministic:
    """Deterministic finite-class bound sqrt(2 ln|H| / k)."""


@dataclass(frozen=True)
class UserConstant:
    """Caller-supplied per-step bounds; values[k-1] is used at step k."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        clean = tuple(float(v) for v in self.values)
        if len(clean) == 0:
            raise ValueError("UserConstant needs at least one value")
        for v in clean:
            if not v >= 0.0:
                raise ValueError(f"bound values must be >= 0, got {v!r}")
        object.__setattr__(self, "values", clean)


RademacherBoundMode = EmpiricalMcDiarmid | MassartDeterministic | UserConstant


@dataclass(frozen=True)
class UniformConvergence:
    """Gap built from a per-step Rademacher bound in the given mode."""

    mode: RademacherBoundMode

    def __post_init__(self) -> None:
        if not isinstance(self.mode, (EmpiricalMcDiarmid, MassartDeterministic, UserConstant)):
            raise ValueError(f"unknown Rademacher bound mode {self.mode!r}")


@dataclass(frozen=True)
class EmpiricalBernstein:
    """Variance-adaptive gap from candidate/incumbent loss differences."""


GapVariant = UniformConvergence | EmpiricalBernstein


@dataclass(frozen=True)
class GapSpec:
    """A gap variant bound to the class size it will run against."""

    variant: GapVariant
    class_size: int

    def __post_init__(self) -> None:
        if not isinstance(self.variant, (UniformConvergence, EmpiricalBernstein)):
            raise ValueError(f"unknown gap variant {self.variant!r}")
        if self.class_size < 1:
            raise ValueError(f"class size must be >= 1, got {self.class_size}")


@dataclass(frozen=True)
class FixedDelta:
    """Direct per-step gap override for diagnostics and tests.

    Not a bound-derived sequence and not reachable from experiment configs;
    ``value`` 0.0 makes the gate fire on any empirical non-increase, which
    recovers near-plain-ERM behavior as a sanity bridge.
    """

    value: float = 0.0

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError(f"gap override must be >= 0, got {self.value!r}")


def is_randomized(gap: GapSpec | FixedDelta) -> bool:
    """True for the gap that draws fresh random signs at every step."""
    return (
        isinstance(gap, GapSpec)
        and isinstance(gap.variant, UniformConvergence)
        and isinstance(gap.variant.mode, EmpiricalMcDiarmid)
    )


def step_schedule(gap: GapSpec | FixedDelta, n: int):
    """Per-step gaps of a run of n steps when they depend on k alone.

    Returns ``(deltas, rbars)``, lists indexed by k - 1, for the fixed,
    Massart, and constant gaps (``rbars`` holds None for the fixed gap), or
    None for the sample-dependent Bernstein and EmpiricalMcDiarmid gaps.
    A UserConstant mode must supply at least n values.
    """
    if isinstance(gap, FixedDelta):
        return [gap.value] * n, [None] * n
    if not isinstance(gap.variant, UniformConvergence):
        return None
    mode = gap.variant.mode
    if isinstance(mode, EmpiricalMcDiarmid):
        return None
    if isinstance(mode, MassartDeterministic):
        rbars = [rbar_massart(gap.class_size, k) for k in range(1, n + 1)]
    else:
        if len(mode.values) < n:
            raise ValueError(f"UserConstant supplies {len(mode.values)} values, run needs {n}")
        rbars = list(mode.values[:n])
    return [delta_uniform(k, rbar) for k, rbar in enumerate(rbars, start=1)], rbars


def _nonnegative(x) -> bool:
    """x >= 0, entrywise for an array; NaN fails.

    An array's minimum propagates NaN and costs less than half of
    ``np.all(x >= 0)``, which matters once per lockstep step.
    """
    if isinstance(x, np.ndarray):
        return bool(x.min() >= 0.0)
    return x >= 0.0


def delta_uniform(k, rbar_k):
    """Uniform-convergence gap at step k given the Rademacher bound rbar_k.

    ``k`` is a step index or an integer array of steps, broadcast against
    ``rbar_k`` (a float or an array); ``mcdiarmid_radius`` checks k >= 1.
    """
    if not _nonnegative(rbar_k):
        raise ValueError(f"rbar must be >= 0, got {rbar_k!r}")
    return 4.0 * rbar_k + mcdiarmid_radius(k) + 2.0 / k


def bernstein_log_term(k: int, class_size: int) -> float:
    """ln(2 k |H|^2), the confidence term shared by both Bernstein pieces."""
    if k < 1 or class_size < 1:
        raise ValueError(f"need k >= 1 and class_size >= 1, got k={k}, |H|={class_size}")
    return math.log(2.0 * k * class_size * class_size)


@functools.lru_cache(maxsize=None)
def _bernstein_log_table(size: int, class_size: int) -> np.ndarray:
    """Read-only ``bernstein_log_term(k, class_size)`` at index k, 1 <= k < size."""
    table = np.array([math.nan] + [bernstein_log_term(k, class_size) for k in range(1, size)])
    table.flags.writeable = False
    return table


def bernstein_delta_from_sq(k, sq_sum, class_size: int):
    """Empirical-Bernstein gap from the precomputed squared-difference sum.

    This is the kernel shared by ``delta_bernstein`` and the gated step of
    the algorithm module, so all paths evaluate the same arithmetic.
    ``sq_sum`` is a float, or an array of per-replication sums.  +infinity
    at k = 1.

    ``k`` may also be an integer array of steps >= 2, broadcast against
    ``sq_sum``.  Its log terms come from a cached table of scalar
    ``bernstein_log_term`` values, so each entry rounds as the scalar call
    does.  Since the square-root term is >= 0 and rounding is monotone, the
    gap at ``sq_sum = 0.0`` is a lower bound of the gap at any sum.
    """
    if not isinstance(k, np.ndarray):
        if k == 1:
            return math.inf
        log_term = bernstein_log_term(k, class_size)
        sqrt = math.sqrt if isinstance(sq_sum, float) else np.sqrt
    else:
        if k.min() < 2:
            raise ValueError(f"an array of steps must start at k = 2, got {k.min()}")
        log_term = _bernstein_log_table(1 << int(k.max()).bit_length(), class_size)[k]
        sqrt = np.sqrt
    return sqrt(2.0 * sq_sum * log_term) / (k - 1) + 5.0 * log_term / (k - 1) + 2.0 / k


def delta_bernstein(k: int, cand_losses, inc_losses, class_size: int) -> float:
    """Empirical-Bernstein gap at step k from per-observation loss sequences.

    Parameters
    ----------
    k:
        Step index; both sequences must have length k.
    cand_losses, inc_losses:
        Losses of the step's candidate and of the incumbent on z_1..z_k,
        entries in [0, 1].
    class_size:
        Size of the hypothesis class (enters the confidence term).

    Returns
    -------
    float
        The gap value; +infinity at k = 1.
    """
    cand = tuple(float(v) for v in cand_losses)
    inc = tuple(float(v) for v in inc_losses)
    if len(cand) != k or len(inc) != k:
        raise ValueError(f"loss sequences must have length k={k}, got {len(cand)} and {len(inc)}")
    for v in cand + inc:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"loss entry {v!r} outside [0, 1]")
    if class_size < 1:
        raise ValueError(f"class size must be >= 1, got {class_size}")
    if k == 1:
        return math.inf
    sq_sum = math.fsum((a - b) ** 2 for a, b in zip(cand, inc))
    return bernstein_delta_from_sq(k, sq_sum, class_size)
