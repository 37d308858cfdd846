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

Each formula has one NumPy implementation, which the single run, the
lockstep Monte Carlo engine and the exact oracle all evaluate; a scalar
argument broadcasts through it as a zero-dimensional array.  The bound
formulas in the analysis module follow the same rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _bernstein_slack
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

# The one name of each gap that carries no values: ``algo`` specs and
# labels write germ:<code>, and a config writes the code as its gap's
# variant, a uniform gap's split at the dash into variant and mode.  The
# constant and fixed gaps carry values, so they are read apart.
GAP_CODES = {
    "uniform-empirical": UniformConvergence(EmpiricalMcDiarmid()),
    "uniform-massart": UniformConvergence(MassartDeterministic()),
    "bernstein": EmpiricalBernstein(),
}


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

    Not a bound-derived sequence; configs reach it as gap variant
    ``fixed`` and labels as ``germ:fixed=<x>``.  ``value`` 0.0 makes the
    gate fire on any empirical non-increase, which recovers plain-ERM
    behavior as a sanity bridge.
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

    Returns ``(deltas, rbars)``, float arrays indexed by k - 1, for the
    fixed, Massart, and constant gaps (``rbars`` is None for the fixed
    gap), or None for the sample-dependent Bernstein and EmpiricalMcDiarmid
    gaps.  A UserConstant mode must supply at least n values, which
    ``algorithm.check_algorithm`` checks.
    """
    if isinstance(gap, FixedDelta):
        return np.full(n, gap.value), None
    if not isinstance(gap.variant, UniformConvergence):
        return None
    mode = gap.variant.mode
    if isinstance(mode, EmpiricalMcDiarmid):
        return None
    ks = np.arange(1, n + 1)
    if isinstance(mode, MassartDeterministic):
        rbars = rbar_massart(gap.class_size, ks)
    else:
        rbars = np.array(mode.values[:n])
    return delta_uniform(ks, rbars), rbars


def delta_uniform(k, rbar_k):
    """Uniform-convergence gap at step k given the Rademacher bound rbar_k.

    ``k`` is a step index or an integer array of steps, broadcast against
    ``rbar_k``; ``mcdiarmid_radius`` checks k >= 1.
    """
    # the minimum propagates NaN, and costs less than np.all(rbar_k >= 0)
    if not np.min(rbar_k) >= 0.0:
        raise ValueError(f"rbar must be >= 0, got {rbar_k!r}")
    return 4.0 * rbar_k + mcdiarmid_radius(k) + 2.0 / k


@functools.lru_cache(maxsize=None)
def _bernstein_log_table(size: int, class_size: int) -> np.ndarray:
    """Read-only ln(2 k |H|^2), the confidence term of both Bernstein
    pieces, at index k for 1 <= k < size, each from one ``math.log`` call."""
    if class_size < 1:
        raise ValueError(f"class size must be >= 1, got {class_size}")
    table = np.array([math.nan] + [math.log(2.0 * k * class_size * class_size) for k in range(1, size)])
    table.flags.writeable = False
    return table


def bernstein_delta_from_sq(k, sq_sum, class_size: int):
    """Empirical-Bernstein gap at steps k >= 2 from the squared-difference sum.

    ``k`` is a step index or an integer array of steps, broadcast against
    ``sq_sum``, the sum over the sample of (l(cand, z_i) - l(inc, z_i))^2.
    The gap is undefined at k = 1, where the gated step pins it to
    +infinity (``algorithm._bernstein_gaps``).  It is the pairwise slack of
    ``analysis.pairwise_rhs_from_sq`` at delta = 1/k plus 2/k, since
    ln(2k |H|^2) = ln(2 |H|^2 / delta); the log terms come from a cached
    table.  Since the square-root term is >= 0 and rounding is
    monotone, the gap at ``sq_sum = 0.0`` is a lower bound of the gap at
    any sum.
    """
    k = np.asarray(k)
    if k.min() < 2:
        raise ValueError(f"the Bernstein gap is defined from k = 2, got k = {k.min()}")
    log_term = _bernstein_log_table(1 << int(k.max()).bit_length(), class_size)[k]
    return _bernstein_slack(sq_sum, k, log_term) + 2.0 / k
