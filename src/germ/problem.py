"""Finite learning problems: a discrete outcome distribution plus a bounded loss table.

A problem is the triple (distribution over m outcomes, |H| x m loss matrix
with entries in [0, 1], name).  Outcomes and hypotheses are plain indices;
everything downstream (gap sequences, the greedy loop, the exact oracle)
works directly on these tables.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

PROB_SUM_TOLERANCE = 1e-12

# most count vectors (or outcome sequences) an exact sum may visit
ENUMERATION_BUDGET = 10**7

# count vectors per block of a multinomial sum
COUNT_BLOCK = 2048


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probabilities over outcome indices 0..m-1.

    Entries must be nonnegative and sum to 1 within ``PROB_SUM_TOLERANCE``;
    inputs inside the tolerance are renormalized on construction, anything
    further off is rejected.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        if len(probs) == 0:
            raise ValueError("a distribution needs at least one outcome")
        for p in probs:
            if not p >= 0.0:
                raise ValueError(f"negative or non-numeric probability {p!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOLERANCE}")
        object.__setattr__(self, "probs", tuple(p / total for p in probs))

    @property
    def outcome_count(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)


@dataclass(frozen=True)
class LossTable:
    """Loss matrix: rows[h][z] is the loss of hypothesis h on outcome z, in [0, 1]."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) == 0:
            raise ValueError("a loss table needs at least one hypothesis row")
        width = len(self.rows[0])
        if width == 0:
            raise ValueError("a loss table needs at least one outcome column")
        clean = []
        for h, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"ragged loss table: row {h} has {len(row)} entries, expected {width}")
            for v in row:
                if not 0.0 <= float(v) <= 1.0:
                    raise ValueError(f"loss entry {v!r} in row {h} is outside [0, 1]")
            clean.append(tuple(float(v) for v in row))
        object.__setattr__(self, "rows", tuple(clean))

    @property
    def class_size(self) -> int:
        return len(self.rows)

    @property
    def outcome_count(self) -> int:
        return len(self.rows[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=np.float64)


@dataclass(frozen=True)
class LearningProblem:
    """A named (distribution, loss table) pair over a shared outcome space."""

    name: str
    distribution: DiscreteDistribution
    loss: LossTable

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a problem needs a nonempty name")
        if self.distribution.outcome_count != self.loss.outcome_count:
            raise ValueError(
                f"distribution has {self.distribution.outcome_count} outcomes "
                f"but loss table has {self.loss.outcome_count}"
            )

    @property
    def class_size(self) -> int:
        return self.loss.class_size

    @property
    def outcome_count(self) -> int:
        return self.loss.outcome_count


@dataclass(frozen=True)
class Sample:
    """An immutable sequence of observed outcome indices z_1..z_n."""

    outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        clean = tuple(int(z) for z in self.outcomes)
        for z in clean:
            if z < 0:
                raise ValueError(f"outcome index {z} is negative")
        object.__setattr__(self, "outcomes", clean)

    def __len__(self) -> int:
        return len(self.outcomes)

    def prefix(self, k: int) -> "Sample":
        """The first k observations as a new sample."""
        if not 0 <= k <= len(self.outcomes):
            raise ValueError(f"prefix length {k} out of range for sample of size {len(self.outcomes)}")
        return Sample(self.outcomes[:k])


def _check_hypothesis(loss: LossTable, h: int) -> None:
    if not 0 <= h < loss.class_size:
        raise ValueError(f"hypothesis index {h} out of range for class of size {loss.class_size}")


def _check_outcomes(sample: Sample, m: int) -> None:
    for z in sample.outcomes:
        if z >= m:
            raise ValueError(f"outcome index {z} out of range for {m} outcomes")


def population_risk(problem: LearningProblem, h: int) -> float:
    """Expected loss of hypothesis h under the problem's distribution."""
    _check_hypothesis(problem.loss, h)
    row = problem.loss.rows[h]
    return math.fsum(p * v for p, v in zip(problem.distribution.probs, row))


def population_risks(problem: LearningProblem) -> np.ndarray:
    """The population risk of every hypothesis, in index order."""
    return np.array([population_risk(problem, h) for h in range(problem.class_size)])


def optimal_risk(problem: LearningProblem) -> tuple[float, int]:
    """Minimum population risk over the class and its argmin index.

    Ties break toward the lowest index, matching every other argmin in the
    package.
    """
    risks = population_risks(problem)
    best = int(np.argmin(risks))
    return float(risks[best]), best


def _outcome_index(cum: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome of each 64-bit word in ``words``.

    ``Generator.random`` makes the uniform u = (word >> 11) * 2**-53 of a
    Philox word, and the outcome is the count of cum[j] <= u over j < m - 1,
    which is ``min(searchsorted(cum, u, "right"), m - 1)``.  With u a
    multiple of 2**-53, c <= u exactly when word >= ceil(c * 2**53) << 11,
    so the count compares integers.  An entry c >= 1 exceeds every u < 1
    and counts nothing.
    """
    z = np.zeros(words.shape, dtype=np.min_scalar_type(len(cum) - 1))
    for c in cum[:-1].tolist():
        if c < 1.0:
            z += words >= np.uint64(math.ceil(c * 2.0**53) << 11)
    return z


def _count_vector_blocks(n: int, m: int):
    """Every count vector of m categories summing to n, in blocks of rows.

    Rows come in lexicographically ascending order, one block per
    COUNT_BLOCK consecutive ranks (the last block may hold fewer), and each
    block is unranked from its ranks alone, so memory is bounded by the
    block.  Of the N_p(t) = C(t + p - 1, p - 1) vectors of p parts summing
    to t, N_p(t) - N_p(t - a) have a first entry below a; so a rank's first
    entry is the largest a whose count does not exceed it, and the rank
    less that count is unranked over the other parts.  Every table entry is
    at most the number of vectors, so int64 is exact within the
    enumeration budget.
    """
    if m == 1:
        yield np.array([[n]], dtype=np.int64)
        return
    # ways[p - 1][t] = N_p(t); N_1 = 1, and N_p is the running sum of N_(p-1)
    ways = [np.ones(n + 1, dtype=np.int64)]
    for _ in range(m - 1):
        ways.append(np.cumsum(ways[-1]))
    total = int(ways[-1][n])
    for lo in range(0, total, COUNT_BLOCK):
        rank = np.arange(lo, min(lo + COUNT_BLOCK, total), dtype=np.int64)
        left = np.full(len(rank), n, dtype=np.int64)
        counts = np.empty((len(rank), m), dtype=np.int64)
        for j in range(m - 2):
            table = ways[m - 1 - j]
            top = table[left]
            rest = np.searchsorted(table, top - rank)
            counts[:, j] = left - rest
            rank -= top - table[rest]
            left = rest
        # with two parts left, the rank is the first of them
        counts[:, -2] = rank
        counts[:, -1] = left - rank
        yield counts


def multinomial_blocks(probs, n: int):
    """Every possible count vector of n i.i.d. draws, with its probability.

    Yields ``(counts, weights)`` blocks in ascending lexicographic order:
    ``counts`` has one int row per count vector over the categories of
    ``probs`` and ``weights`` holds their multinomial probabilities.  Each
    block comes from COUNT_BLOCK consecutive ranks of the enumeration, so
    it holds at most that many rows; rows that count a zero-probability
    category are dropped.  An expectation that depends on a sample only
    through its counts is a weighted sum over these blocks.

    Raises
    ------
    ResourceLimitError
        When the C(n + m - 1, m - 1) count vectors exceed ENUMERATION_BUDGET.
    """
    probs = np.asarray(probs, dtype=np.float64)
    m = len(probs)
    vectors = math.comb(n + m - 1, m - 1)
    if vectors > ENUMERATION_BUDGET:
        raise ResourceLimitError(f"the exact sum visits {vectors} count vectors, budget is {ENUMERATION_BUDGET}")
    impossible = probs == 0.0
    log_p = np.log(np.where(impossible, 1.0, probs))
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    for counts in _count_vector_blocks(n, m):
        counts = counts[~(counts[:, impossible] > 0).any(axis=1)]
        if len(counts):
            yield counts, np.exp(log_fact[n] - log_fact[counts].sum(axis=1) + counts @ log_p)


def multinomial_sum(probs, n: int, weigh) -> float:
    """``math.fsum`` of the float terms ``weigh(counts, weights)`` of every
    block of ``multinomial_blocks(probs, n)``, fed a block at a time so that
    memory stays bounded by one block."""
    terms = (weigh(counts, weights).tolist() for counts, weights in multinomial_blocks(probs, n))
    return math.fsum(itertools.chain.from_iterable(terms))


def problem_to_dict(problem: LearningProblem) -> dict:
    return {
        "name": problem.name,
        "probs": list(problem.distribution.probs),
        "losses": [list(row) for row in problem.loss.rows],
    }


def check_fields(doc: dict, allowed: set[str], what: str) -> dict:
    """``doc``, checked to be a JSON object whose fields all lie in
    ``allowed``; the one rule for every JSON object germ reads."""
    if not isinstance(doc, dict):
        raise ValueError(f"the {what} must be a JSON object, got {type(doc).__name__}")
    unknown = doc.keys() - allowed
    if unknown:
        raise ValueError(f"unknown {what} fields {sorted(unknown)}")
    return doc


def problem_from_dict(doc: dict) -> LearningProblem:
    fields = {"name", "probs", "losses"}
    missing = fields - check_fields(doc, fields, "problem").keys()
    if missing:
        raise ValueError(f"problem document is missing fields: {sorted(missing)}")
    name, probs, losses = doc["name"], doc["probs"], doc["losses"]
    if not isinstance(name, str):
        raise ValueError("problem name must be a string")
    if not isinstance(probs, list) or not isinstance(losses, list):
        raise ValueError("probs must be a list and losses a list of lists")
    for row in losses:
        if not isinstance(row, list):
            raise ValueError("losses must be a list of lists")
    return LearningProblem(
        name=name,
        distribution=DiscreteDistribution(tuple(probs)),
        loss=LossTable(tuple(tuple(row) for row in losses)),
    )


def problem_to_json(problem: LearningProblem) -> str:
    return json.dumps(problem_to_dict(problem), indent=2) + "\n"


def problem_from_json(text: str) -> LearningProblem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid problem JSON: {exc}") from exc
    return problem_from_dict(doc)


def load_problem(path) -> LearningProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_json(fh.read())


def save_problem(problem: LearningProblem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(problem_to_json(problem))
