"""Task-similarity statistics from paired rollout outcomes.

Two tasks are treated as similar when observing an agent's success on one
sharply reduces uncertainty about its success on the other. That is measured
as the mutual information between the two success indicators, estimated by
plug-in counting over samples that pair both tasks with the same drawn agent.

The estimator works off outcome tables (tasks x agent-draws success bits), so
computing many pairwise values against a task pool reuses one table instead
of re-rolling every pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from taskemb import nn


def bernoulli_entropy(p) -> float | np.ndarray:
    """Entropy (nats) of a Bernoulli(p) variable, with 0*log(0) = 0."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError(f"probability outside [0, 1]: {p}")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -arr * np.log(arr) - (1.0 - arr) * np.log(1.0 - arr)
    h = np.where((arr == 0.0) | (arr == 1.0), 0.0, h)
    return float(h) if np.isscalar(p) or arr.ndim == 0 else h


@dataclass
class MutualInfoEstimate:
    """Plug-in mutual information between two success indicators, in nats."""

    value: float
    n_i: int          # successes on the first task
    n_j: int          # successes on the second task
    n_i_j_1: int      # successes on the first among second-task successes
    n_i_j_0: int      # successes on the first among second-task failures
    n_samples: int

    def __post_init__(self):
        if not (0 <= self.n_i_j_1 <= self.n_j
                and 0 <= self.n_i_j_0 <= self.n_samples - self.n_j
                and self.n_i_j_1 + self.n_i_j_0 == self.n_i):
            raise ValueError("inconsistent outcome counts")


def mi_from_counts(n_i: int, n_j: int, n_i_j_1: int, n_i_j_0: int,
                   n_samples: int) -> MutualInfoEstimate:
    """I_hat = H(first) - H(first | second) from paired success counts.

    Conditional terms whose conditioning event has empirical probability zero
    contribute nothing.
    """
    n = n_samples
    h_i = bernoulli_entropy(n_i / n)
    cond = 0.0
    if n_j > 0:
        cond += (n_j / n) * bernoulli_entropy(n_i_j_1 / n_j)
    if n_j < n:
        cond += (1.0 - n_j / n) * bernoulli_entropy(n_i_j_0 / (n - n_j))
    return MutualInfoEstimate(h_i - cond, n_i, n_j, n_i_j_1, n_i_j_0, n)


def mi_from_outcomes(o_i: np.ndarray, o_j: np.ndarray) -> MutualInfoEstimate:
    """Estimate from two aligned outcome rows (column k shares one agent draw)."""
    o_i = np.asarray(o_i).astype(bool)
    o_j = np.asarray(o_j).astype(bool)
    if o_i.shape != o_j.shape or o_i.ndim != 1:
        raise ValueError("outcome rows must be 1-d and aligned")
    n = o_i.size
    n_i = int(o_i.sum())
    n_j = int(o_j.sum())
    n_i_j_1 = int((o_i & o_j).sum())
    return mi_from_counts(n_i, n_j, n_i_j_1, n_i - n_i_j_1, n)


def mi_pairwise(table: np.ndarray, ref: int, others: np.ndarray | list) -> np.ndarray:
    """I_hat between one reference row and several other rows of a shared table."""
    return np.array([mi_from_outcomes(table[ref], table[j]).value for j in others])


def _reps_schedule(n_agents: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Spread n_samples across agents as evenly as possible (remainder random)."""
    base, extra = divmod(n_samples, n_agents)
    reps = np.full(n_agents, base, dtype=np.int64)
    if extra:
        reps[rng.permutation(n_agents)[:extra]] += 1
    return reps


def estimate_mi(task_i, task_j, population, n_samples: int | None = None,
                rng: np.random.Generator | None = None) -> MutualInfoEstimate:
    """Paired-rollout mutual information estimate between two tasks.

    Each of the n_samples draws picks an agent and rolls out both tasks under
    it. Draws are stratified over the population (the default budget is 100
    per agent), matching how constraint labels are produced.
    """
    if rng is None:
        raise ValueError("estimate_mi needs an explicit rng")
    n_agents = len(population.snapshots)
    if n_samples is None:
        n_samples = 100 * n_agents
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    reps = _reps_schedule(n_agents, n_samples, rng)
    s_i = task_i.state0 if hasattr(task_i, "state0") else np.asarray(task_i, dtype=np.float64)
    s_j = task_j.state0 if hasattr(task_j, "state0") else np.asarray(task_j, dtype=np.float64)
    table = population.outcome_table(np.stack([s_i, s_j]), reps, rng)
    return mi_from_outcomes(table[0], table[1])


@dataclass
class TripletConstraint:
    """Ordered task triplet: label 1 means task2 is the more-similar partner of task1."""

    task1: int
    task2: int
    task3: int
    label: int
    est12: float
    est13: float


@dataclass
class PairConstraint:
    """Ordered task pair: label 1 means task1 has the higher success probability."""

    task1: int
    task2: int
    label: int
    pos1: float
    pos2: float


@dataclass
class ConstraintSet:
    """Triplet and pair constraints over a shared task pool (indices into it)."""

    env: str
    triplets: list[TripletConstraint]
    pairs: list[PairConstraint]


def label_triplet(table: np.ndarray, i1: int, i2: int, i3: int) -> TripletConstraint:
    est12 = mi_from_outcomes(table[i1], table[i2]).value
    est13 = mi_from_outcomes(table[i1], table[i3]).value
    return TripletConstraint(i1, i2, i3, int(est12 > est13), est12, est13)


def gen_constraint_splits(pool_states: np.ndarray, population,
                          counts: list[tuple[int, int]], rng: np.random.Generator,
                          mi_reps_per_agent: int = 100,
                          pos_reps_per_agent: int = 10,
                          drop_ties_eps: float = 0.0) -> list[ConstraintSet]:
    """Sample several constraint sets (e.g. train/val/test) over one task pool.

    The expensive outcome tables are built once: mi_reps_per_agent draws per
    agent label all triplets, an independent pos_reps_per_agent table labels
    pair difficulty. Each requested (n_mi, n_norm) split then draws its own
    constraints. With drop_ties_eps > 0, triplets whose two similarity
    estimates differ by less than eps are resampled instead of labeled
    arbitrarily.
    """
    pool_states = np.asarray(pool_states, dtype=np.float64)
    n_pool = pool_states.shape[0]
    mi_rng, pos_rng, draw_rng = rng.spawn(3)
    table = population.outcome_table(pool_states, mi_reps_per_agent, mi_rng)
    pos = population.outcome_table(pool_states, pos_reps_per_agent, pos_rng).mean(axis=1)

    sets = []
    for n_mi, n_norm in counts:
        if n_mi < 1 or n_norm < 1:
            raise ValueError("constraint counts must be >= 1")
        triplets: list[TripletConstraint] = []
        attempts = 0
        while len(triplets) < n_mi:
            i1, i2, i3 = draw_rng.integers(0, n_pool, size=3)
            c = label_triplet(table, int(i1), int(i2), int(i3))
            attempts += 1
            if drop_ties_eps > 0.0 and abs(c.est12 - c.est13) < drop_ties_eps:
                if attempts > 100 * n_mi:
                    raise RuntimeError("drop-ties threshold rejects nearly all triplets")
                continue
            triplets.append(c)
        pairs: list[PairConstraint] = []
        for _ in range(n_norm):
            i4, i5 = draw_rng.integers(0, n_pool, size=2)
            pairs.append(PairConstraint(int(i4), int(i5), int(pos[i4] > pos[i5]),
                                        float(pos[i4]), float(pos[i5])))
        sets.append(ConstraintSet(population.env, triplets, pairs))
    return sets


def save_constraints(path, cset: ConstraintSet) -> None:
    """CSV rows `kind,task1,task2,task3,label,est1,est2`; task columns are pool row indices."""
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["kind", "task1", "task2", "task3", "label", "est1", "est2"])
        for t in cset.triplets:
            writer.writerow(["mi", t.task1, t.task2, t.task3, t.label,
                             repr(t.est12), repr(t.est13)])
        for p in cset.pairs:
            writer.writerow(["norm", p.task1, p.task2, "", p.label,
                             repr(p.pos1), repr(p.pos2)])


def load_constraints(path, env: str) -> ConstraintSet:
    """Read save_constraints' CSV; a bad row raises nn.ArtifactFormatError naming its line."""
    triplets, pairs = [], []
    with open(path, "r", newline="", encoding="utf-8") as fp:
        reader = nn.LineReader(fp)
        with reader.located():
            rows = reader.csv_rows()
            next(rows)  # the header
            for kind, t1, t2, t3, label, e1, e2 in rows:
                if kind == "mi":
                    triplets.append(TripletConstraint(int(t1), int(t2), int(t3),
                                                      int(label), float(e1), float(e2)))
                elif kind == "norm":
                    pairs.append(PairConstraint(int(t1), int(t2), int(label),
                                                float(e1), float(e2)))
                else:
                    raise ValueError(f"unknown constraint kind {kind!r}")
    return ConstraintSet(env, triplets, pairs)
