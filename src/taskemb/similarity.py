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

from dataclasses import dataclass

import numpy as np

from taskemb import nn
from taskemb.population import success_rates


def bernoulli_entropy(p) -> np.ndarray:
    """Entropy (nats) of Bernoulli(p) variables, elementwise over an array, 0*log(0) = 0."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError(f"probability outside [0, 1]: {p}")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -arr * np.log(arr) - (1.0 - arr) * np.log(1.0 - arr)
    return np.where((arr == 0.0) | (arr == 1.0), 0.0, h)


def mutual_information(first, second) -> float | np.ndarray:
    """Plug-in I_hat = H(first) - H(first | second), in nats, between aligned 0/1 rows.

    The last axis holds the draws (column k of both shares one agent draw); leading axes
    broadcast, so a row against a stack of rows gives one value per stacked row. A
    conditional term whose conditioning event never occurs contributes nothing.
    """
    first = np.asarray(first, dtype=bool)
    second = np.asarray(second, dtype=bool)
    n = first.shape[-1]
    if n < 1 or second.shape[-1] != n:
        raise ValueError("outcome rows must be aligned and non-empty")
    n_i = np.count_nonzero(first, axis=-1)
    n_j = np.count_nonzero(second, axis=-1)
    n_i_j_1 = np.count_nonzero(first & second, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        given_1 = np.where(n_j > 0, n_i_j_1 / n_j, 0.0)
        given_0 = np.where(n_j < n, (n_i - n_i_j_1) / (n - n_j), 0.0)
    p_j = n_j / n
    h_i, h_1, h_0 = bernoulli_entropy(np.stack(np.broadcast_arrays(n_i / n, given_1, given_0)))
    return h_i - (p_j * h_1 + (1.0 - p_j) * h_0)


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
class ConstraintSet:
    """Row-aligned constraint arrays over a shared task pool (entries index pool rows).

    Triplet label 1: task2 is more similar to task1 than task3 is. Pair label 1: the
    first task has the higher success rate.
    """

    env: str
    triplets: np.ndarray        # (n, 3) task1, task2, task3
    triplet_labels: np.ndarray  # (n,) 0 or 1
    mi: np.ndarray              # (n, 2) estimates for (task1, task2) and (task1, task3)
    pairs: np.ndarray           # (m, 2) task1, task2
    pair_labels: np.ndarray     # (m,) 0 or 1
    pos: np.ndarray             # (m, 2) success rates of task1 and task2


def label_triplet(table: np.ndarray, i1: int, i2: int, i3: int) -> TripletConstraint:
    est12, est13 = mutual_information(table[i1], table[[i2, i3]])
    return TripletConstraint(i1, i2, i3, int(est12 > est13), float(est12), float(est13))


def gen_constraint_splits(pool_states: np.ndarray, population,
                          counts: list[tuple[int, int]], rng: np.random.Generator,
                          mi_reps_per_agent: int = 100,
                          pos_reps_per_agent: int = 10) -> list[ConstraintSet]:
    """Sample several constraint sets (e.g. train/val/test) over one task pool.

    The expensive outcome tables are built once: mi_reps_per_agent draws per
    agent label all triplets, an independent pos_reps_per_agent table labels
    pair difficulty. Each requested (n_mi, n_norm) split then draws its
    triplets, then its pairs, and labels them all at once.
    """
    pool_states = np.asarray(pool_states, dtype=np.float64)
    n_pool = pool_states.shape[0]
    mi_rng, pos_rng, draw_rng = rng.spawn(3)
    table = population.outcome_table(pool_states, mi_reps_per_agent, mi_rng).astype(bool)
    pos = success_rates(population, pool_states, pos_reps_per_agent, pos_rng)

    sets = []
    for n_mi, n_norm in counts:
        if n_mi < 1 or n_norm < 1:
            raise ValueError("constraint counts must be >= 1")
        triplets = draw_rng.integers(0, n_pool, size=(n_mi, 3))
        pairs = draw_rng.integers(0, n_pool, size=(n_norm, 2))
        mi = mutual_information(table[triplets[:, :1]], table[triplets[:, 1:]])
        sets.append(ConstraintSet(population.env, triplets, (mi[:, 0] > mi[:, 1]).astype(int),
                                  mi, pairs, (pos[pairs[:, 0]] > pos[pairs[:, 1]]).astype(int),
                                  pos[pairs]))
    return sets


def save_constraints(path, cset: ConstraintSet):
    """CSV rows `kind,task1,task2,task3,label,est1,est2` (tasks are pool rows); returns path."""
    return nn.write_csv(path, ["kind", "task1", "task2", "task3", "label", "est1", "est2"],
                        [*(["mi", *t, label, *est] for t, label, est in zip(
                            cset.triplets.tolist(), cset.triplet_labels.tolist(),
                            cset.mi.tolist())),
                         *(["norm", *p, "", label, *est] for p, label, est in zip(
                             cset.pairs.tolist(), cset.pair_labels.tolist(), cset.pos.tolist()))])


def load_constraints(path, env: str) -> ConstraintSet:
    """Read save_constraints' CSV: mi rows, then norm rows with an empty task3. A bad row, a
    negative task index, a label other than 0 or 1, a non-finite estimate or an mi row after
    a norm row raises nn.ArtifactFormatError naming its line."""
    _, rows = nn.read_table(path, ints=(1, 2, 3, 4), words={0: {"mi": 0.0, "norm": 1.0}},
                            blanks={3: -1})
    kind, tasks, label, est = rows[:, 0], rows[:, 1:4], rows[:, 4], rows[:, 5:]
    mi = kind == 0
    outside = tasks < 0
    outside[:, 2] &= mi
    if fault := nn.first_broken([
            (lambda r: f"need task indices >= 0 (pool rows), got "
                       f"{[int(t) for t in tasks[r, :3 if mi[r] else 2]]}", outside.any(axis=1)),
            (lambda r: f"label {int(label[r])} is not 0 or 1", ~np.isin(label, (0, 1))),
            (lambda r: f"non-finite estimate in {est[r].tolist()}",
             ~np.isfinite(est).all(axis=1)),
            ("an mi row after a norm row", mi & (np.maximum.accumulate(kind) == 1))]):
        raise nn.ArtifactFormatError.at_row(path, *fault)
    n_mi = np.count_nonzero(mi)
    return ConstraintSet(env, tasks[:n_mi].astype(np.intp), label[:n_mi].astype(int),
                         np.ascontiguousarray(est[:n_mi]), tasks[n_mi:, :2].astype(np.intp),
                         label[n_mi:].astype(int), np.ascontiguousarray(est[n_mi:]))
