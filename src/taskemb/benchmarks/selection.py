"""Task selection: pick the option most similar to (or similar-but-harder than) a reference.

Ground truth comes from full-population estimates: similarity is the paired
mutual-information statistic, difficulty the success-rate estimate. Methods
rank the ten options; Type-2 queries first filter options the method deems
harder than the reference and fall back to the unfiltered ranking when that
filter comes up empty.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from taskemb import nn
from taskemb.envs import rollout_batch, sample_tasks
from taskemb.envs.core import ExpertPolicy, check_states, get_env
from taskemb.population import Population, success_rates
from taskemb.seeding import make_rng
from taskemb.similarity import mutual_information
from taskemb.stats import levenshtein

METHODS = ("ours", "ours_wonorm", "random", "state_sim", "trajectory_sim",
           "opt", "opt50", "predmodel")
N_OPTIONS = 10       # options ranked per example
N_EASY = 5           # easy reference tasks per dataset
TRAJECTORY_SEED = 7  # seeds the expert rollouts of trajectory_sim, per task
# The rows of one example in a selection CSV, in order.
ROLES = ("ref", *(f"option_{j}" for j in range(N_OPTIONS)), *(f"easy_{j}" for j in range(N_EASY)))


@dataclass
class SelectionSet(nn.Rows):
    """A selection dataset, one row per example; set[i] is example i."""

    ref_state: np.ndarray       # (n, state_dim)
    option_states: np.ndarray   # (n, N_OPTIONS, state_dim)
    easy_refs: np.ndarray       # (n, N_EASY, state_dim), shared per dataset
    query_type: np.ndarray      # (n,) 1: most similar; 2: most similar among harder
    ground_truth: np.ndarray    # (n,)
    gt_sims: np.ndarray         # (n, N_OPTIONS) construction-time similarity estimates
    pos_ref: np.ndarray         # (n,)
    pos_options: np.ndarray     # (n, N_OPTIONS)


def gen_selection_dataset(env: str, population: Population, n_examples: int,
                          rng: np.random.Generator, mi_reps_per_agent: int = 100,
                          pos_reps_per_agent: int = 10, easy_pool_size: int = 500
                          ) -> SelectionSet:
    """Build one dataset of alternating Type-1 / Type-2 examples.

    Easy reference tasks are the N_EASY highest success-rate tasks out of a
    sampled pool. A Type-2 example is resampled until at least one option is
    estimated harder than its reference.
    """
    pool_rng, ex_rng, mi_rng = rng.spawn(3)
    pool = sample_tasks(env, easy_pool_size, pool_rng)
    pool_pos = success_rates(population, pool, pos_reps_per_agent, pool_rng)
    easy_refs = pool[np.argsort(-pool_pos, kind="stable")[:N_EASY]]

    query_types = np.where(np.arange(n_examples) % 2 == 0, 1, 2)
    tasks = np.empty((n_examples, 1 + N_OPTIONS, pool.shape[1]))  # each row: ref, options
    pos = np.empty((n_examples, 1 + N_OPTIONS))
    pending = np.arange(n_examples)
    for _ in range(60):
        if pending.size == 0:
            break
        draw = sample_tasks(env, pending.size * (1 + N_OPTIONS), ex_rng)
        rates = success_rates(population, draw, pos_reps_per_agent, ex_rng)
        rates = rates.reshape(pending.size, 1 + N_OPTIONS)
        ok = (query_types[pending] == 1) | np.any(rates[:, 1:] < rates[:, :1], axis=1)
        tasks[pending[ok]] = draw.reshape(pending.size, 1 + N_OPTIONS, -1)[ok]
        pos[pending[ok]] = rates[ok]
        pending = pending[~ok]
    if pending.size:
        raise RuntimeError("could not sample Type-2 examples with a harder option")

    table = population.outcome_table(tasks.reshape(-1, tasks.shape[2]), mi_reps_per_agent,
                                     mi_rng).reshape(n_examples, 1 + N_OPTIONS, -1)
    sims = mutual_information(table[:, :1], table[:, 1:])
    # Type 1 ranks every option; Type 2 only those estimated harder than the reference.
    eligible = (query_types[:, None] == 1) | (pos[:, 1:] < pos[:, :1])
    gts = np.argmax(np.where(eligible, sims, -np.inf), axis=1)
    return SelectionSet(tasks[:, 0], tasks[:, 1:],
                        np.broadcast_to(easy_refs, (n_examples, *easy_refs.shape)),
                        query_types, gts, sims, pos[:, 0], pos[:, 1:])


@dataclass
class SelectionResources:
    """Everything the method family needs; unused entries may stay None."""

    env: str
    model: object = None          # embedding net for "ours"
    model_wonorm: object = None
    predmodel: object = None
    population: Population | None = None
    population_half: Population | None = None
    mi_reps_per_agent: int = 100
    pos_reps_per_agent: int = 10


def _rank(sims: np.ndarray, harder: np.ndarray):
    """Full rankings of each row of (n, N_OPTIONS) similarities: the row's harder options
    first, each part by similarity. Returns (rankings, boundaries): the first boundaries[i]
    entries of row i are its harder options; 0 means none was, and the row is the
    fallback ranking over all options."""
    order = np.argsort(-sims, axis=1, kind="stable")
    harder_first = np.argsort(~np.take_along_axis(harder, order, axis=1), axis=1, kind="stable")
    return np.take_along_axis(order, harder_first, axis=1), harder.sum(axis=1)


def _task_digest(state: np.ndarray) -> int:
    return int.from_bytes(hashlib.sha256(state.tobytes()).digest()[:8], "big")


def _expert_symbols(env: str, states: np.ndarray) -> list[np.ndarray]:
    """The expert's action symbols on each task; a task that appears more than once is
    rolled out once. All distinct tasks run in one lockstep call under one shared expert,
    each its own segment on the stream its digest seeds, so each gets the symbols of a
    rollout on it alone."""
    ops, distinct = get_env(env), {}
    for state in states:
        distinct.setdefault(state.tobytes(), state)
    tasks, m = np.array(list(distinct.values())), len(distinct)
    _, _, steps = rollout_batch(env, tasks, ExpertPolicy(),
                                [make_rng(TRAJECTORY_SEED, _task_digest(t)) for t in tasks],
                                record=True, sizes=[1] * m)
    lengths = np.bincount(steps.episode, minlength=m)
    symbols = dict(zip(distinct, np.split(ops.action_symbols(steps.actions),
                                          np.cumsum(lengths)[:-1])))
    return [symbols[state.tobytes()] for state in states]


def _trajectory_distances(env: str, tasks: np.ndarray, easy: np.ndarray, type2: np.ndarray):
    """Edit distances between expert action symbols for (n, 1 + N_OPTIONS) ref-then-option
    tasks: each option's to its ref, (n, N_OPTIONS), and each task's to its nearest easy
    reference, (n, 1 + N_OPTIONS), computed on the Type-2 rows only (0 elsewhere)."""
    n, width, d = tasks.shape
    symbols = _expert_symbols(env, np.concatenate([tasks.reshape(-1, d),
                                                   easy[type2].reshape(-1, d)]))
    rows = [symbols[i:i + width] for i in range(0, n * width, width)]
    easy_rows = [symbols[i:i + N_EASY] for i in range(n * width, len(symbols), N_EASY)]
    dist = np.array([[levenshtein(ref, s) for s in opts] for ref, *opts in rows], dtype=float)
    nearest = np.zeros((n, width))
    for i, easy_sym in zip(np.flatnonzero(type2), easy_rows):
        nearest[i] = [min(levenshtein(s, e) for e in easy_sym) for s in rows[i]]
    return dist, nearest


def rank_options(method: str, examples: SelectionSet, res: SelectionResources,
                 rng: np.random.Generator):
    """Rank the options of every example with one method: (rankings (n, N_OPTIONS),
    boundaries (n,)) as `_rank` gives them, the hardness filter on Type-2 rows only. random
    draws one permutation per example and opt / opt50 one MI table, then for Type 2 one
    success-rate table, per example in order; the embedding methods make one embed call."""
    tasks = np.concatenate([examples.ref_state[:, None], examples.option_states], axis=1)
    n, _, d = tasks.shape  # each row: the ref, then its N_OPTIONS options
    type2 = examples.query_type == 2
    if method == "random":
        return np.stack([rng.permutation(N_OPTIONS) for _ in range(n)]), np.zeros(n, int)
    if method in ("ours", "ours_wonorm", "predmodel"):
        model = {"ours": res.model, "ours_wonorm": res.model_wonorm,
                 "predmodel": res.predmodel}[method]
        if model is None:
            raise ValueError(f"selection method {method!r} needs its model resource")
        e = model.embed(np.concatenate([tasks[:, 0], tasks[:, 1:].reshape(-1, d)]))
        e_ref, e_opt = e[:n, :, None], e[n:].reshape(n, N_OPTIONS, -1)
        harder = np.linalg.norm(e_opt, axis=2) > np.linalg.norm(e_ref, axis=1)
        return _rank((e_opt @ e_ref)[:, :, 0], type2[:, None] & harder)
    if method in ("state_sim", "trajectory_sim"):
        # An option is harder when its nearest easy reference lies farther than the ref's.
        easy = examples.easy_refs
        if method == "state_sim":
            dist = np.linalg.norm(tasks[:, 1:] - tasks[:, :1], axis=2)
            nearest = np.linalg.norm(easy[:, None] - tasks[:, :, None], axis=3).min(axis=2)
        else:
            dist, nearest = _trajectory_distances(res.env, tasks, easy, type2)
        return _rank(-dist, type2[:, None] & (nearest[:, 1:] > nearest[:, :1]))
    if method in ("opt", "opt50"):
        popn = res.population if method == "opt" else res.population_half
        if popn is None:
            raise ValueError(f"selection method {method!r} needs its population resource")
        sims, harder = np.empty((n, N_OPTIONS)), np.zeros((n, N_OPTIONS), dtype=bool)
        for i, stack in enumerate(tasks):
            table = popn.outcome_table(stack, res.mi_reps_per_agent, rng)
            sims[i] = mutual_information(table[0], table[1:])
            if type2[i]:
                pos = popn.outcome_table(stack, res.pos_reps_per_agent, rng).mean(axis=1)
                harder[i] = pos[1:] < pos[0]
        return _rank(sims, harder)
    raise ValueError(f"unknown selection method {method!r}; options: {', '.join(METHODS)}")


def select(method: str, example: SelectionSet, res: SelectionResources,
           rng: np.random.Generator):
    """(ranking, hardness boundary) of one example, a row `set[i]` of a SelectionSet."""
    rankings, boundaries = rank_options(method, example[None], res, rng)
    return rankings[0], int(boundaries[0])


def topk_accuracy(rankings: list[np.ndarray], ground_truths: list[int], k: int) -> float:
    hits = [gt in rank[:k] for rank, gt in zip(rankings, ground_truths)]
    return float(np.mean(hits))


def save_selection_dataset(path, env: str, examples: SelectionSet):
    def rows():
        for i, (qt, gt, pos_ref) in enumerate(zip(*(a.tolist() for a in (
                examples.query_type, examples.ground_truth, examples.pos_ref)))):
            yield [i, "ref", qt, gt, pos_ref, "", *examples.ref_state[i].tolist()]
            options = zip(examples.option_states[i].tolist(), examples.pos_options[i].tolist(),
                          examples.gt_sims[i].tolist())
            for j, (state, pos, sim) in enumerate(options):
                yield [i, f"option_{j}", qt, "", pos, sim, *state]
            for j, state in enumerate(examples.easy_refs[i].tolist()):
                yield [i, f"easy_{j}", qt, "", "", "", *state]
    return nn.write_csv(path, ["example", "role", "query_type", "ground_truth", "pos",
                               "similarity", *get_env(env).state_fields], rows())


def load_selection_dataset(path) -> SelectionSet:
    """Read save_selection_dataset's CSV into views of one state array. Each example is
    the ROLES rows in order; a bad row, another row, a query type other than 1 or 2, a
    ground truth that is not an option index, an empty or non-finite pos or similarity on a
    row that uses it, no example, a last one cut short, or states that `check_states`
    rejects raise nn.ArtifactFormatError naming the line, a bad row first."""
    header, rows = nn.read_table(path, ints=(0, 2, 3), blanks={3: -1, 4: np.nan, 5: np.nan},
                                 words={1: {role: j for j, role in enumerate(ROLES)}})
    example, role, qtype, gt, pos, sims = rows[:, :6].T
    k, j = np.divmod(np.arange(len(rows)), len(ROLES))  # the example and role of each row
    ref, option = j == 0, (0 < j) & (j <= N_OPTIONS)
    if fault := nn.first_broken([
            (lambda r: f"unexpected row: example {int(example[r])}, "
                       f"role {ROLES[int(role[r])]!r}", (example != k) | (role != j)),
            (lambda r: f"query type {int(qtype[r])} is not 1 or 2", ref & ~np.isin(qtype, (1, 2))),
            (lambda r: f"ground truth {int(gt[r])} is not an option index",
             ref & ((gt < 0) | (gt >= N_OPTIONS))),
            ("empty or non-finite pos", (ref | option) & ~np.isfinite(pos)),
            ("empty or non-finite similarity", option & ~np.isfinite(sims))]):
        raise nn.ArtifactFormatError.at_row(path, *fault)
    n_examples, cut = divmod(len(rows), len(ROLES))
    if cut or not n_examples:
        raise nn.ArtifactFormatError.at_row(
            path, len(rows), f"example {n_examples} has {cut} of its {len(ROLES)} rows" if cut
            else "no examples after the header")
    states = check_states(header[6:], np.ascontiguousarray(rows[:, 6:]), path).reshape(
        n_examples, len(ROLES), -1)
    fields = rows.reshape(n_examples, len(ROLES), -1)
    options = slice(1, 1 + N_OPTIONS)
    return SelectionSet(states[:, 0], states[:, options], states[:, 1 + N_OPTIONS:],
                        fields[:, 0, 2].astype(np.int64), fields[:, 0, 3].astype(np.int64),
                        fields[:, options, 5], fields[:, 0, 4], fields[:, options, 4])
