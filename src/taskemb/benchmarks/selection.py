"""Task selection: pick the option most similar to (or similar-but-harder than) a reference.

Ground truth comes from full-population estimates: similarity is the paired
mutual-information statistic, difficulty the success-rate estimate. Methods
rank the ten options; Type-2 queries first filter options the method deems
harder than the reference and fall back to the unfiltered ranking when that
filter comes up empty.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from taskemb import nn
from taskemb.envs import rollout_batch, sample_tasks
from taskemb.envs.core import ExpertPolicy, get_env
from taskemb.population import Population, success_rates
from taskemb.seeding import make_rng
from taskemb.similarity import mutual_information
from taskemb.stats import levenshtein

METHODS = ("ours", "ours_wonorm", "random", "state_sim", "trajectory_sim",
           "opt", "opt50", "predmodel")
N_OPTIONS = 10       # options ranked per example
N_EASY = 5           # easy reference tasks per dataset
TRAJECTORY_SEED = 7  # seeds the expert rollouts of trajectory_sim, per task


@dataclass
class SelectionExample:
    ref_state: np.ndarray
    option_states: np.ndarray   # (N_OPTIONS, state_dim)
    easy_refs: np.ndarray       # (N_EASY, state_dim), shared per dataset
    query_type: int             # 1: most similar; 2: most similar among harder
    ground_truth: int
    gt_sims: np.ndarray         # construction-time similarity estimates per option
    pos_ref: float
    pos_options: np.ndarray


def gen_selection_dataset(env: str, population: Population, n_examples: int,
                          rng: np.random.Generator, mi_reps_per_agent: int = 100,
                          pos_reps_per_agent: int = 10, easy_pool_size: int = 500
                          ) -> list[SelectionExample]:
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
    refs = np.empty((n_examples, pool.shape[1]))
    options = np.empty((n_examples, N_OPTIONS, pool.shape[1]))
    pos_ref = np.empty(n_examples)
    pos_opt = np.empty((n_examples, N_OPTIONS))
    pending = np.arange(n_examples)
    for _ in range(60):
        if pending.size == 0:
            break
        draw = sample_tasks(env, pending.size * (1 + N_OPTIONS), ex_rng)
        draw = draw.reshape(pending.size, 1 + N_OPTIONS, -1)
        rates = success_rates(population,
                              draw.reshape(-1, draw.shape[2]),
                              pos_reps_per_agent, ex_rng)
        rates = rates.reshape(pending.size, 1 + N_OPTIONS)
        ok = (query_types[pending] == 1) | np.any(rates[:, 1:] < rates[:, :1], axis=1)
        sel = pending[ok]
        refs[sel] = draw[ok, 0]
        options[sel] = draw[ok, 1:]
        pos_ref[sel] = rates[ok, 0]
        pos_opt[sel] = rates[ok, 1:]
        pending = pending[~ok]
    if pending.size:
        raise RuntimeError("could not sample Type-2 examples with a harder option")

    all_tasks = np.concatenate([refs[:, None, :], options], axis=1)
    table = population.outcome_table(all_tasks.reshape(-1, all_tasks.shape[2]),
                                     mi_reps_per_agent, mi_rng)
    table = table.reshape(n_examples, 1 + N_OPTIONS, -1)
    sims = mutual_information(table[:, :1], table[:, 1:])
    # Type 1 ranks every option; Type 2 only those estimated harder than the reference.
    eligible = (query_types[:, None] == 1) | (pos_opt < pos_ref[:, None])
    gts = np.argmax(np.where(eligible, sims, -np.inf), axis=1)
    return [SelectionExample(refs[i], options[i], easy_refs, int(query_types[i]), int(gts[i]),
                             sims[i], float(pos_ref[i]), pos_opt[i])
            for i in range(n_examples)]


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


def _rank(sims: np.ndarray, harder: np.ndarray | None):
    """Full ranking: harder-filtered options first (when any), by similarity.

    Returns (ranking, boundary) where the first `boundary` entries satisfy the
    hardness predicate; boundary 0 means the filter was empty and the fallback
    ranking over all options applies.
    """
    order = np.argsort(-sims, kind="stable")
    if harder is None or not harder.any():
        return order, 0
    hard_part = order[harder[order]]
    soft_part = order[~harder[order]]
    return np.concatenate([hard_part, soft_part]), int(harder.sum())


def _embedding_rank(model, example: SelectionExample):
    e_ref = model.embed(example.ref_state)
    e_opt = model.embed(example.option_states)
    sims = e_opt @ e_ref
    if example.query_type == 1:
        return _rank(sims, None)
    harder = np.linalg.norm(e_opt, axis=1) > np.linalg.norm(e_ref)
    return _rank(sims, harder)


def _nearest_easy_similarity(sim_to_easy: np.ndarray) -> float:
    return float(sim_to_easy.max())


def _task_digest(state: np.ndarray) -> int:
    return int.from_bytes(hashlib.sha256(state.tobytes()).digest()[:8], "big")


def _expert_symbols(env: str, state: np.ndarray) -> np.ndarray:
    ops = get_env(env)
    rng = make_rng(TRAJECTORY_SEED, _task_digest(state))
    _, _, steps = rollout_batch(env, state[None, :], ExpertPolicy(), rng, record=True)
    return ops.action_symbols(steps.actions)


def select(method: str, example: SelectionExample, res: SelectionResources,
           rng: np.random.Generator):
    """Rank the options for one example. Returns (ranking, hardness_boundary)."""
    n_opt = example.option_states.shape[0]
    if method == "random":
        return rng.permutation(n_opt), 0
    if method in ("ours", "ours_wonorm", "predmodel"):
        model = {"ours": res.model, "ours_wonorm": res.model_wonorm,
                 "predmodel": res.predmodel}[method]
        if model is None:
            raise ValueError(f"selection method {method!r} needs its model resource")
        return _embedding_rank(model, example)
    if method == "state_sim":
        sims = -np.linalg.norm(example.option_states - example.ref_state, axis=1)
        if example.query_type == 1:
            return _rank(sims, None)
        easy = example.easy_refs
        h_opt = np.array([
            _nearest_easy_similarity(-np.linalg.norm(easy - s, axis=1))
            for s in example.option_states
        ])
        h_ref = _nearest_easy_similarity(-np.linalg.norm(easy - example.ref_state, axis=1))
        return _rank(sims, h_opt < h_ref)
    if method == "trajectory_sim":
        ref_sym = _expert_symbols(res.env, example.ref_state)
        opt_sym = [_expert_symbols(res.env, s) for s in example.option_states]
        sims = -np.array([levenshtein(ref_sym, sym) for sym in opt_sym], dtype=float)
        if example.query_type == 1:
            return _rank(sims, None)
        easy_sym = [_expert_symbols(res.env, s) for s in example.easy_refs]
        h_opt = np.array([
            _nearest_easy_similarity(-np.array([levenshtein(sym, es) for es in easy_sym],
                                               dtype=float))
            for sym in opt_sym
        ])
        h_ref = _nearest_easy_similarity(-np.array([levenshtein(ref_sym, es) for es in easy_sym],
                                                   dtype=float))
        return _rank(sims, h_opt < h_ref)
    if method in ("opt", "opt50"):
        popn = res.population if method == "opt" else res.population_half
        if popn is None:
            raise ValueError(f"selection method {method!r} needs its population resource")
        stack = np.concatenate([example.ref_state[None, :], example.option_states])
        table = popn.outcome_table(stack, res.mi_reps_per_agent, rng)
        sims = mutual_information(table[0], table[1:])
        if example.query_type == 1:
            return _rank(sims, None)
        pos = popn.outcome_table(stack, res.pos_reps_per_agent, rng).mean(axis=1)
        return _rank(sims, pos[1:] < pos[0])
    raise ValueError(f"unknown selection method {method!r}; options: {', '.join(METHODS)}")


def topk_accuracy(rankings: list[np.ndarray], ground_truths: list[int], k: int) -> float:
    hits = [gt in rank[:k] for rank, gt in zip(rankings, ground_truths)]
    return float(np.mean(hits))


def save_selection_dataset(path, env: str, examples: list[SelectionExample]) -> None:
    def rows():
        for i, ex in enumerate(examples):
            yield [i, "ref", ex.query_type, ex.ground_truth, ex.pos_ref, "",
                   *ex.ref_state.tolist()]
            options = zip(ex.option_states.tolist(), ex.pos_options.tolist(), ex.gt_sims.tolist())
            for j, (state, pos, sim) in enumerate(options):
                yield [i, f"option_{j}", ex.query_type, "", pos, sim, *state]
            for j, state in enumerate(ex.easy_refs.tolist()):
                yield [i, f"easy_{j}", ex.query_type, "", "", "", *state]
    nn.write_csv(path, ["example", "role", "query_type", "ground_truth", "pos", "similarity",
                        *get_env(env).state_fields], rows())


def load_selection_dataset(path) -> list[SelectionExample]:
    """Read save_selection_dataset's CSV; a bad or missing row, a query type other than 1
    or 2, or an example without N_OPTIONS options and N_EASY easy rows raises
    nn.ArtifactFormatError naming the line."""
    examples = []  # their array fields collect lists until the return
    with nn.read_csv(path) as (_, rows):
        for i, role, qtype, gt, pos, sim, *state in itertools.chain(rows, [[""] * 6]):
            if role in ("ref", "") and examples:  # the last example is complete
                last = examples[-1]
                got = (len(last.option_states), len(last.easy_refs))
                if got != (N_OPTIONS, N_EASY) or not 0 <= last.ground_truth < N_OPTIONS:
                    raise ValueError(f"example {len(examples) - 1} has (options, easy) {got}, "
                                     f"ground truth {last.ground_truth}; expected "
                                     f"({N_OPTIONS}, {N_EASY})")
            if not role:
                break
            state = np.array([float(v) for v in state])
            ex = examples[-1] if examples and int(i) == len(examples) - 1 else None
            if role == "ref" and int(i) == len(examples):
                if qtype not in ("1", "2"):
                    raise ValueError(f"query type {qtype!r} is not 1 or 2")
                examples.append(SelectionExample(state, [], [], int(qtype), int(gt), [],
                                                 float(pos), []))
            elif ex and role == f"option_{len(ex.option_states)}" and not ex.easy_refs:
                ex.option_states.append(state)
                ex.pos_options.append(float(pos))
                ex.gt_sims.append(float(sim))
            elif ex and role == f"easy_{len(ex.easy_refs)}":
                ex.easy_refs.append(state)
            else:
                raise ValueError(f"unexpected row: example {i}, role {role!r}")
        if not examples:
            raise ValueError("no examples after the header")
    return [SelectionExample(ex.ref_state, np.stack(ex.option_states), np.stack(ex.easy_refs),
                             ex.query_type, ex.ground_truth, np.array(ex.gt_sims),
                             ex.pos_ref, np.array(ex.pos_options))
            for ex in examples]
