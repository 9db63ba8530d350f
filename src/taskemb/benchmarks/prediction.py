"""Performance prediction: guess a hidden agent's success on a new task from a quiz.

Each example is a small quiz of (task, outcome) pairs produced by one hidden
agent plus a test task whose outcome must be predicted. The embedding-based
predictor soft-matches the test task against the quiz in embedding space;
baselines use increasing amounts of oracle access to the hidden agent and the
population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from taskemb import nn
from taskemb.envs import rollout_batch, sample_tasks
from taskemb.envs.core import check_states, get_env
from taskemb.population import Population, success_rates
from taskemb.stats import fold_mean_stderr

METHODS = ("ours", "random", "ignore_task", "ignore_agent", "opt", "predmodel")
# The grid reaches down to 1 because the learned embedding's distance scale
# can make every larger beta act as pure nearest-neighbor matching.
BETA_GRID = (1.0, 10.0, 100.0, 1000.0, 10000.0)
N_FOLDS = 10
IGNORE_TASK_ROLLOUTS = 500  # random tasks per example for ignore_task
IGNORE_AGENT_REPS = 10      # rollouts per agent and test task for ignore_agent
OPT_ROLLOUTS = 10           # rollouts of the hidden agent per test task for opt
SOFTNN_BLOCK = 256          # examples per embed call in softnn_scores; bounds its memory
QUIZ_COLUMNS = ("example", "role", "outcome", "agent_index")  # then the state fields


@dataclass
class QuizSet(nn.Rows):
    """A quiz dataset, one row per example; set[i] is example i."""

    quiz_states: np.ndarray     # (n, k, state_dim)
    quiz_outcomes: np.ndarray   # (n, k) success bits
    test_state: np.ndarray      # (n, state_dim)
    test_outcome: np.ndarray    # (n,) success bits
    agent_index: np.ndarray     # (n,) hidden from predictors; kept for oracle baselines


def gen_quiz_dataset(env: str, population: Population, quiz_size: int,
                     n_examples: int, rng: np.random.Generator) -> QuizSet:
    """Sample examples: a hidden agent, quiz_size + 1 i.i.d. tasks, one rollout each."""
    if not 1 <= quiz_size <= 20:
        raise ValueError("quiz_size must be in [1, 20]")
    agent_idx = rng.integers(0, len(population), size=n_examples)
    states = sample_tasks(env, n_examples * (quiz_size + 1), rng)
    states = states.reshape(n_examples, quiz_size + 1, -1)
    outcomes = population.rollouts(agent_idx, states, rng)
    return QuizSet(states[:, :-1], outcomes[:, :-1], states[:, -1], outcomes[:, -1], agent_idx)


def softnn_scores(model, examples: QuizSet, betas) -> np.ndarray:
    """Distance-weighted quiz-outcome averages in embedding space, shape (len(betas), n).

    Weights exp(-beta * d^2) are normalized after shifting each example's distances by
    their smallest, so huge beta cannot underflow every weight. Each block of examples,
    which share one quiz size, is one embed call: its quiz rows, then its test rows.
    """
    if min(betas) <= 0:
        raise ValueError("beta must be positive")
    betas = np.asarray(betas, dtype=np.float64)[:, None, None]
    scores = np.empty((betas.shape[0], len(examples)))
    for lo in range(0, len(examples), SOFTNN_BLOCK):
        block = examples[lo:lo + SOFTNN_BLOCK]
        n, k, _ = block.quiz_states.shape
        e = model.embed(np.concatenate([*block.quiz_states, block.test_state]))
        d2 = np.sum((e[:n * k].reshape(n, k, -1) - e[n * k:, None]) ** 2, axis=2)
        w = np.exp(-betas * (d2 - d2.min(axis=1, keepdims=True)))
        scores[:, lo:lo + n] = np.sum(block.quiz_outcomes * w, axis=2) / np.sum(w, axis=2)
    return scores


def predict_softnn(model, example: QuizSet, beta: float) -> int:
    """The soft-NN prediction for one example, a row `set[i]` of a QuizSet."""
    return int(softnn_scores(model, example[None], [beta])[0, 0] > 0.5)


def tune_beta(model, examples: QuizSet) -> float:
    """Pick the BETA_GRID beta with the best training-split accuracy, the first on ties."""
    scores = softnn_scores(model, examples, BETA_GRID)
    accs = np.mean((scores > 0.5) == examples.test_outcome, axis=1)
    return BETA_GRID[int(np.argmax(accs))]


def baseline_predictions(kind: str, examples: QuizSet,
                         population: Population, rng: np.random.Generator) -> np.ndarray:
    """Predictions of one oracle baseline for a whole dataset.

    random flips a coin; ignore_task thresholds the hidden agent's success on
    random tasks; ignore_agent thresholds the population's success on the test
    task; opt thresholds the hidden agent's own success on the test task.
    """
    env = population.env
    n = len(examples)
    if kind == "random":
        return (rng.uniform(size=n) < 0.5).astype(np.uint8)
    if kind == "ignore_agent":
        rates = success_rates(population, examples.test_state, IGNORE_AGENT_REPS, rng)
        return (rates > 0.5).astype(np.uint8)
    if kind == "opt":
        tries = np.repeat(examples.test_state[:, None], OPT_ROLLOUTS, axis=1)
        outcomes = population.rollouts(examples.agent_index, tries, rng)
        return (outcomes.mean(axis=1) > 0.5).astype(np.uint8)
    if kind != "ignore_task":
        raise ValueError(f"unknown baseline {kind!r}")
    preds = np.empty(n, dtype=np.uint8)
    for a in np.unique(examples.agent_index):  # random tasks are drawn between its rollouts
        policy = population.policy(int(a))
        for i in np.flatnonzero(examples.agent_index == a):
            tasks = sample_tasks(env, IGNORE_TASK_ROLLOUTS, rng)
            out, _ = rollout_batch(env, tasks, policy, rng)
            preds[i] = out.mean() > 0.5
    return preds


def eval_prediction(predictions: np.ndarray, outcomes: np.ndarray,
                    rng: np.random.Generator):
    """Fold the examples, score each fold, return (mean, stderr, fold accuracies).

    The dataset is truncated to a multiple of N_FOLDS; fold assignment is a
    seeded shuffle.
    """
    predictions = np.asarray(predictions)
    outcomes = np.asarray(outcomes)
    n = (len(predictions) // N_FOLDS) * N_FOLDS
    if n == 0:
        raise ValueError("dataset smaller than the fold count")
    order = rng.permutation(len(predictions))[:n]
    correct = (predictions[order] == outcomes[order]).astype(np.float64)
    fold_accs = correct.reshape(N_FOLDS, -1).mean(axis=1)
    mean, stderr = fold_mean_stderr(fold_accs)
    return mean, stderr, fold_accs


def save_quiz_dataset(path, env: str, examples: QuizSet):
    """Long-format CSV: one row per task with its role, outcome, and agent; returns path."""
    states = np.concatenate([examples.quiz_states, examples.test_state[:, None]], axis=1)
    outcomes = np.concatenate([examples.quiz_outcomes, examples.test_outcome[:, None]], axis=1)
    roles = ["quiz"] * (states.shape[1] - 1) + ["test"]
    rows = ([i, role, outcome, agent, *state]
            for i, agent in enumerate(examples.agent_index.tolist())
            for role, outcome, state in zip(roles, outcomes[i].tolist(), states[i].tolist()))
    return nn.write_csv(path, [*QUIZ_COLUMNS, *get_env(env).state_fields], rows)


def load_quiz_dataset(path) -> QuizSet:
    """Read save_quiz_dataset's CSV into views of one state array; a bad row, an outcome
    other than 0 or 1, an example without its test row or with another quiz size than
    example 0, a row naming another agent than its example's test row, or states that
    `check_states` rejects raise nn.ArtifactFormatError naming the line, a bad row first."""
    header, rows = nn.read_table(path, ints=(0, 2, 3), words={1: {"quiz": 0.0, "test": 1.0}})
    if tuple(header[:4]) != QUIZ_COLUMNS:
        raise nn.ArtifactFormatError(f"{path}:1: header {header[:4]} != {list(QUIZ_COLUMNS)}")
    example, test, outcome, agent = rows[:, :4].T
    tests = np.flatnonzero(test)
    # A row's example is the count of test rows before it, and `last` the row that ends it.
    # A test row ends a nonempty quiz of example 0's size, and a row names the agent of its
    # last row when both name one example.
    owner = (np.cumsum(test) - test).astype(np.intp)
    last = np.append(tests, len(rows) - 1)[owner]
    n_quiz = np.append(np.diff(tests, prepend=-1) - 1, 0)[owner]  # its example's quiz rows
    if fault := nn.first_broken([
            (lambda r: f"unexpected row: example {int(example[r])}, "
                       f"role {('quiz', 'test')[int(test[r])]!r}",
             (example != owner) | (test == 1) & (n_quiz == 0)),
            (lambda r: f"outcome {int(outcome[r])} is not 0 or 1", ~np.isin(outcome, (0, 1))),
            (lambda r: f"example {owner[r]} has {n_quiz[r]} quiz rows, "
                       f"example 0 has {n_quiz[0]}", (test == 1) & (n_quiz != n_quiz[:1])),
            (lambda r: f"agent {int(agent[r])} is not agent {int(agent[last[r]])} of "
                       f"example {int(example[r])}'s last row",
             (agent != agent[last]) & (example == example[last]))]):
        raise nn.ArtifactFormatError.at_row(path, *fault)
    if not tests.size or tests[-1] != len(rows) - 1:
        raise nn.ArtifactFormatError.at_row(path, len(rows),
                                            f"example {tests.size} has no test row")
    states = check_states(header[4:], np.ascontiguousarray(rows[:, 4:]), path).reshape(
        tests.size, n_quiz[0] + 1, -1)
    outcomes = outcome.astype(np.uint8).reshape(tests.size, n_quiz[0] + 1)
    return QuizSet(states[:, :-1], outcomes[:, :-1], states[:, -1], outcomes[:, -1],
                   agent[tests].astype(np.int64))
