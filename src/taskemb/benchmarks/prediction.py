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
from taskemb.envs.core import get_env
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


@dataclass
class QuizExample:
    quiz_states: np.ndarray     # (k, state_dim)
    quiz_outcomes: np.ndarray   # (k,) success bits
    test_state: np.ndarray
    test_outcome: int
    agent_index: int            # hidden from predictors; kept for oracle baselines


def gen_quiz_dataset(env: str, population: Population, quiz_size: int,
                     n_examples: int, rng: np.random.Generator) -> list[QuizExample]:
    """Sample examples: a hidden agent, quiz_size + 1 i.i.d. tasks, one rollout each."""
    if not 1 <= quiz_size <= 20:
        raise ValueError("quiz_size must be in [1, 20]")
    agent_idx = rng.integers(0, len(population), size=n_examples)
    states = sample_tasks(env, n_examples * (quiz_size + 1), rng)
    states = states.reshape(n_examples, quiz_size + 1, -1)
    outcomes = np.empty((n_examples, quiz_size + 1), dtype=np.uint8)
    for a in np.unique(agent_idx):
        rows = np.where(agent_idx == a)[0]
        batch = states[rows].reshape(-1, states.shape[2])
        out, _ = rollout_batch(env, batch, population.policy(int(a)), rng)
        outcomes[rows] = out.reshape(rows.size, quiz_size + 1)
    return [
        QuizExample(states[i, :-1], outcomes[i, :-1], states[i, -1],
                    int(outcomes[i, -1]), int(agent_idx[i]))
        for i in range(n_examples)
    ]


def softnn_score(model, example: QuizExample, beta: float) -> float:
    """Distance-weighted quiz-outcome average in embedding space.

    Weights exp(-beta * d^2) are normalized after shifting by the smallest
    distance, so huge beta cannot underflow every weight.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    quiz_e = model.embed(example.quiz_states)
    test_e = model.embed(example.test_state)
    d2 = np.sum((quiz_e - test_e) ** 2, axis=1)
    w = np.exp(-beta * (d2 - d2.min()))
    return float(np.sum(example.quiz_outcomes * w) / np.sum(w))


def predict_softnn(model, example: QuizExample, beta: float) -> int:
    return int(softnn_score(model, example, beta) > 0.5)


def tune_beta(model, examples: list[QuizExample]) -> float:
    """Pick the BETA_GRID beta with the best training-split accuracy."""
    best_beta, best_acc = BETA_GRID[0], -1.0
    for beta in BETA_GRID:
        acc = np.mean([predict_softnn(model, ex, beta) == ex.test_outcome
                       for ex in examples])
        if acc > best_acc:
            best_beta, best_acc = beta, acc
    return best_beta


def baseline_predictions(kind: str, examples: list[QuizExample],
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
        tests = np.stack([ex.test_state for ex in examples])
        rates = success_rates(population, tests, IGNORE_AGENT_REPS, rng)
        return (rates > 0.5).astype(np.uint8)
    if kind not in ("ignore_task", "opt"):
        raise ValueError(f"unknown baseline {kind!r}")
    preds = np.empty(n, dtype=np.uint8)
    agent_idx = np.array([ex.agent_index for ex in examples])
    for a in np.unique(agent_idx):
        rows = np.where(agent_idx == a)[0]
        policy = population.policy(int(a))
        if kind == "ignore_task":
            for i in rows:
                tasks = sample_tasks(env, IGNORE_TASK_ROLLOUTS, rng)
                out, _ = rollout_batch(env, tasks, policy, rng)
                preds[i] = out.mean() > 0.5
        else:  # opt
            batch = np.repeat(np.stack([examples[i].test_state for i in rows]),
                              OPT_ROLLOUTS, axis=0)
            out, _ = rollout_batch(env, batch, policy, rng)
            rates = out.reshape(rows.size, OPT_ROLLOUTS).mean(axis=1)
            preds[rows] = rates > 0.5
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


def save_quiz_dataset(path, env: str, examples: list[QuizExample]) -> None:
    """Long-format CSV: one row per task with its role, outcome, and agent."""
    def rows():
        for i, ex in enumerate(examples):
            for state, outcome in zip(ex.quiz_states.tolist(), ex.quiz_outcomes.tolist()):
                yield [i, "quiz", outcome, ex.agent_index, *state]
            yield [i, "test", ex.test_outcome, ex.agent_index, *ex.test_state.tolist()]
    nn.write_csv(path, ["example", "role", "outcome", "agent_index",
                        *get_env(env).state_fields], rows())


def load_quiz_dataset(path) -> list[QuizExample]:
    """Read save_quiz_dataset's CSV; a bad row, an outcome other than 0 or 1, or an
    example without its test row raises nn.ArtifactFormatError naming the line."""
    examples, quiz, outs = [], [], []
    with nn.read_csv(path) as (_, rows):
        for i, role, outcome, agent, *state in rows:
            if int(i) != len(examples) or role != "quiz" and (role != "test" or not quiz):
                raise ValueError(f"unexpected row: example {i}, role {role!r}")
            if outcome not in ("0", "1"):
                raise ValueError(f"outcome {outcome!r} is not 0 or 1")
            state = np.array([float(v) for v in state])
            if role == "quiz":
                quiz.append(state)
                outs.append(int(outcome))
                continue
            examples.append(QuizExample(np.stack(quiz), np.array(outs, dtype=np.uint8),
                                        state, int(outcome), int(agent)))
            quiz, outs = [], []
        if quiz or not examples:
            raise ValueError(f"example {len(examples)} has no test row")
    return examples
