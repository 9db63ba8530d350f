"""Environment-independent machinery: registry, rollouts, task files.

Environments are value-type state machines over float64 state vectors. Every
operation has a vectorized form working on ``(B, state_dim)`` batches; the
scalar API wraps batches of one and adds input validation. Episode status
codes are small ints so whole batches can be tracked in one array.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from taskemb.nn import LineReader

ALIVE = 0
SOLVED = 1
CRASHED = 2
TIMED_OUT = 3
FAILED_BY_GAMMA = 4

class EnvError(ValueError):
    """Invalid environment name, state, or action."""


@dataclass(frozen=True)
class EnvOps:
    """Bundle of per-environment constants and vectorized operations."""

    name: str
    state_dim: int
    state_fields: tuple[str, ...]
    horizon: int
    gamma: float
    action_kind: str            # "discrete" or "box"
    n_actions: int              # action count (discrete) or action dim (box)
    action_low: float
    action_high: float
    action_names: tuple[str, ...]
    sample_raw: Callable        # (n, rng) -> (n, state_dim) states
    step_batch: Callable        # (states, actions, rng) -> (next_states, status)
    expert_batch: Callable      # (states) -> actions
    featurize_policy: Callable  # (states) -> policy-net inputs
    featurize_embed: Callable   # (states) -> embedding-net inputs
    strip_context: Callable     # (states) -> states without task-identifying fields
    validate_state: Callable    # (state vector) -> None, raises EnvError
    bias_filters: dict[str, Callable] = field(default_factory=dict)
    policy_hidden: tuple[int, ...] = (32, 32)
    embed_hidden: tuple[int, ...] = (32, 32)
    embed_dim: int = 6          # default output dim with norm constraints
    embed_dim_wonorm: int = 5   # default without norm constraints
    action_symbols: Callable = None  # (actions) -> int codes for edit distance


_REGISTRY: dict[str, EnvOps] = {}


def register(ops: EnvOps) -> EnvOps:
    _REGISTRY[ops.name] = ops
    return ops


def get_env(name: str) -> EnvOps:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EnvError(
            f"unknown environment {name!r}; valid options: {', '.join(sorted(_REGISTRY))}"
        ) from None


def env_names() -> list[str]:
    return sorted(_REGISTRY)


@dataclass
class Task:
    """One task: an environment plus the initial state that defines it."""

    env: str
    state0: np.ndarray

    def __post_init__(self):
        self.state0 = np.asarray(self.state0, dtype=np.float64)
        get_env(self.env).validate_state(self.state0)


@dataclass
class StepOutcome:
    next_state: np.ndarray
    reward: float
    terminal: int  # one of the status codes


@dataclass
class Trajectory:
    """Visited (state, action) pairs plus how the episode ended."""

    states: list[np.ndarray]
    actions: list
    final: StepOutcome


class ExpertPolicy:
    """Deterministic scripted controller backed by the env's expert rule."""

    def act(self, ops: EnvOps, states: np.ndarray, rng) -> np.ndarray:
        return ops.expert_batch(states)


class UniformRandomPolicy:
    def act(self, ops: EnvOps, states: np.ndarray, rng) -> np.ndarray:
        b = states.shape[0]
        if ops.action_kind == "discrete":
            return rng.integers(0, ops.n_actions, size=b)
        return rng.uniform(ops.action_low, ops.action_high, size=(b, ops.n_actions))


def _validate_action(ops: EnvOps, action) -> None:
    if ops.action_kind == "discrete":
        a = int(action)
        if not 0 <= a < ops.n_actions:
            raise EnvError(
                f"{ops.name}: action {action!r} not in 0..{ops.n_actions - 1} "
                f"({', '.join(ops.action_names)})"
            )
    else:
        a = np.asarray(action, dtype=np.float64)
        if a.shape != (ops.n_actions,):
            raise EnvError(f"{ops.name}: action must have shape ({ops.n_actions},)")
        if np.any(a < ops.action_low) or np.any(a > ops.action_high):
            raise EnvError(
                f"{ops.name}: action {a} outside [{ops.action_low}, {ops.action_high}]"
            )


def step(env: str, state: np.ndarray, action, rng: np.random.Generator) -> StepOutcome:
    """Single validated environment step."""
    ops = get_env(env)
    state = np.asarray(state, dtype=np.float64)
    ops.validate_state(state)
    _validate_action(ops, action)
    if ops.action_kind == "discrete":
        actions = np.array([int(action)])
    else:
        actions = np.asarray(action, dtype=np.float64)[None, :]
    next_states, status = ops.step_batch(state[None, :], actions, rng)
    terminal = int(status[0])
    reward = 1.0 if terminal == SOLVED else 0.0
    return StepOutcome(next_states[0], reward, terminal)


def sample_tasks(env: str, n: int, rng: np.random.Generator,
                 bias: str | None = None) -> np.ndarray:
    """Sample n initial states, optionally restricted by a named bias filter.

    Raises EnvError after 10**5 consecutive rejected draws.
    """
    ops = get_env(env)
    if bias is None:
        return ops.sample_raw(n, rng)
    try:
        pred = ops.bias_filters[bias]
    except KeyError:
        raise EnvError(
            f"{env}: unknown bias {bias!r}; valid: {', '.join(sorted(ops.bias_filters))}"
        ) from None
    out = np.empty((n, ops.state_dim))
    filled = 0
    rejected_run = 0
    while filled < n:
        chunk = ops.sample_raw(max(n - filled, 64), rng)
        keep = chunk[pred(chunk)]
        if keep.shape[0] == 0:
            rejected_run += chunk.shape[0]
            if rejected_run > 10**5:
                raise EnvError(f"{env}: bias {bias!r} rejected >1e5 consecutive draws")
            continue
        rejected_run = 0
        take = min(keep.shape[0], n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def sample_task(env: str, rng: np.random.Generator, bias: str | None = None) -> Task:
    return Task(env, sample_tasks(env, 1, rng, bias)[0])


def expert_action(env: str, state: np.ndarray):
    """Scripted expert action for one state."""
    ops = get_env(env)
    state = np.asarray(state, dtype=np.float64)
    ops.validate_state(state)
    action = ops.expert_batch(state[None, :])[0]
    if ops.action_kind == "discrete":
        return int(action)
    return action


def rollout_batch(env: str | EnvOps, states0: np.ndarray, policy,
                  rng: np.random.Generator, record: bool = False):
    """Run a batch of episodes to termination.

    Returns ``(outcomes, status)`` where outcomes is a uint8 success vector,
    or ``(outcomes, status, trajectories)`` when record is set. Finished
    episodes drop out of the stepped set, so cost tracks the number of alive
    episodes per step.
    """
    ops = env if isinstance(env, EnvOps) else get_env(env)
    cur = np.array(states0, dtype=np.float64)
    if cur.ndim != 2 or cur.shape[1] != ops.state_dim:
        raise EnvError(f"{ops.name}: batch must have shape (B, {ops.state_dim})")
    b = cur.shape[0]
    final, status = cur.copy(), np.full(b, TIMED_OUT, dtype=np.int8)
    idx = np.arange(b)  # batch rows of the alive episodes, whose states are `cur`
    recs = [Trajectory([], [], None) for _ in range(b)] if record else None
    for _ in range(ops.horizon):
        if idx.size == 0:
            break
        actions = policy.act(ops, cur, rng)
        cur_next, st = ops.step_batch(cur, actions, rng)
        if record:
            for k, i in enumerate(idx):
                recs[i].states.append(cur[k].copy())
                recs[i].actions.append(
                    int(actions[k]) if ops.action_kind == "discrete" else actions[k].copy()
                )
        done = st != ALIVE
        if done.any():  # write only the finished rows, then compact the alive ones
            status[idx[done]], final[idx[done]] = st[done], cur_next[done]
            idx, cur_next = idx[~done], cur_next[~done]
        cur = cur_next
    final[idx] = cur
    outcomes = (status == SOLVED).astype(np.uint8)
    if record:
        for i in range(b):
            reward = 1.0 if status[i] == SOLVED else 0.0
            recs[i].final = StepOutcome(final[i].copy(), reward, int(status[i]))
        return outcomes, status, recs
    return outcomes, status


def rollout(env: str, task: Task | np.ndarray, policy, rng: np.random.Generator,
            record: bool = False):
    """One episode from a task's initial state; returns (outcome_bit, trajectory | None)."""
    state0 = task.state0 if isinstance(task, Task) else np.asarray(task, dtype=np.float64)
    if record:
        outcomes, _, recs = rollout_batch(env, state0[None, :], policy, rng, record=True)
        return int(outcomes[0]), recs[0]
    outcomes, _ = rollout_batch(env, state0[None, :], policy, rng)
    return int(outcomes[0]), None


def save_tasks(path, env: str, states: np.ndarray) -> None:
    """Write tasks as CSV: header ``env,<state fields>``, one task per row."""
    ops = get_env(env)
    states = np.asarray(states, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["env", *ops.state_fields])
        for row in states:
            writer.writerow([env, *[repr(float(v)) for v in row]])


def load_tasks(path) -> tuple[str, np.ndarray]:
    """Read save_tasks' CSV, which holds one env; a bad row raises nn.ArtifactFormatError."""
    with open(path, "r", newline="", encoding="utf-8") as fp:
        reader = LineReader(fp)
        with reader.located():
            rows = reader.csv_rows()
            header, ops, states = next(rows), None, []
            for row in rows:
                ops = ops or get_env(row[0])
                if row[0] != ops.name:
                    raise ValueError(f"mixed environments ({ops.name} and {row[0]})")
                states.append([float(v) for v in row[1:]])
            if ops is None:
                raise ValueError("no tasks after the header")
    if tuple(header[1:]) != ops.state_fields:
        raise EnvError(f"{path}: header {header[1:]} != {list(ops.state_fields)}")
    return ops.name, np.array(states)


from taskemb.envs import cartpolevar, multikeynav, pointmass  # noqa: E402,F401  (registers envs)
