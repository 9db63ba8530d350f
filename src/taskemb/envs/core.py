"""Environment-independent machinery: registry, rollouts, task files.

Environments are value-type state machines over float64 state vectors. Every
operation has a vectorized form working on ``(B, state_dim)`` batches, the shape
`task_batch` checks; the scalar API wraps batches of one. Episode status
codes are small ints so whole batches can be tracked in one array. Every
rollout runs through `rollout_batch`; a recorded one returns its steps as one
flat `Steps` record of arrays rather than per-episode objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from taskemb.nn import ArtifactFormatError, Rows, first_broken, read_table, write_csv

ALIVE = 0
SOLVED = 1
CRASHED = 2
TIMED_OUT = 3
FAILED_BY_GAMMA = 4
TASK_COLUMNS = ("env",)  # a task CSV's columns before the state fields

class EnvError(ValueError):
    """Invalid environment name, state, or action."""


def identity_features(states) -> np.ndarray:
    """The default `featurize`, for nets that read the state as it is: a float64 copy."""
    return np.asarray(states, dtype=np.float64).copy()


@dataclass(frozen=True)
class EnvOps:
    """Bundle of per-environment constants and vectorized operations."""

    name: str
    state_fields: tuple[str, ...]
    horizon: int
    action_kind: str            # "discrete" or "box"
    action_names: tuple[str, ...]  # one per action (discrete) or action dim (box)
    sample_raw: Callable        # (n, rng) -> (n, state_dim) states
    step_batch: Callable        # (states, actions, noise) -> (next_states, status); pure
    step_draws: int             # rows of step_batch's noise: standard uniforms per stepped row
    expert_batch: Callable      # (states) -> actions
    strip_context: Callable     # (states) -> states without task-identifying fields
    state_rules: tuple          # (message, keeps) pairs; keeps: (B, state_dim) states -> (B,) bool
    cluster_labels: Callable    # (states) -> int labels of the intuitive task clusters
    featurize: Callable = identity_features  # (states) -> inputs of every net over the tasks
    action_low: float | None = None   # bounds of every box action dim; discrete envs read neither
    action_high: float | None = None
    bias_filters: dict[str, Callable] = field(default_factory=dict)
    hidden: tuple[int, ...] = (32, 32)  # hidden layers of the policy and embedding nets
    embed_dim: int = 6          # default output dim with norm constraints
    embed_dim_wonorm: int = 5   # default without norm constraints
    action_symbols: Callable = partial(np.asarray, dtype=np.int64)  # actions -> edit-distance ints
    masks: dict = field(default_factory=dict)  # "masks" recipe: name -> masked action indices
    snapshot_tasks: np.ndarray | None = None  # fixed snapshot validation tasks; None: sample them

    @property
    def state_dim(self) -> int:
        return len(self.state_fields)

    @property
    def n_actions(self) -> int:
        return len(self.action_names)

    @property
    def feature_dim(self) -> int:
        """Width of `featurize`'s output, the input of every net over this env's tasks."""
        return self.featurize(np.zeros((1, self.state_dim))).shape[1]

    @property
    def context_free_dim(self) -> int:
        """Width of `strip_context`'s output, the state part a predictive model sees."""
        return self.strip_context(np.zeros((1, self.state_dim))).shape[1]

    def net_layout(self, out_dim: int) -> tuple[list[int], list[str]]:
        """Layer sizes and activations of a policy or embedding net with out_dim outputs."""
        sizes = [self.feature_dim, *self.hidden, out_dim]
        return sizes, ["relu"] * len(self.hidden) + ["identity"]


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


def task_batch(ops: EnvOps, states) -> np.ndarray:
    """states as a float64 (B, state_dim) batch of ops' tasks; any other shape raises EnvError."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != ops.state_dim:
        raise EnvError(f"{ops.name}: batch must have shape (B, {ops.state_dim})")
    return states


FINITE_RULE = ("non-finite state value", lambda states: np.isfinite(states).all(axis=1))


def check_states(env: EnvOps | Sequence[str], states: np.ndarray, path=None) -> np.ndarray:
    """states, once every row keeps FINITE_RULE and the env's `state_rules`.

    env is an EnvOps, or the state fields of a file's header, by which the rules are looked
    up. The first row that breaks a rule raises with the rule's message and the row's
    values: for states read from path, one row per line after its header, an
    ArtifactFormatError at `<path>:<row + 2>` (a header of no env's fields at `<path>:1`),
    and otherwise an EnvError naming the env.
    """
    ops = env if isinstance(env, EnvOps) else next(
        (ops for ops in _REGISTRY.values() if ops.state_fields == tuple(env)), None)
    if ops is None:
        raise ArtifactFormatError(f"{path}:1: state columns {list(env)} are no "
                                  "environment's state fields")
    with np.errstate(invalid="ignore"):  # a non-finite row breaks FINITE_RULE first
        fault = first_broken([(message, ~keeps(states))
                              for message, keeps in (FINITE_RULE, *ops.state_rules)])
    if fault:
        row, message = fault
        text = f"{message}: {states[row].tolist()}"
        if path is None:
            raise EnvError(f"{ops.name}: {text}")
        raise ArtifactFormatError.at_row(path, row, text)
    return states


@dataclass
class StepOutcome:
    next_state: np.ndarray
    reward: float
    terminal: int  # one of the status codes


@dataclass
class Steps(Rows):
    """Every step of a recorded batch, grouped by episode, each episode in time order."""

    episode: np.ndarray      # (N,) batch row of the episode the step belongs to
    states: np.ndarray       # (N, state_dim) state the action was taken in
    actions: np.ndarray      # (N,) discrete or (N, n_actions) box actions
    next_states: np.ndarray  # (N, state_dim)
    status: np.ndarray       # (N,) step status: ALIVE on every step but the episode's last


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
    states = check_states(ops, task_batch(ops, np.asarray(state)[None]))
    _validate_action(ops, action)
    if ops.action_kind == "discrete":
        actions = np.array([int(action)])
    else:
        actions = np.asarray(action, dtype=np.float64)[None, :]
    next_states, status = ops.step_batch(states, actions, rng.uniform(size=(ops.step_draws, 1)))
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


def expert_action(env: str, state: np.ndarray):
    """Scripted expert action for one state."""
    ops = get_env(env)
    action = ops.expert_batch(check_states(ops, task_batch(ops, np.asarray(state)[None])))[0]
    if ops.action_kind == "discrete":
        return int(action)
    return action


def rollout_batch(env: str, states0: np.ndarray, policy,
                  rng: np.random.Generator, record: bool = False, sizes=None):
    """Run a batch of episodes to termination.

    Returns ``(outcomes, status)`` where outcomes is a uint8 success vector,
    or ``(outcomes, status, steps)`` with a `Steps` record when record is set.
    Finished episodes drop out of the stepped set, so cost tracks the number
    of alive episodes per step.

    With sizes ``(n_1, ..., n_k)``, rng is a k-sequence and the batch is k
    consecutive segments in lockstep: segment i draws its rows' step noise from
    rng[i], then one `step_batch` call steps every alive row. policy is either a
    k-sequence, segment i acting through policy[i] on rng[i], so each segment's
    bits are those of a call on it alone, or one policy shared by every segment,
    which acts once per step on all alive rows with rng None: it must draw nothing.
    """
    ops = get_env(env)
    cur = task_batch(ops, states0)  # never written: each step returns new states
    if record and cur.shape[0] == 0:
        raise EnvError(f"{ops.name}: recording needs at least one episode")
    if sizes is None:  # one segment
        policy, rng, sizes = [policy], [rng], [cur.shape[0]]
    shared = hasattr(policy, "act")  # one policy for every segment
    if not (shared or len(policy) == len(sizes)) or len(rng) != len(sizes) \
            or sum(sizes) != cur.shape[0]:
        raise EnvError(f"{ops.name}: need one policy and rng per segment (or one shared "
                       "policy), sizes summing to B")
    edges = np.cumsum([0, *sizes])  # segment i holds batch rows edges[i]:edges[i + 1]
    status = np.full(cur.shape[0], TIMED_OUT, dtype=np.int8)
    idx = np.arange(cur.shape[0])  # batch rows of the alive episodes, whose states are `cur`
    steps = []
    for _ in range(ops.horizon):
        if idx.size == 0:
            break
        bounds = idx.searchsorted(edges).tolist()
        # (i, lo, hi) for every segment i with alive rows; they are cur[lo:hi]
        live = [(i, lo, hi) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < hi]
        actions = policy.act(ops, cur, None) if shared else np.concatenate(
            [policy[i].act(ops, cur[lo:hi], rng[i]) for i, lo, hi in live])
        noise = np.empty((0, idx.size))
        if ops.step_draws:
            noise = np.concatenate([rng[i].uniform(size=(ops.step_draws, hi - lo))
                                    for i, lo, hi in live], axis=1)
        cur_next, st = ops.step_batch(cur, actions, noise)
        if record:
            steps.append((idx, cur, actions, cur_next, st))
        ended = np.flatnonzero(st)  # ALIVE is 0
        if ended.size:  # write only the finished rows, then compact the alive ones
            status[idx[ended]] = st[ended]
            alive = st == ALIVE
            idx, cur_next = idx[alive], cur_next[alive]
        cur = cur_next
    outcomes = (status == SOLVED).astype(np.uint8)
    if not record:
        return outcomes, status
    steps = Steps(*map(np.concatenate, zip(*steps)))
    return outcomes, status, steps[np.argsort(steps.episode, kind="stable")]


def save_tasks(path, env: str, states: np.ndarray):
    """Write tasks as CSV: header ``env,<state fields>``, one task per row; returns path."""
    states = np.asarray(states, dtype=np.float64)
    return write_csv(path, [*TASK_COLUMNS, *get_env(env).state_fields],
                     ([env, *row] for row in states.tolist()))


def load_tasks(path) -> tuple[str, np.ndarray]:
    """Read save_tasks' CSV, which holds one env; a bad row, or a state that breaks the
    env's rules (`check_states`), raises nn.ArtifactFormatError naming its line."""
    names = list(_REGISTRY)
    header, rows = read_table(path, TASK_COLUMNS,
                              words={0: {name: float(i) for i, name in enumerate(names)}})
    if not len(rows):
        raise ArtifactFormatError.at_row(path, 0, "no tasks after the header")
    env = rows[:, 0]
    if (mixed := np.flatnonzero(env != env[0])).size:
        raise ArtifactFormatError.at_row(path, mixed[0], "mixed environments "
                                         f"({names[int(env[0])]} and {names[int(env[mixed[0]])]})")
    ops = _REGISTRY[names[int(env[0])]]
    if tuple(header[1:]) != ops.state_fields:
        raise ArtifactFormatError(f"{path}:1: header {header[1:]} != {list(ops.state_fields)}")
    return ops.name, check_states(header[1:], np.ascontiguousarray(rows[:, 1:]), path)


from taskemb.envs import cartpolevar, multikeynav, pointmass  # noqa: E402,F401  (registers envs)
