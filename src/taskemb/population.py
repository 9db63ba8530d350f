"""Agent populations: stochastic policy nets, behavioral-cloning training, snapshots.

A population is an ordered list of parameter snapshots taken while training
policies under different handicaps (masked actions, biased task draws).
Sampling an agent means drawing a snapshot uniformly; success statistics over
those draws are what the similarity machinery consumes, via `outcome_table`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from taskemb import nn
from taskemb.envs import core as envcore
from taskemb.envs import rollout_batch, sample_tasks
from taskemb.envs.core import ExpertPolicy, get_env

MASK_PENALTY = -1e9


def mask_vector(ops: envcore.EnvOps, name: str) -> np.ndarray | None:
    """Boolean mask over discrete actions from a mask name ('none' masks nothing)."""
    if ops.action_kind != "discrete":
        if name != "none":
            raise ValueError(f"{ops.name}: continuous actions cannot be masked")
        return None
    mask = np.zeros(ops.n_actions, dtype=bool)
    if name == "none":
        return mask
    if name == "all_picks":
        for i, act in enumerate(ops.action_names):
            if act.startswith("pickKey"):
                mask[i] = True
        if not mask.any():
            raise ValueError(f"{ops.name}: no pick actions to mask")
        return mask
    if name in ops.action_names:
        mask[ops.action_names.index(name)] = True
        return mask
    raise ValueError(f"{ops.name}: unknown mask {name!r}")


@dataclass
class Policy:
    """Stochastic policy: softmax over masked logits, or a clipped diagonal Gaussian."""

    env: str
    net: nn.Mlp
    action_mask: np.ndarray | None = None  # bool (n_actions,), discrete only
    log_std: np.ndarray | None = None      # (action_dim,), box only

    @property
    def ops(self) -> envcore.EnvOps:
        return get_env(self.env)

    def logits(self, states: np.ndarray) -> np.ndarray:
        x = self.ops.featurize_policy(states)
        out = nn.mlp_forward(self.net, x)
        if self.action_mask is not None and self.action_mask.any():
            out = out + MASK_PENALTY * self.action_mask
        return out

    def action_probs(self, states: np.ndarray) -> np.ndarray:
        return nn.softmax(self.logits(states))

    def act(self, ops: envcore.EnvOps, states: np.ndarray, rng) -> np.ndarray:
        if ops.action_kind == "discrete":
            logits = self.logits(states)
            gumbel = -np.log(-np.log(rng.uniform(size=logits.shape)))
            return np.argmax(logits + gumbel, axis=1)
        means = nn.mlp_forward(self.net, ops.featurize_policy(states))
        noise = rng.normal(size=means.shape)
        return np.clip(means + np.exp(self.log_std) * noise,
                       ops.action_low, ops.action_high)

    def to_flat(self) -> np.ndarray:
        flat = self.net.to_flat()
        if self.log_std is not None:
            flat = np.concatenate([flat, self.log_std])
        return flat


def _policy_layout(ops: envcore.EnvOps) -> tuple[list[int], list[str]]:  # sizes, activations
    in_dim = ops.featurize_policy(np.zeros((1, ops.state_dim))).shape[1]
    return ([in_dim, *ops.policy_hidden, ops.n_actions],
            ["relu"] * len(ops.policy_hidden) + ["identity"])


def fresh_policy(env: str, rng: np.random.Generator, mask: str = "none") -> Policy:
    """Glorot-initialized policy with the env's standard architecture."""
    ops = get_env(env)
    net = nn.glorot_init(*_policy_layout(ops), rng)
    if ops.action_kind == "discrete":
        return Policy(env, net, action_mask=mask_vector(ops, name=mask))
    return Policy(env, net, log_std=np.zeros(ops.n_actions))


@dataclass
class AgentSnapshot:
    """Frozen policy parameters plus where they came from."""

    parameters: np.ndarray
    training_method: str
    mask: str
    bias: str
    snapshot_index: int
    validation_score: float


@dataclass
class Population:
    """Ordered snapshot list for one environment; agents are drawn uniformly."""

    env: str
    snapshots: list[AgentSnapshot]
    threads: int = 1  # worker threads for outcome tables; never changes results

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("population must not be empty")

    def __len__(self) -> int:
        return len(self.snapshots)

    def policy(self, k: int) -> Policy:
        """Agent k's policy, its net filled from the snapshot's flat parameters (no Glorot draw)."""
        snap, ops = self.snapshots[k], get_env(self.env)
        sizes, acts = _policy_layout(ops)
        net = nn.Mlp([nn.DenseLayer(np.zeros((o, i)), np.zeros(o), a)
                      for i, o, a in zip(sizes[:-1], sizes[1:], acts)])
        n_std = ops.n_actions if ops.action_kind == "box" else 0
        net.set_flat(snap.parameters[: snap.parameters.size - n_std])
        if ops.action_kind == "discrete":
            return Policy(self.env, net, action_mask=mask_vector(ops, name=snap.mask))
        return Policy(self.env, net, log_std=snap.parameters[-n_std:].copy())

    def outcome_table(self, states: np.ndarray, reps_per_agent,
                      rng: np.random.Generator, threads: int | None = None) -> np.ndarray:
        """Success bits for every (task, agent draw): shape (n_tasks, total_reps).

        Column block a*reps..(a+1)*reps holds agent a's repetitions, so column
        l of any two rows shares the same sampled agent, as a paired-rollout
        estimator requires. Every episode gets fresh randomness from a
        per-agent child stream; with threads > 1 agents run concurrently into
        disjoint column slices, so the thread count never changes the result.
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        n_agents = len(self.snapshots)
        reps = np.asarray(reps_per_agent, dtype=np.int64)
        if reps.ndim == 0:
            reps = np.full(n_agents, int(reps))
        if reps.shape != (n_agents,) or np.any(reps < 0):
            raise ValueError("reps_per_agent must be a scalar or one count per agent")
        table = np.empty((states.shape[0], int(reps.sum())), dtype=np.uint8)
        cols = np.concatenate([[0], np.cumsum(reps)])
        agent_rngs = rng.spawn(n_agents)
        if threads is None:
            threads = self.threads

        def run_agent(a: int) -> None:
            r = int(reps[a])
            if r == 0:
                return
            policy = self.policy(a)
            batch = np.repeat(states, r, axis=0)
            out, _ = rollout_batch(self.env, batch, policy, agent_rngs[a])
            table[:, cols[a] : cols[a + 1]] = out.reshape(states.shape[0], r)

        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as ex:
                list(ex.map(run_agent, range(n_agents)))
        else:
            for a in range(n_agents):
                run_agent(a)
        return table

    def column_agents(self, reps_per_agent) -> np.ndarray:
        """Agent index owning each outcome_table column, matching its layout."""
        reps = np.asarray(reps_per_agent, dtype=np.int64)
        if reps.ndim == 0:
            reps = np.full(len(self.snapshots), int(reps))
        return np.repeat(np.arange(len(self.snapshots)), reps)

    def subset(self, indices) -> "Population":
        return Population(self.env, [self.snapshots[i] for i in indices], self.threads)


def estimate_pos(task, population: Population, reps_per_agent: int = 10,
                 rng: np.random.Generator | None = None) -> float:
    """Monte-Carlo probability of success for one task under the population."""
    if rng is None:
        raise ValueError("estimate_pos needs an explicit rng")
    state = task.state0 if hasattr(task, "state0") else np.asarray(task, dtype=np.float64)
    return float(population.outcome_table(state[None, :], reps_per_agent, rng).mean())


def success_rates(population: Population, states: np.ndarray, reps_per_agent: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-task success probability estimates over the whole population."""
    return population.outcome_table(states, reps_per_agent, rng).mean(axis=1)


def policy_success(env: str, policy: Policy, states: np.ndarray, reps: int,
                   rng: np.random.Generator) -> float:
    """Mean success of one policy over `reps` rollouts per task."""
    batch = np.repeat(np.asarray(states, dtype=np.float64), reps, axis=0)
    out, _ = rollout_batch(env, batch, policy, rng)
    return float(out.mean())


@dataclass
class SubpopSpec:
    mask: str = "none"
    bias: str | None = None


@dataclass
class PopulationConfig:
    target_size: int = 100
    snap_delta: float = 0.01
    snap_reps: int = 10
    snap_size: int = 1000        # validation tasks (grid envs override)
    bc_epochs: int = 60
    bc_rollouts: int = 200       # expert rollouts per epoch, regenerated each epoch
    bc_passes: int = 5           # optimizer passes over each epoch's dataset
    bc_batch: int = 128
    bc_lr: float = 3e-3


def standard_recipe(env: str, kind: str) -> list[SubpopSpec]:
    """The default subpopulation lists: masked variants or biased task draws."""
    if kind == "masks":
        if env.startswith("multikeynav"):
            names = ["none", "pickKeyA", "pickKeyB", "pickKeyC", "pickKeyD", "all_picks"]
            return [SubpopSpec(mask=m) for m in names]
        raise ValueError(f"{env}: no mask recipe defined")
    if kind == "bias":
        ops = get_env(env)
        specs = [SubpopSpec()]
        specs += [SubpopSpec(bias=b) for b in sorted(ops.bias_filters)]
        return specs
    raise ValueError(f"unknown recipe kind {kind!r}")


def snapshot_tasks(env: str, cfg: PopulationConfig, rng: np.random.Generator) -> np.ndarray:
    """Validation tasks used by the snapshot rule.

    multikeynav uses the fixed grid of locations {0.05, 0.45, 0.85} x key
    statuses x door types; the other environments use `snap_size` sampled
    tasks (seeded once from the population seed).
    """
    if env.startswith("multikeynav"):
        locs = [0.05, 0.45, 0.85]
        rows = []
        for loc in locs:
            for keys in range(16):
                for door in range(4):
                    rows.append([loc, (keys >> 3) & 1, (keys >> 2) & 1,
                                 (keys >> 1) & 1, keys & 1, door // 2, door % 2])
        return np.asarray(rows, dtype=np.float64)
    return sample_tasks(env, cfg.snap_size, rng)


def _dataset_from_trajectories(ops, trajs, mask: np.ndarray | None):
    states, actions = [], []
    for traj in trajs:
        states.extend(traj.states)
        actions.extend(traj.actions)
    states = np.asarray(states, dtype=np.float64)
    if ops.action_kind == "discrete":
        actions = np.asarray(actions, dtype=np.int64)
        if mask is not None and mask.any():
            keep = ~mask[actions]  # demonstrations the masked policy cannot imitate
            states, actions = states[keep], actions[keep]
    else:
        actions = np.asarray(actions, dtype=np.float64)
    return states, actions


def _bc_loss_and_grads(policy: Policy, ops, x_feat, actions):
    """Cloning loss, cross-entropy or Gaussian NLL, and its grads in `_policy_params` order."""
    out, cache = nn.mlp_forward_cached(policy.net, x_feat)
    b = x_feat.shape[0]
    if ops.action_kind == "discrete":
        logits = out
        if policy.action_mask is not None and policy.action_mask.any():
            logits = logits + MASK_PENALTY * policy.action_mask
        probs = nn.softmax(logits)
        loss = -np.mean(np.log(np.maximum(probs[np.arange(b), actions], 1e-300)))
        dlogits = probs.copy()
        dlogits[np.arange(b), actions] -= 1.0
        grads, _ = nn.mlp_backward(policy.net, cache, dlogits / b)
        return loss, grads
    std = np.exp(policy.log_std)
    z = (actions - out) / std
    loss = float(np.mean(0.5 * np.sum(z**2, axis=1) + np.sum(policy.log_std)))
    dmean = (out - actions) / std**2 / b
    grads, _ = nn.mlp_backward(policy.net, cache, dmean)
    dlogstd = np.mean(1.0 - z**2, axis=0)
    return loss, grads + [dlogstd]


def _apply_params(policy: Policy, params) -> None:
    n_net = 2 * len(policy.net.layers)
    policy.net.set_parameters(params[:n_net])
    if policy.log_std is not None:
        policy.log_std = params[n_net]


def _policy_params(policy: Policy):
    params = policy.net.parameters()
    if policy.log_std is not None:
        params = params + [policy.log_std]
    return params


def train_bc(env: str, spec: SubpopSpec, cfg: PopulationConfig,
             rng: np.random.Generator) -> list[AgentSnapshot]:
    """Behavioral cloning against the scripted expert, snapshotting on improvement.

    The untrained policy is always recorded as snapshot 0. After each epoch
    the policy is scored on the validation tasks (snap_reps rollouts each) and
    a snapshot is recorded when the score improves by at least snap_delta over
    the last recorded one.
    """
    ops = get_env(env)
    init_rng, snap_rng, data_rng, eval_rng = rng.spawn(4)
    policy = fresh_policy(env, init_rng, mask=spec.mask)
    snap_states = snapshot_tasks(env, cfg, snap_rng)
    expert = ExpertPolicy()

    def score() -> float:
        return policy_success(env, policy, snap_states, cfg.snap_reps, eval_rng)

    snapshots = [AgentSnapshot(policy.to_flat(), "bc", spec.mask, spec.bias or "none",
                               0, score())]
    params = _policy_params(policy)
    adam = nn.AdamState.init(params, learning_rate=cfg.bc_lr)
    for _ in range(cfg.bc_epochs):
        tasks = sample_tasks(env, cfg.bc_rollouts, data_rng, bias=spec.bias)
        _, _, trajs = rollout_batch(env, tasks, expert, data_rng, record=True)
        states, actions = _dataset_from_trajectories(ops, trajs, policy.action_mask)
        if states.shape[0] == 0:
            continue
        x_feat = ops.featurize_policy(states)
        for _ in range(cfg.bc_passes):
            order = data_rng.permutation(states.shape[0])
            for start in range(0, len(order), cfg.bc_batch):
                idx = order[start : start + cfg.bc_batch]
                loss, grads = _bc_loss_and_grads(policy, ops, x_feat[idx], actions[idx])
                if not np.isfinite(loss):
                    raise RuntimeError(f"behavioral cloning loss became non-finite ({loss})")
                params, adam = nn.adam_step(params, grads, adam)
                _apply_params(policy, params)
        s = score()
        if s >= snapshots[-1].validation_score + cfg.snap_delta:
            snapshots.append(AgentSnapshot(policy.to_flat(), "bc", spec.mask,
                                           spec.bias or "none", len(snapshots), s))
    return snapshots


def _thin_evenly(snaps: list[AgentSnapshot], keep: int) -> list[AgentSnapshot]:
    if keep >= len(snaps):
        return snaps
    idx = np.unique(np.round(np.linspace(0, len(snaps) - 1, keep)).astype(int))
    return [snaps[i] for i in idx]


def build_population(env: str, recipe: list[SubpopSpec], cfg: PopulationConfig,
                     rng: np.random.Generator, verbose: bool = False) -> Population:
    """Train every subpopulation and concatenate snapshots.

    If the combined count overshoots cfg.target_size, each subpopulation is
    thinned evenly (keeping its untrained snapshot and its best one) so the
    final size lands near the target.
    """
    if not recipe:
        raise ValueError("empty population recipe")
    sub_rngs = rng.spawn(len(recipe))
    per_spec: list[list[AgentSnapshot]] = []
    for spec, sub_rng in zip(recipe, sub_rngs):
        t0 = time.time()
        snaps = train_bc(env, spec, cfg, sub_rng)
        per_spec.append(snaps)
        if verbose:
            last = snaps[-1].validation_score
            print(f"  subpop mask={spec.mask} bias={spec.bias}: "
                  f"{len(snaps)} snapshots, final score {last:.3f} "
                  f"({time.time() - t0:.1f}s)")
    total = sum(len(s) for s in per_spec)
    if total > cfg.target_size:
        kept = []
        for snaps in per_spec:
            share = max(2, round(len(snaps) * cfg.target_size / total))
            kept.append(_thin_evenly(snaps, share))
        per_spec = kept
    merged = [s for snaps in per_spec for s in snaps]
    return Population(env, merged)


def save_population(pop: Population, directory) -> list[Path]:
    """Write the population directory: a manifest plus one weight file per agent."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    manifest = directory / "manifest"
    with open(manifest, "w", encoding="utf-8") as fp:
        fp.write(f"env {pop.env}\n")
        fp.write(f"count {len(pop.snapshots)}\n")
        for k, snap in enumerate(pop.snapshots):
            fp.write(
                f"agent {k} method {snap.training_method} mask {snap.mask} "
                f"bias {snap.bias} snapshot {snap.snapshot_index} "
                f"score {repr(float(snap.validation_score))}\n"
            )
    paths.append(manifest)
    for k in range(len(pop.snapshots)):
        policy = pop.policy(k)
        path = directory / f"agent_{k}.txt"
        with open(path, "w", encoding="utf-8") as fp:
            nn.write_weights(policy.net, fp)
            if policy.log_std is not None:
                fp.write(" ".join(repr(float(v)) for v in policy.log_std) + "\n")
        paths.append(path)
    return paths


_AGENT_KEYS = ["method", "mask", "bias", "snapshot", "score"]


def _read_population_manifest(path: Path) -> tuple[envcore.EnvOps, list[tuple]]:
    """(env ops, one (method, mask, bias, snapshot, score) per agent), checked line by line."""
    with open(path, "r", encoding="utf-8") as fp:
        reader = nn.LineReader(fp)
        with reader.located():  # an unknown env's EnvError is a ValueError too
            head = {}
            for key, parse in (("env", get_env), ("count", int)):
                name, value = reader.fields(2)
                if name != key:
                    raise ValueError(f"expected the {key!r} line, got {name!r}")
                head[key] = parse(value)
            count = head["count"]
            if count < 1:
                raise ValueError("count must be at least 1")
            records = []
            for k in range(count):
                parts = reader.fields(12)
                if parts[:2] != ["agent", str(k)] or parts[2::2] != _AGENT_KEYS:
                    raise ValueError(f"expected 'agent {k}' then {', '.join(_AGENT_KEYS)}")
                method, mask, bias, snapshot, score = parts[3::2]
                records.append((method, mask, bias, int(snapshot), float(score)))
            reader.expect_end(f"agent line beyond count {count}")
    return head["env"], records


def population_files(directory) -> list[Path]:
    """Every file load_population reads: the manifest, then one weight file per agent."""
    directory = Path(directory)
    _, records = _read_population_manifest(directory / "manifest")
    return [directory / "manifest"] + [directory / f"agent_{k}.txt"
                                       for k in range(len(records))]


def load_population(directory) -> Population:
    """Read a population directory; a malformed file raises nn.ArtifactFormatError."""
    directory = Path(directory)
    ops, records = _read_population_manifest(directory / "manifest")
    snapshots = []
    for k, record in enumerate(records):
        with open(directory / f"agent_{k}.txt", "r", encoding="utf-8") as fp:
            reader = nn.LineReader(fp)
            with reader.located():
                flat = nn.read_weights(reader).to_flat()
                if ops.action_kind == "box":
                    log_std = [float(v) for v in reader.fields(ops.n_actions)]
                    flat = np.concatenate([flat, np.array(log_std)])
                reader.expect_end()
        snapshots.append(AgentSnapshot(flat, *record))
    return Population(ops.name, snapshots)
