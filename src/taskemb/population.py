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
SNAP_DELTA = 0.01  # validation-score gain that earns a new snapshot
BC_BATCH = 128     # behavioral-cloning minibatch size
LOCKSTEP_ROWS = 16384  # rows per lockstep group of consecutive agents in `outcome_table`


def mask_vector(ops: envcore.EnvOps, name: str) -> np.ndarray | None:
    """Boolean mask over discrete actions for a name of the env's mask recipe or any one
    action name; 'none' masks nothing and gives None, the one "nothing masked"."""
    if name == "none":
        return None
    if ops.action_kind != "discrete":
        raise ValueError(f"{ops.name}: continuous actions cannot be masked")
    mask = np.zeros(ops.n_actions, dtype=bool)
    if name in ops.masks:
        for a in ops.masks[name]:
            mask[a] = True
    elif name in ops.action_names:
        mask[ops.action_names.index(name)] = True
    else:
        raise ValueError(f"{ops.name}: unknown mask {name!r}")
    return mask


@dataclass
class Policy:
    """Stochastic policy: softmax over masked logits, or a clipped diagonal Gaussian."""

    env: str
    net: nn.Mlp
    action_mask: np.ndarray | None = None  # bool (n_actions,), discrete only; None masks nothing
    log_std: np.ndarray | None = None      # (action_dim,), box only

    @property
    def ops(self) -> envcore.EnvOps:
        return get_env(self.env)

    def logits(self, states: np.ndarray) -> np.ndarray:
        x = self.ops.featurize(states)
        out = nn.mlp_forward(self.net, x)
        if self.action_mask is not None:
            out += MASK_PENALTY * self.action_mask
        return out

    def action_probs(self, states: np.ndarray) -> np.ndarray:
        return nn.softmax(self.logits(states))

    def act(self, ops: envcore.EnvOps, states: np.ndarray, rng) -> np.ndarray:
        if ops.action_kind == "discrete":  # Gumbel-max, noise formed in place
            logits, u = self.logits(states), rng.uniform(size=(states.shape[0], ops.n_actions))
            logits -= np.log(np.negative(np.log(u, out=u), out=u), out=u)  # - log(-log u)
            return np.argmax(logits, axis=1)
        means = nn.mlp_forward(self.net, ops.featurize(states))
        noise = rng.normal(size=means.shape)
        means += np.multiply(noise, np.exp(self.log_std), out=noise)
        return np.clip(means, ops.action_low, ops.action_high, out=means)

    def to_flat(self) -> np.ndarray:
        flat = self.net.to_flat()
        if self.log_std is not None:
            flat = np.concatenate([flat, self.log_std])
        return flat


def fresh_policy(env: str, rng: np.random.Generator, mask: str = "none") -> Policy:
    """Glorot-initialized policy with the env's standard architecture."""
    ops = get_env(env)
    net = nn.glorot_init(*ops.net_layout(ops.n_actions), rng)
    return Policy(env, net, mask_vector(ops, mask),
                  np.zeros(ops.n_actions) if ops.action_kind == "box" else None)


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
        sizes, acts = ops.net_layout(ops.n_actions)
        net = nn.Mlp([nn.DenseLayer(np.zeros((o, i)), np.zeros(o), a)
                      for i, o, a in zip(sizes[:-1], sizes[1:], acts)])
        n_std = ops.n_actions if ops.action_kind == "box" else 0
        net.set_flat(snap.parameters[: snap.parameters.size - n_std])
        return Policy(self.env, net, mask_vector(ops, snap.mask),
                      snap.parameters[-n_std:].copy() if n_std else None)

    def outcome_table(self, states: np.ndarray, reps_per_agent,
                      rng: np.random.Generator, threads: int | None = None) -> np.ndarray:
        """Success bits for every (task, agent draw): shape (n_tasks, total_reps).

        Column block a*reps..(a+1)*reps holds agent a's repetitions, so column
        l of any two rows shares the same sampled agent, as a paired-rollout
        estimator requires. Each agent acts and steps on its own child stream,
        in lockstep with the consecutive agents of its group (at most
        LOCKSTEP_ROWS rows unless alone); with threads > 1 groups run concurrently
        into disjoint column slices, so the thread count never changes the result.
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        n_agents, n = len(self.snapshots), states.shape[0]
        reps = np.asarray(reps_per_agent, dtype=np.int64)
        if reps.ndim == 0:
            reps = np.full(n_agents, int(reps))
        if reps.shape != (n_agents,) or np.any(reps < 0):
            raise ValueError("reps_per_agent must be a scalar or one count per agent")
        table = np.empty((n, int(reps.sum())), dtype=np.uint8)
        cols = np.concatenate([[0], np.cumsum(reps)])
        agent_rngs = rng.spawn(n_agents)
        threads = self.threads if threads is None else threads
        groups = []
        for a in np.flatnonzero(reps):
            if groups and n * (reps[groups[-1]].sum() + reps[a]) <= LOCKSTEP_ROWS:
                groups[-1].append(a)
            else:
                groups.append([a])

        def run_group(group: list[int]) -> None:
            r = reps[group]
            batch = np.repeat(np.tile(states, (len(group), 1)), np.repeat(r, n), axis=0)
            out, _ = rollout_batch(self.env, batch, [self.policy(a) for a in group],
                                   [agent_rngs[a] for a in group], sizes=n * r)
            for a, block in zip(group, np.split(out, np.cumsum(n * r)[:-1])):
                table[:, cols[a] : cols[a + 1]] = block.reshape(n, reps[a])

        if threads > 1 and len(groups) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as ex:
                list(ex.map(run_group, groups))
        else:
            for group in groups:
                run_group(group)
        return table

    def rollouts(self, agent_idx: np.ndarray, states: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        """Success bits of one episode per task of states (n, ..., state_dim), row i run by
        agent agent_idx[i]; agents run in index order, one rollout_batch each on rng."""
        outcomes = np.empty(states.shape[:-1], dtype=np.uint8)
        for a in np.unique(agent_idx):
            rows = np.flatnonzero(agent_idx == a)
            out, _ = rollout_batch(self.env, states[rows].reshape(-1, states.shape[-1]),
                                   self.policy(int(a)), rng)
            outcomes[rows] = out.reshape(rows.size, *states.shape[1:-1])
        return outcomes

    def subset(self, indices) -> "Population":
        return Population(self.env, [self.snapshots[i] for i in indices], self.threads)


def success_rates(population: Population, states: np.ndarray, reps_per_agent: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-task success probability estimates over the whole population."""
    return population.outcome_table(states, reps_per_agent, rng).mean(axis=1)


@dataclass
class SubpopSpec:
    mask: str = "none"
    bias: str | None = None


@dataclass
class PopulationConfig:
    target_size: int = 100
    snap_reps: int = 10
    snap_size: int = 1000        # validation tasks sampled unless the env fixes its own
    bc_epochs: int = 60
    bc_rollouts: int = 200       # expert rollouts per epoch, regenerated each epoch
    bc_passes: int = 5           # optimizer passes over each epoch's dataset
    bc_lr: float = 3e-3


def standard_recipe(env: str, kind: str) -> list[SubpopSpec]:
    """The default subpopulation lists: the env's masked variants or biased task draws."""
    ops = get_env(env)
    if kind == "masks":
        if not ops.masks:
            raise ValueError(f"{env}: no mask recipe defined")
        return [SubpopSpec(mask=m) for m in ops.masks]
    if kind == "bias":
        return [SubpopSpec(), *(SubpopSpec(bias=b) for b in sorted(ops.bias_filters))]
    raise ValueError(f"unknown recipe kind {kind!r}")


def _bc_loss_and_grads(policy: Policy, ops, x_feat, actions):
    """Cloning loss, cross-entropy or Gaussian NLL, and its grads: the net's, then log_std's."""
    out, cache = nn.mlp_forward_cached(policy.net, x_feat)
    b = x_feat.shape[0]
    if ops.action_kind == "discrete":
        logits = out
        if policy.action_mask is not None:
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


def train_bc(env: str, spec: SubpopSpec, cfg: PopulationConfig,
             rng: np.random.Generator) -> list[AgentSnapshot]:
    """Behavioral cloning against the scripted expert, snapshotting on improvement.

    The untrained policy is always recorded as snapshot 0. After each epoch
    the policy is scored on the validation tasks (the env's `snapshot_tasks`, or
    cfg.snap_size sampled ones; snap_reps rollouts each) and
    a snapshot is recorded when the score improves by at least SNAP_DELTA over
    the last recorded one.
    """
    ops = get_env(env)
    init_rng, snap_rng, data_rng, eval_rng = rng.spawn(4)
    policy = fresh_policy(env, init_rng, mask=spec.mask)
    snap_tasks = ops.snapshot_tasks
    if snap_tasks is None:
        snap_tasks = sample_tasks(env, cfg.snap_size, snap_rng)
    snap_batch = np.repeat(snap_tasks, cfg.snap_reps, axis=0)
    expert = ExpertPolicy()

    def score() -> float:  # mean success over snap_reps rollouts per validation task
        return float(rollout_batch(env, snap_batch, policy, eval_rng)[0].mean())

    snapshots = [AgentSnapshot(policy.to_flat(), "bc", spec.mask, spec.bias or "none",
                               0, score())]
    params = policy.net.parameters() + ([] if policy.log_std is None else [policy.log_std])
    adam = nn.AdamState.init(params, learning_rate=cfg.bc_lr)
    for _ in range(cfg.bc_epochs):
        tasks = sample_tasks(env, cfg.bc_rollouts, data_rng, bias=spec.bias)
        _, _, steps = rollout_batch(env, tasks, expert, data_rng, record=True)
        states, actions = steps.states, steps.actions
        if policy.action_mask is not None:
            keep = ~policy.action_mask[actions]  # demonstrations the masked policy cannot imitate
            states, actions = states[keep], actions[keep]
        if states.shape[0] == 0:
            continue
        x_feat = ops.featurize(states)
        for _ in range(cfg.bc_passes):
            order = data_rng.permutation(states.shape[0])
            for start in range(0, len(order), BC_BATCH):
                idx = order[start : start + BC_BATCH]
                loss, grads = _bc_loss_and_grads(policy, ops, x_feat[idx], actions[idx])
                if not np.isfinite(loss):
                    raise RuntimeError(f"behavioral cloning loss became non-finite ({loss})")
                nn.adam_step(params, grads, adam)
        s = score()
        if s >= snapshots[-1].validation_score + SNAP_DELTA:
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
    with nn.read_artifact(path) as reader:  # an unknown env's EnvError is a ValueError too
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
    sizes, acts = ops.net_layout(ops.n_actions)
    need = [f"{i} {o} {a}" for i, o, a in zip(sizes[:-1], sizes[1:], acts)]
    snapshots = []
    for k, record in enumerate(records):
        with nn.read_artifact(directory / f"agent_{k}.txt") as reader:
            net = nn.read_weights(reader)
            have = [f"{lay.in_size} {lay.out_size} {lay.activation}" for lay in net.layers]
            if have != need:  # line 1 holds the layer count, then each layer a header and rows
                lines = np.cumsum([2] + [lay.out_size + 1 for lay in net.layers])
                line = 1 if len(have) != len(need) else lines[np.argmax(np.array(have) != need)]
                raise nn.ArtifactFormatError(f"{reader.name}:{line}: the net's layers are "
                                             f"{have}, a {ops.name} policy's are {need}")
            flat = net.to_flat()
            if ops.action_kind == "box":
                log_std = [float(v) for v in reader.fields(ops.n_actions)]
                flat = np.concatenate([flat, np.array(log_std)])
            reader.expect_end()
        snapshots.append(AgentSnapshot(flat, *record))
    return Population(ops.name, snapshots)
