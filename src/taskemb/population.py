"""Agent populations: stochastic policy nets, behavioral-cloning training, snapshots.

A population is an ordered list of parameter snapshots taken while training
policies under different handicaps (masked actions, biased task draws).
Sampling an agent means drawing a snapshot uniformly; success statistics over
those draws are what the similarity machinery consumes, via `outcome_table`.
"""

from __future__ import annotations

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
    """Boolean mask over the actions for a name of the env's mask recipe; 'none' masks
    nothing and gives None, the one "nothing masked". Any other name raises ValueError."""
    if name == "none":
        return None
    if name not in ops.masks:
        raise ValueError(f"{ops.name}: unknown mask {name!r}")
    mask = np.zeros(ops.n_actions, dtype=bool)
    mask[list(ops.masks[name])] = True
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

    def outcome_table(self, states: np.ndarray, reps_per_agent: int,
                      rng: np.random.Generator, threads: int | None = None) -> np.ndarray:
        """Success bits for every (task, agent draw) of a task batch: (n_tasks, n_agents * reps).

        Every agent is drawn reps_per_agent times, a whole count of at least 1.
        Column block a*reps..(a+1)*reps holds agent a's repetitions, so column
        l of any two rows shares the same sampled agent, as a paired-rollout
        estimator requires. Each agent acts and steps on its own child stream,
        in lockstep with the consecutive agents of its group (at most
        LOCKSTEP_ROWS rows unless alone); with threads > 1 groups run concurrently
        into disjoint column slices, so the thread count never changes the result.
        """
        reps = reps_per_agent
        if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)) or reps < 1:
            raise ValueError(f"reps_per_agent must be one whole count >= 1, got {reps!r}")
        states = envcore.task_batch(get_env(self.env), states)
        n_agents, n = len(self.snapshots), states.shape[0]
        table = np.empty((n, n_agents * reps), dtype=np.uint8)
        blocks = table.reshape(n, n_agents, reps)  # a view; blocks[:, a] is agent a's columns
        agent_rngs = rng.spawn(n_agents)
        threads = self.threads if threads is None else threads
        per_group = max(1, LOCKSTEP_ROWS // max(1, n * reps))
        starts = range(0, n_agents, per_group)

        def run_group(start: int) -> None:
            group = range(start, min(start + per_group, n_agents))
            batch = np.tile(np.repeat(states, reps, axis=0), (len(group), 1))
            out, _ = rollout_batch(self.env, batch, [self.policy(a) for a in group],
                                   agent_rngs[start : group.stop], sizes=[n * reps] * len(group))
            blocks[:, start : group.stop] = out.reshape(len(group), n, reps).transpose(1, 0, 2)

        if threads > 1 and len(starts) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as ex:
                list(ex.map(run_group, starts))
        else:
            for start in starts:
                run_group(start)
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
    recipe: str = "masks"        # standard_recipe kind, masks | bias; read by the pipeline
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
    """Cloning loss (cross-entropy or Gaussian NLL) and its grads: [net] or [net, log_std]."""
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
        return loss, [nn.mlp_backward(policy.net, cache, dlogits / b)[0]]
    std = np.exp(policy.log_std)
    z = (actions - out) / std
    loss = float(np.mean(0.5 * np.sum(z**2, axis=1) + np.sum(policy.log_std)))
    dmean = (out - actions) / std**2 / b
    return loss, [nn.mlp_backward(policy.net, cache, dmean)[0], np.mean(1.0 - z**2, axis=0)]


def train_bc(env: str, specs: list[SubpopSpec], cfg: PopulationConfig,
             rngs) -> list[list[AgentSnapshot]]:
    """Behavioral cloning of every subpopulation against the scripted expert, in lockstep.

    Subpopulation i draws from rngs[i] in the order it would alone, and every forward runs
    on its own rows, so its snapshots are those of training it alone. Its untrained policy
    is snapshot 0. Each epoch one recorded expert rollout yields every subpopulation's
    demonstrations, each policy clones those it can imitate (one with none sits the epoch
    out), and one rollout scores the trained policies on their validation tasks (the env's
    `snapshot_tasks`, or cfg.snap_size sampled ones; snap_reps rollouts each). A score at
    least SNAP_DELTA above that of the policy's last snapshot records a new one.
    """
    ops = get_env(env)
    streams = [rng.spawn(4) for rng in rngs]  # init, snapshot tasks, data, eval
    policies = [fresh_policy(env, s[0], mask=spec.mask) for spec, s in zip(specs, streams)]
    snap_batches = [np.repeat(sample_tasks(env, cfg.snap_size, s[1]) if ops.snapshot_tasks
                              is None else ops.snapshot_tasks, cfg.snap_reps, axis=0)
                    for s in streams]
    params = [[p.net.flat] + ([] if p.log_std is None else [p.log_std]) for p in policies]
    adams = [nn.AdamState.init(ps, learning_rate=cfg.bc_lr) for ps in params]
    snapshots = [[] for _ in specs]

    def score(live: list[int]) -> None:  # score live policies, snapshot each improved one
        sizes = [len(snap_batches[i]) for i in live]
        out, _ = rollout_batch(env, np.concatenate([snap_batches[i] for i in live]),
                               [policies[i] for i in live], [streams[i][3] for i in live],
                               sizes=sizes)
        for i, scored in zip(live, np.split(out, np.cumsum(sizes)[:-1])):
            s, snaps = float(scored.mean()), snapshots[i]
            if not snaps or s >= snaps[-1].validation_score + SNAP_DELTA:
                snaps.append(AgentSnapshot(policies[i].to_flat(), "bc", specs[i].mask,
                                           specs[i].bias or "none", len(snaps), s))

    score(list(range(len(specs))))
    for _ in range(cfg.bc_epochs):
        tasks = [sample_tasks(env, cfg.bc_rollouts, s[2], bias=spec.bias)
                 for spec, s in zip(specs, streams)]
        _, _, steps = rollout_batch(env, np.concatenate(tasks), ExpertPolicy(),
                                    [s[2] for s in streams], record=True,
                                    sizes=[cfg.bc_rollouts] * len(specs))
        ends = steps.episode.searchsorted(np.arange(len(specs) + 1) * cfg.bc_rollouts)
        trained = []
        for i, policy in enumerate(policies):
            own = slice(ends[i], ends[i + 1])  # subpopulation i's steps
            states, actions = steps.states[own], steps.actions[own]
            if policy.action_mask is not None:
                keep = ~policy.action_mask[actions]  # the demonstrations it can imitate
                states, actions = states[keep], actions[keep]
            if states.shape[0] == 0:
                continue
            x_feat = ops.featurize(states)
            for _ in range(cfg.bc_passes):
                order = streams[i][2].permutation(states.shape[0])
                for start in range(0, len(order), BC_BATCH):
                    idx = order[start : start + BC_BATCH]
                    loss, grads = _bc_loss_and_grads(policy, ops, x_feat[idx], actions[idx])
                    if not np.isfinite(loss):
                        raise RuntimeError(f"behavioral cloning loss became non-finite ({loss})")
                    nn.adam_step(params[i], grads, adams[i])
            trained.append(i)
        if trained:
            score(trained)
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
    per_spec = train_bc(env, recipe, cfg, rng.spawn(len(recipe)))
    if verbose:
        for spec, snaps in zip(recipe, per_spec):
            print(f"  subpop mask={spec.mask} bias={spec.bias}: {len(snaps)} snapshots, "
                  f"final score {snaps[-1].validation_score:.3f}")
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
            mask_vector(head["env"], mask)  # a mask the env does not define fails here
            if not np.isfinite(score := float(score)):
                raise ValueError(f"non-finite score {score}")
            records.append((method, mask, bias, int(snapshot), score))
        reader.expect_end(f"agent line beyond count {count}")
    return head["env"], records


def population_files(directory) -> list[Path]:
    """Every file load_population reads: the manifest, then one weight file per agent."""
    directory = Path(directory)
    _, records = _read_population_manifest(directory / "manifest")
    return [directory / "manifest"] + [directory / f"agent_{k}.txt"
                                       for k in range(len(records))]


def load_population(directory) -> Population:
    """Read a population directory; a malformed file, or an agent net that is not its env's
    policy net, raises nn.ArtifactFormatError."""
    directory = Path(directory)
    ops, records = _read_population_manifest(directory / "manifest")
    snapshots = []
    for k, record in enumerate(records):
        with nn.read_artifact(directory / f"agent_{k}.txt") as reader:
            flat = nn.read_weights(reader, ops.net_layout(ops.n_actions)).flat
            if ops.action_kind == "box":
                log_std = np.array([float(v) for v in reader.fields(ops.n_actions)])
                if not np.isfinite(log_std).all():
                    raise ValueError(f"non-finite log_std {log_std.tolist()}")
                flat = np.concatenate([flat, log_std])
            reader.expect_end()
        snapshots.append(AgentSnapshot(flat, *record))
    return Population(ops.name, snapshots)
