"""Variational reconstruction baseline for task embeddings.

Infers a diagonal-Gaussian latent for each task from its initial state and
trains it to reconstruct the environment: a shared trunk with separate final
layers predicts the next context-stripped state and the reward from
(state, action, latent). The embedding of a task is its posterior mean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from taskemb import nn
from taskemb.envs import rollout_batch, sample_tasks
from taskemb.envs.core import SOLVED, ExpertPolicy, get_env, task_batch

LEARNING_RATE = 1e-3


@dataclass
class PredModelConfig:
    latent_dim: int = 6
    epochs: int = 500
    batch_size: int = 512
    beta_kl: float = 0.01
    n_rollouts: int = 10_000
    hidden: tuple[int, int] = (128, 128)


@dataclass
class TransitionBatch(nn.Rows):
    """Expert transitions with context variables stripped from the states."""

    s0: np.ndarray          # (N, state_dim) task-identifying initial states
    sbar: np.ndarray        # (N, d_bar) current states, context removed
    action: np.ndarray      # (N, d_act) featurized actions
    reward: np.ndarray      # (N,)
    sbar_next: np.ndarray   # (N, d_bar)


def featurize_action(ops, actions) -> np.ndarray:
    if ops.action_kind == "discrete":
        acts = np.asarray(actions, dtype=np.int64)
        return np.eye(ops.n_actions)[acts]
    return np.asarray(actions, dtype=np.float64)


def collect_transitions(env: str, n_rollouts: int,
                        rng: np.random.Generator) -> TransitionBatch:
    """Roll the scripted expert on random tasks and flatten every step."""
    ops = get_env(env)
    tasks = sample_tasks(env, n_rollouts, rng)
    _, _, steps = rollout_batch(env, tasks, ExpertPolicy(), rng, record=True)
    return TransitionBatch(tasks[steps.episode], ops.strip_context(steps.states),
                           featurize_action(ops, steps.actions),
                           (steps.status == SOLVED) * 1.0, ops.strip_context(steps.next_states))


@dataclass
class PredModelNets:
    """Inference net plus the shared-trunk predictive heads."""

    env: str
    latent_dim: int
    inference: nn.Mlp     # featurized s0 -> (mean, log-variance) per latent dim
    trunk: nn.Mlp         # (sbar, action, z) -> shared hidden features
    reward_head: nn.Mlp   # hidden -> 1
    dynamics_head: nn.Mlp # hidden -> d_bar

    def posterior(self, states: np.ndarray):
        """(mean, log-variance) of the latent for a (B, state_dim) batch of tasks."""
        ops = get_env(self.env)
        out = nn.mlp_forward(self.inference, ops.featurize(task_batch(ops, states)))
        return out[:, : self.latent_dim], out[:, self.latent_dim :]

    def embed(self, states: np.ndarray) -> np.ndarray:
        """Task embedding: the posterior mean."""
        return self.posterior(states)[0]


def fresh_predmodel(env: str, config: PredModelConfig,
                    rng: np.random.Generator) -> PredModelNets:
    ops = get_env(env)
    d_bar = ops.context_free_dim
    h1, h2 = config.hidden
    inference = nn.glorot_init([ops.feature_dim, h1, h2, 2 * config.latent_dim],
                               ["relu", "relu", "identity"], rng)
    trunk = nn.glorot_init([d_bar + ops.n_actions + config.latent_dim, h1, h2],
                           ["relu", "relu"], rng)
    reward_head = nn.glorot_init([h2, 1], ["identity"], rng)
    dynamics_head = nn.glorot_init([h2, d_bar], ["identity"], rng)
    return PredModelNets(env, config.latent_dim, inference, trunk,
                         reward_head, dynamics_head)


def kl_standard_normal(mean: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Closed-form KL(N(mean, exp(logvar)) || N(0, I)) per row, in nats."""
    return 0.5 * np.sum(mean**2 + np.exp(logvar) - 1.0 - logvar, axis=-1)


def predmodel_loss_and_grads(nets: PredModelNets, batch: TransitionBatch,
                             noise: np.ndarray, config: PredModelConfig):
    """Objective on one batch with fixed reparameterization noise.

    loss = beta * mean KL + mean (r_hat - r)^2 + mean |s_hat - sbar_next|^2
    """
    ops = get_env(nets.env)
    b = batch.s0.shape[0]
    s0_feat = ops.featurize(batch.s0)
    inf_out, inf_cache = nn.mlp_forward_cached(nets.inference, s0_feat)
    mean, logvar = inf_out[:, : nets.latent_dim], inf_out[:, nets.latent_dim :]
    sigma = np.exp(0.5 * logvar)
    z = mean + sigma * noise

    trunk_in = np.concatenate([batch.sbar, batch.action, z], axis=1)
    hidden, trunk_cache = nn.mlp_forward_cached(nets.trunk, trunk_in)
    r_hat, r_cache = nn.mlp_forward_cached(nets.reward_head, hidden)
    s_hat, s_cache = nn.mlp_forward_cached(nets.dynamics_head, hidden)

    kl = kl_standard_normal(mean, logvar)
    r_err = r_hat[:, 0] - batch.reward
    s_err = s_hat - batch.sbar_next
    loss = (config.beta_kl * float(kl.mean()) + float(np.mean(r_err**2))
            + float(np.mean(np.sum(s_err**2, axis=1))))
    d_rhat = (2.0 / b) * r_err[:, None]
    d_shat = (2.0 / b) * s_err
    r_grad, d_hidden_r = nn.mlp_backward(nets.reward_head, r_cache, d_rhat)
    s_grad, d_hidden_s = nn.mlp_backward(nets.dynamics_head, s_cache, d_shat)
    trunk_grad, d_trunk_in = nn.mlp_backward(nets.trunk, trunk_cache,
                                             d_hidden_r + d_hidden_s)
    d_z = d_trunk_in[:, batch.sbar.shape[1] + batch.action.shape[1] :]
    d_mean = d_z + (config.beta_kl / b) * mean
    d_logvar = (d_z * noise * 0.5 * sigma
                + (config.beta_kl / b) * 0.5 * (np.exp(logvar) - 1.0))
    inf_grad, _ = nn.mlp_backward(nets.inference, inf_cache,
                                  np.concatenate([d_mean, d_logvar], axis=1))
    return loss, [inf_grad, trunk_grad, r_grad, s_grad]


def save_predmodel(nets: PredModelNets, path):
    """One file: a JSON header line, then the four nets in a fixed order; returns path."""
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps({"env": nets.env, "latent_dim": nets.latent_dim}) + "\n")
        for net in (nets.inference, nets.trunk, nets.reward_head, nets.dynamics_head):
            nn.write_weights(net, fp)
    return path


def load_predmodel(path) -> PredModelNets:
    """Read a predmodel file; a malformed one, or one whose inference net or trunk does not
    fit its header's env and latent_dim, raises nn.ArtifactFormatError naming the line."""
    with nn.read_artifact(path) as reader:
        header = json.loads(reader.line())
        if not isinstance(header, dict) or not {"env", "latent_dim"} <= header.keys():
            raise ValueError('header must be {"env": ..., "latent_dim": ...}')
        ops, latent_dim = get_env(header["env"]), int(header["latent_dim"])
        nets = [nn.read_weights(reader) for _ in range(4)]
        need = (ops.feature_dim, 2 * latent_dim, ops.context_free_dim + ops.n_actions + latent_dim)
        got = (nets[0].in_size, nets[0].out_size, nets[1].in_size)
        if need != got:
            raise nn.ArtifactFormatError(
                f"{path}:1: header env {ops.name} and latent_dim {latent_dim} need "
                f"(inference inputs, inference outputs, trunk inputs) {need}, the file has {got}")
        reader.expect_end()
    return PredModelNets(ops.name, latent_dim, *nets)


def train_predmodel(env: str, transitions: TransitionBatch, config: PredModelConfig,
                    rng: np.random.Generator, verbose: bool = False):
    """Joint Adam training of inference net and heads; returns (nets, epoch losses)."""
    init_rng, order_rng, noise_rng = rng.spawn(3)
    nets = fresh_predmodel(env, config, init_rng)
    params = [m.flat for m in (nets.inference, nets.trunk, nets.reward_head, nets.dynamics_head)]
    adam = nn.AdamState.init(params, learning_rate=LEARNING_RATE)
    n = len(transitions)
    losses = []
    for epoch in range(config.epochs):
        order = order_rng.permutation(n)
        epoch_loss = 0.0
        for steps, start in enumerate(range(0, n, config.batch_size), 1):
            idx = order[start : start + config.batch_size]
            noise = noise_rng.normal(size=(idx.size, config.latent_dim))
            loss, grads = predmodel_loss_and_grads(nets, transitions[idx], noise, config)
            if not np.isfinite(loss):
                raise RuntimeError(f"predmodel loss became non-finite at epoch {epoch}")
            nn.adam_step(params, grads, adam)
            epoch_loss += loss
        losses.append(epoch_loss / steps)
        if verbose and epoch % 25 == 0:
            print(f"  predmodel epoch {epoch}: loss {losses[-1]:.4f}")
    return nets, losses
