"""Task embedding network and its ordinal-constraint training.

The network maps a task's initial state to an n-dimensional vector. Training
maximizes the Bradley-Terry-Luce likelihood of two constraint families over a
task pool: triplets ordering inner products (similarity) and pairs ordering
norms (difficulty), giving softplus losses on score differences. Easier tasks
end up with smaller norms; similar tasks with larger inner products.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from taskemb import nn
from taskemb.envs.core import get_env, task_batch
from taskemb.similarity import ConstraintSet


@dataclass
class EmbeddingNet:
    env: str
    net: nn.Mlp
    dim: int

    def embed(self, states: np.ndarray) -> np.ndarray:
        """Embed a (B, state_dim) batch of tasks, one row each; a pure forward pass."""
        ops = get_env(self.env)
        return nn.mlp_forward(self.net, ops.featurize(task_batch(ops, states)))


def fresh_embedding_net(env: str, dim: int, rng: np.random.Generator) -> EmbeddingNet:
    return EmbeddingNet(env, nn.glorot_init(*get_env(env).net_layout(dim), rng), dim)


@dataclass
class TrainConfig:
    dim: int = 0                 # train_embedding needs >= 1; a config file's 0 is the env default
    dim_wonorm: int = 0          # the pipeline's no-norm ablation trains at this dim
    norm_weight: float = 0.4     # weight on the pair-constraint mean
    epochs: int = 300
    batch_size: int = 128
    lr: float = 1e-3
    patience: int = 20           # epochs without validation improvement


@dataclass
class TrainLog:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    test_loss: float = float("nan")


def _oriented(cset: ConstraintSet):
    """Pool indices (anchor, similar, dissimilar, easy, hard), each row put in label order."""
    t, p = cset.triplets, cset.pairs
    first_similar, first_easy = cset.triplet_labels == 1, cset.pair_labels == 1
    return (t[:, 0], np.where(first_similar, t[:, 1], t[:, 2]),
            np.where(first_similar, t[:, 2], t[:, 1]),
            np.where(first_easy, p[:, 0], p[:, 1]), np.where(first_easy, p[:, 1], p[:, 0]))


def _batch_losses(model: EmbeddingNet, x_feat: np.ndarray, t1, sim_idx, dis_idx,
                  easy, hard, norm_weight: float, want_grads: bool):
    """Mean triplet loss + norm_weight * mean pair loss, with net parameter grads.

    Each embedding slot is one cached forward pass through the shared net, whose cache
    its backward pass reuses; the slots' flat parameter gradients are summed.
    """
    param_grad = None
    total = 0.0

    def accumulate(cache, grad_out):
        nonlocal param_grad
        grad, _ = nn.mlp_backward(model.net, cache, grad_out)
        param_grad = grad if param_grad is None else param_grad + grad

    (e1, c1), (e_sim, c_sim), (e_dis, c_dis) = (nn.mlp_forward_cached(model.net, x_feat[i])
                                                for i in (t1, sim_idx, dis_idx))
    diffs = np.einsum("ij,ij->i", e1, e_dis) - np.einsum("ij,ij->i", e1, e_sim)
    total += float(np.mean(nn.softplus(diffs)))
    if want_grads:
        b = t1.size
        s = nn.sigmoid(diffs)[:, None] / b
        accumulate(c1, s * (e_dis - e_sim))
        accumulate(c_sim, -s * e1)
        accumulate(c_dis, s * e1)

    if norm_weight > 0.0 and easy.size:
        (e_easy, c_easy), (e_hard, c_hard) = (nn.mlp_forward_cached(model.net, x_feat[i])
                                              for i in (easy, hard))
        n_easy = np.linalg.norm(e_easy, axis=1)
        n_hard = np.linalg.norm(e_hard, axis=1)
        pair_diffs = n_easy - n_hard
        total += norm_weight * float(np.mean(nn.softplus(pair_diffs)))
        if want_grads:
            bp = easy.size
            s = nn.sigmoid(pair_diffs) * norm_weight / bp
            with np.errstate(invalid="ignore", divide="ignore"):
                u_easy = np.where(n_easy[:, None] > 0, e_easy / n_easy[:, None], 0.0)
                u_hard = np.where(n_hard[:, None] > 0, e_hard / n_hard[:, None], 0.0)
            accumulate(c_easy, s[:, None] * u_easy)
            accumulate(c_hard, -s[:, None] * u_hard)

    return total, param_grad


def constraint_loss(model: EmbeddingNet, pool_states: np.ndarray, cset: ConstraintSet,
                    norm_weight: float) -> float:
    """Full-set objective value: per-set means, pairs weighted by norm_weight."""
    ops = get_env(model.env)
    x_feat = ops.featurize(task_batch(ops, pool_states))
    loss, _ = _batch_losses(model, x_feat, *_oriented(cset), norm_weight, want_grads=False)
    return loss


def triplet_satisfaction(model: EmbeddingNet, pool_states: np.ndarray,
                         cset: ConstraintSet) -> float:
    """Fraction of the set's triplets whose labeled partner wins on inner product."""
    ops = get_env(model.env)
    x_feat = ops.featurize(task_batch(ops, pool_states))
    t1, sim_idx, dis_idx, _, _ = _oriented(cset)
    e = nn.mlp_forward(model.net, x_feat)
    good = np.einsum("ij,ij->i", e[t1], e[sim_idx]) > np.einsum("ij,ij->i", e[t1], e[dis_idx])
    return float(good.mean())


def train_embedding(pool_states: np.ndarray, train_set: ConstraintSet,
                    val_set: ConstraintSet, test_set: ConstraintSet,
                    config: TrainConfig,
                    rng: np.random.Generator) -> tuple[EmbeddingNet, TrainLog]:
    """Minibatch Adam on the constraint objective with early stopping.

    Constraints are a fixed pool reused across epochs. Returns the parameters
    with the best validation loss and logs the test loss at those parameters.
    """
    if config.dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {config.dim}")
    if len(train_set.triplets) == 0:
        raise ValueError("empty triplet constraint set")
    if config.norm_weight > 0.0 and len(train_set.pairs) == 0:
        raise ValueError("empty pair constraint set with norm_weight > 0")
    env = train_set.env
    ops = get_env(env)
    init_rng, order_rng = rng.spawn(2)
    model = fresh_embedding_net(env, config.dim, init_rng)
    x_feat = ops.featurize(task_batch(ops, pool_states))

    t1, sim_idx, dis_idx, easy, hard = _oriented(train_set)

    adam = nn.AdamState.init([model.net.flat], learning_rate=config.lr)
    log = TrainLog()
    best_val = float("inf")
    best_flat = model.net.to_flat()
    stale = 0
    n_tri = t1.size
    steps = max(1, int(np.ceil(n_tri / config.batch_size)))

    for epoch in range(config.epochs):
        tri_order = order_rng.permutation(n_tri)
        pair_order = order_rng.permutation(easy.size) if easy.size else np.array([], dtype=np.intp)
        epoch_loss = 0.0
        for step_i in range(steps):
            sel = tri_order[step_i * config.batch_size : (step_i + 1) * config.batch_size]
            bt1, bsim, bdis = t1[sel], sim_idx[sel], dis_idx[sel]
            if easy.size:
                lo = (step_i * config.batch_size) % easy.size
                psel = np.take(pair_order, np.arange(lo, lo + config.batch_size),
                               mode="wrap")
            else:
                psel = np.array([], dtype=np.intp)
            beasy, bhard = easy[psel], hard[psel]
            loss, grad = _batch_losses(model, x_feat, bt1, bsim, bdis, beasy, bhard,
                                       config.norm_weight, want_grads=True)
            if not np.isfinite(loss):
                raise RuntimeError(f"embedding loss became non-finite at epoch {epoch}")
            epoch_loss += loss
            nn.adam_step([model.net.flat], [grad], adam)

        val_loss = constraint_loss(model, pool_states, val_set, config.norm_weight)
        log.epochs.append(epoch)
        log.train_loss.append(epoch_loss / steps)
        log.val_loss.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_flat = model.net.to_flat()
            log.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break

    model.net.set_flat(best_flat)
    log.test_loss = constraint_loss(model, pool_states, test_set, config.norm_weight)
    return model, log


def pca_project(embeddings: np.ndarray, k: int):
    """Mean-centered projection onto the top-k principal components.

    Returns (projected, explained_variance_ratios). Degenerate inputs (all
    points equal) warn and project onto an arbitrary orthonormal basis.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two points")
    if k > x.shape[1]:
        raise ValueError(f"k={k} exceeds dimension {x.shape[1]}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    total = eigvals.sum()
    if total <= 0.0:
        warnings.warn("zero variance: PCA basis is arbitrary")
        ratios = np.zeros(k)
    else:
        ratios = eigvals[:k] / total
    return centered @ eigvecs[:, :k], ratios


def save_embedding_model(model: EmbeddingNet, path):
    """Header line {"env": ..., "dim": ...} followed by the text weight format; returns path."""
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps({"env": model.env, "dim": model.dim}) + "\n")
        nn.write_weights(model.net, fp)
    return path


def load_embedding_model(path) -> EmbeddingNet:
    """Read a model file; a malformed one, or one whose net does not fit its header's env
    and dim, raises nn.ArtifactFormatError naming the line."""
    with nn.read_artifact(path) as reader:
        header = json.loads(reader.line())
        if not isinstance(header, dict) or not {"env", "dim"} <= header.keys():
            raise ValueError('header must be {"env": ..., "dim": ...}')
        ops, dim = get_env(header["env"]), int(header["dim"])
        net = nn.read_weights(reader, ops.net_layout(dim))
        reader.expect_end()
    return EmbeddingNet(ops.name, net, dim)


def export_embeddings(path, model: EmbeddingNet, states: np.ndarray):
    """CSV `task_index,e_1..e_n,norm` for a batch of tasks; returns path."""
    emb = model.embed(states)
    with open(path, "w", newline="", encoding="utf-8") as fp:
        cols = ",".join(f"e_{i + 1}" for i in range(model.dim))
        fp.write(f"task_index,{cols},norm\n")
        for i, row in enumerate(emb):
            vals = ",".join(repr(float(v)) for v in row)
            fp.write(f"{i},{vals},{repr(float(np.linalg.norm(row)))}\n")
    return path
