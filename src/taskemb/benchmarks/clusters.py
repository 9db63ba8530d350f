"""Intuitive task-cluster labels per environment, and the silhouette audit.

The labels are the structure an embedding space is expected to expose:
which keys a navigation task still needs, which way a cart-pole task's
action 0 actually pushes, and whether a point-mass task needs lateral
steering. Silhouette over these labels scores how cleanly the embedding
separates them.
"""

from __future__ import annotations

import numpy as np

from taskemb.envs import cartpolevar, multikeynav, pointmass


def cluster_labels(env: str, states: np.ndarray) -> np.ndarray:
    """Discrete label per task; total over every sampled task."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if env.startswith("multikeynav"):
        variant = {"multikeynav": "standard", "multikeynav_ab": "all_ab",
                   "multikeynav_a": "all_a"}[env]
        req = multikeynav.REQUIREMENTS[variant]
        door = (2 * states[:, 5] + states[:, 6]).astype(np.intp)
        have = states[:, 1:5] >= 0.5
        needed = req[door] & ~have
        return (needed * np.array([8, 4, 2, 1])).sum(axis=1).astype(np.int64)
    if env == "cartpolevar":
        return cartpolevar.action_zero_direction(states)
    if env == "pointmass":
        return pointmass.steering_class(states)
    raise ValueError(f"no cluster labeling for {env!r}")


def silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette (b - a) / max(a, b) with Euclidean distances.

    Points in singleton clusters contribute 0. Raises on fewer than two
    clusters.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.shape[0] != labels.shape[0]:
        raise ValueError("points and labels must align")
    uniq, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if uniq.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    # Mean distance from every point to every cluster.
    sums = np.zeros((n, uniq.size))
    for c in range(uniq.size):
        sums[:, c] = dist[:, inverse == c].sum(axis=1)
    own = inverse
    own_count = counts[own]
    scores = np.zeros(n)
    multi = own_count > 1
    a = np.zeros(n)
    a[multi] = sums[multi, own[multi]] / (own_count[multi] - 1)
    mean_other = sums / counts[None, :]
    mean_other[np.arange(n), own] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    valid = multi & (denom > 0)
    scores[valid] = (b[valid] - a[valid]) / denom[valid]
    return float(scores.mean())


def silhouette_for_model(model, env: str, states: np.ndarray) -> float:
    """Silhouette of the model's embedding space on the env's intuitive labels."""
    return silhouette(model.embed(states), cluster_labels(env, states))
