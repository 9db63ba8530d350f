"""The silhouette audit of an embedding space against intuitive task clusters.

Each environment labels its own clusters (`EnvOps.cluster_labels`): which
keys a navigation task still needs, which way a cart-pole task's action 0
actually pushes, and whether a point-mass task needs lateral steering.
Silhouette over these labels scores how cleanly the embedding separates them.
"""

from __future__ import annotations

import numpy as np

from taskemb.envs import get_env


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


def silhouette_for_model(model, states: np.ndarray) -> float:
    """Silhouette of the model's embedding space on the env's intuitive labels."""
    return silhouette(model.embed(states), get_env(model.env).cluster_labels(states))
