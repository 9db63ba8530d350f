"""Small statistics helpers shared by the evaluation code."""

from __future__ import annotations

import numpy as np


def rankdata(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties averaged."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (Pearson on tie-averaged ranks)."""
    ra = rankdata(a) - (len(a) + 1) / 2.0
    rb = rankdata(b) - (len(b) + 1) / 2.0
    denom = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


def fold_mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error across fold scores."""
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


def levenshtein(a, b) -> int:
    """Edit distance between two symbol sequences (two-row dynamic program on Python values)."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
