from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from taskemb import population as pop
from taskemb.seeding import make_rng

DESK_CONSTRAINTS = Path(__file__).resolve().parents[1] / "runs/multikeynav-desk/constraints"

TINY_CFG = pop.PopulationConfig(
    target_size=12, bc_epochs=10, bc_rollouts=120, bc_passes=3, snap_size=80
)


@pytest.fixture(scope="session")
def tiny_population():
    """Small trained multikeynav population shared across test modules."""
    recipe = [pop.SubpopSpec(), pop.SubpopSpec(mask="all_picks")]
    return pop.build_population("multikeynav", recipe, TINY_CFG, make_rng(1000))


class BernoulliPopulation:
    """Test double for a trained population.

    Tasks are one-element state vectors holding a task id; agent a solves
    task t with probability probs[a, t], independently per draw. Implements
    the same outcome_table interface the real Population exposes.
    """

    def __init__(self, probs, env="synthetic"):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.env = env
        self.snapshots = [None] * self.probs.shape[0]

    def outcome_table(self, states, reps_per_agent, rng):
        ids = np.atleast_2d(np.asarray(states, dtype=np.float64))[:, 0].astype(int)
        draws = rng.uniform(size=(self.probs.shape[0], ids.size, reps_per_agent))
        hits = draws < self.probs[:, ids, None]  # agent a's block is its (tasks, reps) draws
        return hits.transpose(1, 0, 2).reshape(ids.size, -1).astype(np.uint8)

    def joint_distribution(self, task_i, task_j):
        """Exact joint pmf of the two success indicators under a uniform agent draw."""
        pi = self.probs[:, task_i]
        pj = self.probs[:, task_j]
        p11 = float(np.mean(pi * pj))
        p10 = float(np.mean(pi * (1 - pj)))
        p01 = float(np.mean((1 - pi) * pj))
        p00 = float(np.mean((1 - pi) * (1 - pj)))
        return p11, p10, p01, p00


def exact_mutual_information(p11, p10, p01, p00):
    """Closed-form MI (nats) of a joint Bernoulli pmf."""
    pi = p11 + p10
    pj = p11 + p01
    total = 0.0
    for pxy, px, py in [(p11, pi, pj), (p10, pi, 1 - pj),
                        (p01, 1 - pi, pj), (p00, 1 - pi, 1 - pj)]:
        if pxy > 0.0:
            total += pxy * np.log(pxy / (px * py))
    return total


def cut_lengths(content: bytes):
    """Strategy for lengths to truncate a file to: any byte offset, or one near a line end."""
    line_ends = [i + 1 for i, byte in enumerate(content) if byte == ord("\n")]
    near_end = st.tuples(st.sampled_from(line_ends), st.integers(-2, 0)).map(sum)
    return st.one_of(st.integers(0, len(content)), near_end)


_FULL_ROWS = {}


def check_truncations(load, full_path, tmp_path, data, min_rows=0):
    """Load `full_path` cut to a drawn length. A cut at a line end with at least
    `min_rows` rows after the header must give the full file's first rows (`load`
    returns a list of rows); any other cut must raise an ArtifactFormatError
    naming the file and a line."""
    from taskemb import nn

    key = (load.__qualname__, full_path)
    if key not in _FULL_ROWS:
        _FULL_ROWS[key] = load(full_path)
    content = full_path.read_bytes()
    cut = content[:data.draw(cut_lengths(content), label="length")]
    path = tmp_path / full_path.name
    path.write_bytes(cut)
    complete_rows = cut.count(b"\n") - 1
    if cut.endswith(b"\n") and complete_rows >= min_rows:
        assert load(path) == _FULL_ROWS[key][:complete_rows]
    else:
        with pytest.raises(nn.ArtifactFormatError, match=rf"{full_path.name}:\d+: "):
            load(path)
