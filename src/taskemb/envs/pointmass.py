"""Point mass steered through a gate in a walled square arena.

The agent applies 2-d forces to a unit mass inside [-4, 4]^2 with viscous
friction (-mu_k * velocity). A wall along y = 0 has one open gate segment
[p_g - w_g/2, p_g + w_g/2]; touching any wall outside it crashes the episode.
Start is (0, 3) at rest and the goal is reaching within 0.25 of (0, -3).
Integration is semi-implicit Euler at dt = 0.05; each surviving step fails
with probability 1 - gamma (gamma = 0.99).

Tasks vary in gate position p_g in [-4, 4], gate width w_g in [0.5, 8], and
friction mu_k in [0, 4]; the dynamic part of the initial state is fixed.

State layout: (x, vx, y, vy, gate_pos, gate_width, friction).
"""

from __future__ import annotations

import numpy as np

from taskemb.envs import core

DT = 0.05
BOUND = 4.0
GOAL = np.array([0.0, -3.0])
GOAL_RADIUS = 0.25
HORIZON = 100
GAMMA = 0.99
F_MAX = 10.0


def step_batch(states, actions, noise):
    b = states.shape[0]
    fail_u = noise[0]
    x, vx, y, vy = (states[:, i] for i in range(4))
    mu = states[:, 6]
    fx = actions[:, 0]
    fy = actions[:, 1]

    nvx = vx + DT * (fx - mu * vx)
    nvy = vy + DT * (fy - mu * vy)
    nx = x + DT * nvx
    ny = y + DT * nvy

    new = states.copy()
    new[:, 0], new[:, 1], new[:, 2], new[:, 3] = nx, nvx, ny, nvy

    status = np.full(b, core.ALIVE, dtype=np.int8)

    # Crossing the y = 0 wall is allowed only inside the gate segment.
    crossed = (y > 0.0) != (ny > 0.0)
    if crossed.any():
        frac = np.zeros(b)
        dy = ny - y
        frac[crossed] = (0.0 - y[crossed]) / dy[crossed]
        x_cross = x + (nx - x) * frac
        gate_lo = states[:, 4] - 0.5 * states[:, 5]
        gate_hi = states[:, 4] + 0.5 * states[:, 5]
        blocked = crossed & ~((x_cross >= gate_lo) & (x_cross <= gate_hi))
        status[blocked] = core.CRASHED

    outer = (np.abs(nx) >= BOUND) | (np.abs(ny) >= BOUND)
    status[outer] = core.CRASHED

    at_goal = (nx - GOAL[0]) ** 2 + (ny - GOAL[1]) ** 2 <= GOAL_RADIUS**2
    status[(status == core.ALIVE) & at_goal] = core.SOLVED

    alive = status == core.ALIVE
    status[alive & (fail_u < 1.0 - GAMMA)] = core.FAILED_BY_GAMMA
    return new, status


def expert_batch(states):
    x, vx, y, vy = (states[:, i] for i in range(4))
    mu = states[:, 6]
    gate_lo = np.maximum(states[:, 4] - 0.5 * states[:, 5], -BOUND + 0.05)
    gate_hi = np.minimum(states[:, 4] + 0.5 * states[:, 5], BOUND - 0.05)
    gx = 0.5 * (gate_lo + gate_hi)
    half = np.maximum(0.5 * (gate_hi - gate_lo), 1e-3)

    above = y > 0.3
    aligned = np.abs(x - gx) <= np.maximum(0.08, 0.6 * half)
    tx = np.where(above, gx, GOAL[0])
    ty = np.where(above, np.where(aligned, -2.0, 1.2), GOAL[1])

    kp, kd = 12.0, 4.0
    fx = kp * (tx - x) + (mu - kd) * vx
    fy = kp * (ty - y) + (mu - kd) * vy
    return np.clip(np.stack([fx, fy], axis=1), -F_MAX, F_MAX)


def _sample_raw(n, rng):
    states = np.zeros((n, 7))
    states[:, 2] = 3.0  # start at (0, 3) with zero velocity
    states[:, 4] = rng.uniform(-4.0, 4.0, size=n)
    states[:, 5] = rng.uniform(0.5, 8.0, size=n)
    states[:, 6] = rng.uniform(0.0, 4.0, size=n)
    return states


STATE_RULES = (
    ("position outside the arena",
     lambda s: (np.abs(s[:, 0]) < BOUND) & (np.abs(s[:, 2]) < BOUND)),
    ("gate width must be positive", lambda s: s[:, 5] > 0),
    ("gate does not intersect the arena",
     lambda s: (s[:, 4] + 0.5 * s[:, 5] >= -BOUND) & (s[:, 4] - 0.5 * s[:, 5] <= BOUND)),
    ("friction outside [0, 4]", lambda s: (s[:, 6] >= 0.0) & (s[:, 6] <= 4.0)),
)


def _strip_context(states):
    # Gate and friction parameters identify the task; the observable part is
    # the kinematic state.
    return np.asarray(states, dtype=np.float64)[:, :4].copy()


def steering_class(states) -> np.ndarray:
    """Cluster label from gate geometry: 0 = straight through, 1 = steer left, 2 = steer right.

    The start is at x = 0, so a gate whose span covers x = 0 needs no lateral
    steering; otherwise the agent must move toward the gate's side.
    """
    states = np.asarray(states, dtype=np.float64)
    gate_lo = np.maximum(states[:, 4] - 0.5 * states[:, 5], -BOUND)
    gate_hi = np.minimum(states[:, 4] + 0.5 * states[:, 5], BOUND)
    label = np.zeros(states.shape[0], dtype=np.int64)
    label[gate_hi < 0.0] = 1
    label[gate_lo > 0.0] = 2
    return label


def _action_symbols(actions):
    # Bin continuous forces into 8 direction sectors for edit distance.
    actions = np.asarray(actions, dtype=np.float64)
    ang = np.arctan2(actions[..., 1], actions[..., 0])
    return np.floor((ang + np.pi) / (2 * np.pi / 8)).astype(np.int64) % 8


_BIAS = {
    "gate_left": lambda s: s[:, 4] + 0.5 * s[:, 5] < 0.0,
    "gate_right": lambda s: s[:, 4] + 0.5 * s[:, 5] >= 0.0,
}


core.register(core.EnvOps(
    name="pointmass",
    state_fields=("x", "vx", "y", "vy", "gate_pos", "gate_width", "friction"),
    horizon=HORIZON,
    action_kind="box",
    n_actions=2,
    action_low=-F_MAX,
    action_high=F_MAX,
    action_names=("force_x", "force_y"),
    sample_raw=_sample_raw,
    step_batch=step_batch,
    step_draws=1,
    expert_batch=expert_batch,
    featurize=core.identity_features,
    strip_context=_strip_context,
    state_rules=STATE_RULES,
    bias_filters=dict(_BIAS),
    hidden=(32, 32),
    embed_dim=3,
    embed_dim_wonorm=3,
    action_symbols=_action_symbols,
    cluster_labels=steering_class,
))
