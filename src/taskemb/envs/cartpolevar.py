"""Cart-pole balancing where the per-action force varies across tasks.

Tasks differ in the signed force magnitude F (drawn from [-15, -5] or
[5, 15] N) and a binary task type that flips which action pushes which way:
for type 0, action 0 applies force -F and action 1 applies +F; type 1 swaps
them. Standard cart-pole physics (cart 1 kg, pole 0.1 kg and 1 m, g 9.8)
integrated with an Euler step of 0.02 s. The episode crashes when the pole
leaves +-12 degrees or the cart leaves |x| <= 2.4, and is solved after
surviving 200 steps. No per-step failure lottery (gamma = 1).

State layout: (x, v, theta, omega, F, taskType, numSteps).
"""

from __future__ import annotations

import numpy as np

from taskemb.envs import core

GRAVITY = 9.8
MASS_CART = 1.0
MASS_POLE = 0.1
TOTAL_MASS = MASS_CART + MASS_POLE
HALF_POLE = 0.5  # half of the 1 m pole
POLE_MASS_LENGTH = MASS_POLE * HALF_POLE
TAU = 0.02
THETA_LIMIT = 12.0 * np.pi / 180.0
X_LIMIT = 2.4
HORIZON = 200
F_MIN, F_MAX = 5.0, 15.0


def step_batch(states, actions, noise):
    x, v, theta, omega = (states[:, i] for i in range(4))
    force_mag = states[:, 4]
    task_type = states[:, 5]
    # Action 0 applies -F for type 0 and +F for type 1; action 1 is the mirror.
    force = force_mag * (2.0 * actions - 1.0) * (1.0 - 2.0 * task_type)

    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    temp = (force + POLE_MASS_LENGTH * omega**2 * sin_t) / TOTAL_MASS
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        HALF_POLE * (4.0 / 3.0 - MASS_POLE * cos_t**2 / TOTAL_MASS)
    )
    x_acc = temp - POLE_MASS_LENGTH * theta_acc * cos_t / TOTAL_MASS

    new = states.copy()
    new[:, 0] = x + TAU * v
    new[:, 1] = v + TAU * x_acc
    new[:, 2] = theta + TAU * omega
    new[:, 3] = omega + TAU * theta_acc
    new[:, 6] = states[:, 6] + 1.0

    status = np.full(states.shape[0], core.ALIVE, dtype=np.int8)
    crashed = (np.abs(new[:, 2]) > THETA_LIMIT) | (np.abs(new[:, 0]) > X_LIMIT)
    status[crashed] = core.CRASHED
    status[~crashed & (new[:, 6] >= HORIZON)] = core.SOLVED
    return new, status


def expert_batch(states):
    x, v, theta, omega = (states[:, i] for i in range(4))
    # Bang-bang PD: positive u means the cart should be pushed right.
    u = theta + 0.55 * omega + 0.02 * x + 0.08 * v
    # Action 1 applies force +F*(1-2*type); choose the action whose effective
    # force matches the sign of u.
    toward = states[:, 4] * (1.0 - 2.0 * states[:, 5])  # effective force of action 1
    return (u * toward > 0).astype(np.int64)


def _sample_raw(n, rng):
    states = np.empty((n, 7))
    states[:, 0:4] = rng.uniform(-0.05, 0.05, size=(n, 4))
    mag = rng.uniform(F_MIN, F_MAX, size=n)
    sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    states[:, 4] = sign * mag
    states[:, 5] = (rng.uniform(size=n) < 0.5).astype(np.float64)
    states[:, 6] = 0.0
    return states


STATE_RULES = (
    ("pole angle beyond +-12 degrees", lambda s: np.abs(s[:, 2]) <= THETA_LIMIT),
    (f"|F| outside [{F_MIN}, {F_MAX}]",
     lambda s: (np.abs(s[:, 4]) >= F_MIN) & (np.abs(s[:, 4]) <= F_MAX)),
    ("taskType must be 0 or 1", lambda s: (s[:, 5] == 0.0) | (s[:, 5] == 1.0)),
    (f"numSteps must be a whole number in [0, {HORIZON}]",
     lambda s: (s[:, 6] >= 0) & (s[:, 6] <= HORIZON) & (s[:, 6] == np.floor(s[:, 6]))),
)


def _featurize(states):
    states = np.asarray(states, dtype=np.float64)
    out = np.empty((states.shape[0], 6))
    out[:, 0:4] = states[:, 0:4]
    out[:, 4] = states[:, 4] / 15.0
    out[:, 5] = states[:, 5]
    return out


def _strip_context(states):
    # Remove F and taskType (the task identity); keep the step counter scaled.
    states = np.asarray(states, dtype=np.float64)
    out = np.empty((states.shape[0], 5))
    out[:, 0:4] = states[:, 0:4]
    out[:, 4] = states[:, 6] / HORIZON
    return out


_BIAS = {
    "fpos_type0": lambda s: (s[:, 4] > 0) & (s[:, 5] == 0),
    "fpos_type1": lambda s: (s[:, 4] > 0) & (s[:, 5] == 1),
    "fneg_type0": lambda s: (s[:, 4] < 0) & (s[:, 5] == 0),
    "fneg_type1": lambda s: (s[:, 4] < 0) & (s[:, 5] == 1),
}


def action_zero_direction(states) -> np.ndarray:
    """Two-class dynamics label: +1 where action 0 moves the cart left, -1 otherwise."""
    states = np.asarray(states, dtype=np.float64)
    return np.where(np.sign(states[:, 4]) * (1.0 - 2.0 * states[:, 5]) > 0, 1, -1)


core.register(core.EnvOps(
    name="cartpolevar",
    state_fields=("x", "v", "theta", "omega", "force", "taskType", "numSteps"),
    horizon=HORIZON,
    action_kind="discrete",
    n_actions=2,
    action_low=0,
    action_high=1,
    action_names=("pushA", "pushB"),
    sample_raw=_sample_raw,
    step_batch=step_batch,
    step_draws=0,
    expert_batch=expert_batch,
    featurize=_featurize,
    strip_context=_strip_context,
    state_rules=STATE_RULES,
    bias_filters=dict(_BIAS),
    hidden=(64, 32),
    embed_dim=3,
    embed_dim_wonorm=2,
    action_symbols=lambda actions: np.asarray(actions, dtype=np.int64),
    cluster_labels=action_zero_direction,
))
