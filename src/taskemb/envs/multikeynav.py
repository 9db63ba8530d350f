"""One-dimensional key-and-door navigation on the [0, 1] segment.

The agent walks left/right with a noisy step, picks up keys on four fixed
segments, and finishes at the door segment on the right. Each door type
requires a specific pair of keys; picking a key off its segment or finishing
without the requirements crashes the episode. Variants with identical door
requirements ("all doors need A+B" / "all doors need A") exist for ablations.

State layout: (location, keyA, keyB, keyC, keyD, doorBit1, doorBit2).
Actions: moveLeft, moveRight, pickKeyA..pickKeyD, finish.
"""

from __future__ import annotations

import itertools

import numpy as np

from taskemb.envs import core

KEY_SEGMENTS = np.array([[0.0, 0.1], [0.2, 0.3], [0.4, 0.5], [0.6, 0.7]])
DOOR_SEGMENT = (0.9, 1.0)
STEP_SIZE = 0.075
STEP_NOISE = 0.01

MOVE_LEFT, MOVE_RIGHT = 0, 1
PICK0 = 2  # pickKeyA..pickKeyD are actions 2..5
FINISH = 6

ACTION_NAMES = ("moveLeft", "moveRight", "pickKeyA", "pickKeyB", "pickKeyC",
                "pickKeyD", "finish")
PICKS = tuple(range(PICK0, FINISH))

# Per action: move sign, state column a pick sets (0: none), segment needed (moves: any).
MOVE_SIGN = np.array([-1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
KEY_COLUMN = np.array([0, 0, 1, 2, 3, 4, 0])
SEGMENT_LO = np.array([-np.inf, -np.inf, *KEY_SEGMENTS[:, 0], DOOR_SEGMENT[0]])
SEGMENT_HI = np.array([np.inf, np.inf, *KEY_SEGMENTS[:, 1], DOOR_SEGMENT[1]])

# Required keys per door type, by variant (rows: door index from bits, cols: key A..D).
REQUIREMENTS = {
    "multikeynav": np.array([
        [1, 1, 0, 0],   # type 1 (bits 00): A, B
        [1, 0, 1, 0],   # type 2 (bits 01): A, C
        [0, 1, 0, 1],   # type 3 (bits 10): B, D
        [0, 0, 1, 1],   # type 4 (bits 11): C, D
    ], dtype=bool),
    "multikeynav_ab": np.tile(np.array([1, 1, 0, 0], dtype=bool), (4, 1)),
    "multikeynav_a": np.tile(np.array([1, 0, 0, 0], dtype=bool), (4, 1)),
}


# Snapshot validation tasks: locations {0.05, 0.45, 0.85} x key statuses x door bits.
SNAPSHOT_TASKS = np.array([[loc, *bits] for loc in (0.05, 0.45, 0.85)
                           for bits in itertools.product((0.0, 1.0), repeat=6)])
SNAPSHOT_TASKS.flags.writeable = False


def _door_index(states: np.ndarray) -> np.ndarray:
    return (2 * states[:, 5] + states[:, 6]).astype(np.intp)


def _missing_keys(req: np.ndarray, states: np.ndarray) -> np.ndarray:
    """(B, 4) bool: the keys A..D the task's door requires and the state does not hold."""
    return req[_door_index(states)] & ~(states[:, 1:5] >= 0.5)


def _make_step(req: np.ndarray):
    def step_batch(states, actions, noise):
        eps = -STEP_NOISE + (2 * STEP_NOISE) * noise[0]
        fail_u = noise[1]
        new = states.copy()
        loc = states[:, 0]

        sign = MOVE_SIGN[actions]
        new[:, 0] = np.where(sign != 0.0, np.clip(loc + sign * (STEP_SIZE + eps), 0.0, 1.0), loc)
        # Moves succeed anywhere; a pick or finish off its segment crashes.
        ok = (loc >= SEGMENT_LO[actions]) & (loc <= SEGMENT_HI[actions])
        picked = np.flatnonzero(ok & (KEY_COLUMN[actions] > 0))
        new[picked, KEY_COLUMN[actions[picked]]] = 1.0
        status = np.where(ok, np.int8(core.ALIVE), np.int8(core.CRASHED))

        fin = np.flatnonzero(ok & (actions == FINISH))
        if fin.size:
            has_keys = np.all(states[fin, 1:5] >= req[_door_index(states[fin])], axis=1)
            status[fin] = np.where(has_keys, np.int8(core.SOLVED), np.int8(core.CRASHED))

        status[(status == core.ALIVE) & (fail_u < 1.0 - GAMMA)] = core.FAILED_BY_GAMMA
        return new, status

    return step_batch


def _make_expert(req: np.ndarray):
    def expert_batch(states):
        loc = states[:, 0]
        missing = _missing_keys(req, states)
        any_missing = missing.any(axis=1)
        first = np.argmax(missing, axis=1)  # leftmost missing key (segments are ordered)
        seg_lo = KEY_SEGMENTS[first, 0]
        seg_hi = KEY_SEGMENTS[first, 1]

        actions = np.full(states.shape[0], MOVE_RIGHT, dtype=np.int64)
        # All requirements met: head to the door and finish.
        done = ~any_missing
        actions[done & (loc >= DOOR_SEGMENT[0])] = FINISH
        # Otherwise walk to / pick the leftmost missing key.
        on_seg = any_missing & (loc >= seg_lo) & (loc <= seg_hi)
        actions[on_seg] = PICK0 + first[on_seg]
        actions[any_missing & (loc < seg_lo)] = MOVE_RIGHT
        actions[any_missing & (loc > seg_hi)] = MOVE_LEFT
        return actions

    return expert_batch


def _sample_raw(n, rng):
    states = np.empty((n, 7))
    states[:, 0] = rng.uniform(0.0, 1.0, size=n)
    states[:, 1:5] = (rng.uniform(size=(n, 4)) < 0.5).astype(np.float64)
    door = rng.integers(0, 4, size=n)
    states[:, 5] = door // 2
    states[:, 6] = door % 2
    return states


STATE_RULES = (  # one table for every variant: they share their state fields
    ("location outside [0, 1]", lambda s: (s[:, 0] >= 0.0) & (s[:, 0] <= 1.0)),
    ("key/door flags must be 0 or 1",
     lambda s: ((s[:, 1:] == 0.0) | (s[:, 1:] == 1.0)).all(axis=1)),
)


def _strip_context(states):
    # Door bits identify the task's reward function; drop them.
    return np.asarray(states, dtype=np.float64)[:, :5].copy()


GAMMA = 0.999

_BIAS = {f"door_type_{i + 1}": (lambda i: (lambda s: _door_index(s) == i))(i)
         for i in range(4)}


def _make_ops(name: str, req: np.ndarray) -> core.EnvOps:
    return core.EnvOps(
        name=name,
        state_fields=("location", "keyA", "keyB", "keyC", "keyD", "doorBit1", "doorBit2"),
        horizon=40,
        action_kind="discrete",
        action_names=ACTION_NAMES,
        sample_raw=_sample_raw,
        step_batch=_make_step(req),
        step_draws=2,
        expert_batch=_make_expert(req),
        strip_context=_strip_context,
        state_rules=STATE_RULES,
        bias_filters=dict(_BIAS),
        cluster_labels=lambda states: (_missing_keys(req, states) * [8, 4, 2, 1]).sum(axis=1),
        masks={"none": (), **{ACTION_NAMES[a]: (a,) for a in PICKS}, "all_picks": PICKS},
        snapshot_tasks=SNAPSHOT_TASKS,
    )


for _name, _req in REQUIREMENTS.items():
    core.register(_make_ops(_name, _req))
