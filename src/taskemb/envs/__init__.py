"""Goal-based environments with binary success, vectorized rollouts, and scripted experts."""

from taskemb.envs.core import (
    ALIVE,
    CRASHED,
    FAILED_BY_GAMMA,
    SOLVED,
    TIMED_OUT,
    EnvOps,
    ExpertPolicy,
    StepOutcome,
    Steps,
    UniformRandomPolicy,
    expert_action,
    get_env,
    load_tasks,
    rollout_batch,
    sample_tasks,
    save_tasks,
    step,
)

__all__ = [
    "ALIVE", "SOLVED", "CRASHED", "TIMED_OUT", "FAILED_BY_GAMMA",
    "EnvOps", "ExpertPolicy", "StepOutcome", "Steps",
    "UniformRandomPolicy", "expert_action", "get_env",
    "load_tasks", "rollout_batch", "sample_tasks", "save_tasks", "step",
]
