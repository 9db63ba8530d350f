import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskemb import envs, nn
from taskemb import population as pop
from taskemb.envs import cartpolevar, core, multikeynav, pointmass
from taskemb.seeding import make_rng

from conftest import DESK_CONSTRAINTS, check_truncations


def mkn_state(loc, keys=(0, 0, 0, 0), door=0):
    return np.array([loc, *keys, door // 2, door % 2], dtype=float)


class TestMultiKeyNav:
    def test_finish_with_required_keys_solves(self):
        # Door type 1 requires keys A and B.
        state = mkn_state(0.95, keys=(1, 1, 0, 0), door=0)
        out = envs.step("multikeynav", state, multikeynav.FINISH, make_rng(0))
        assert out.terminal == envs.SOLVED
        assert out.reward == 1.0

    def test_finish_without_keys_crashes(self):
        state = mkn_state(0.95, keys=(1, 0, 0, 0), door=0)
        out = envs.step("multikeynav", state, multikeynav.FINISH, make_rng(0))
        assert out.terminal == envs.CRASHED
        assert out.reward == 0.0

    def test_pick_off_segment_crashes(self):
        state = mkn_state(0.5)
        out = envs.step("multikeynav", state, multikeynav.PICK0, make_rng(0))
        assert out.terminal == envs.CRASHED

    def test_pick_on_segment_sets_key(self):
        state = mkn_state(0.05)
        out = envs.step("multikeynav", state, multikeynav.PICK0, make_rng(0))
        assert out.next_state[1] == 1.0
        assert out.terminal in (envs.ALIVE, envs.FAILED_BY_GAMMA)

    def test_move_right_lands_in_expected_interval(self):
        rng = make_rng(3)
        for _ in range(200):
            out = envs.step("multikeynav", mkn_state(0.5), multikeynav.MOVE_RIGHT, rng)
            assert 0.565 <= out.next_state[0] <= 0.585

    def test_move_magnitude_within_bounds_everywhere(self):
        rng = make_rng(4)
        locs = rng.uniform(0.1, 0.9, size=2000)  # interior, so no clamping
        states = np.zeros((2000, 7))
        states[:, 0] = locs
        actions = np.where(rng.uniform(size=2000) < 0.5, 0, 1)
        new, _ = core.get_env("multikeynav").step_batch(states, actions, rng)
        mags = np.abs(new[:, 0] - locs)
        assert mags.min() >= 0.065 - 1e-12
        assert mags.max() <= 0.085 + 1e-12

    def test_location_clamped_to_unit_interval(self):
        rng = make_rng(5)
        out = envs.step("multikeynav", mkn_state(0.01), multikeynav.MOVE_LEFT, rng)
        assert out.next_state[0] == 0.0
        out = envs.step("multikeynav", mkn_state(0.99), multikeynav.MOVE_RIGHT, rng)
        assert out.next_state[0] == 1.0

    def test_door_requirements_table(self):
        # type 2 (bits 01) requires A and C; type 4 (bits 11) requires C and D
        s = mkn_state(0.95, keys=(1, 0, 1, 0), door=1)
        assert envs.step("multikeynav", s, multikeynav.FINISH, make_rng(0)).terminal == envs.SOLVED
        s = mkn_state(0.95, keys=(0, 0, 1, 1), door=3)
        assert envs.step("multikeynav", s, multikeynav.FINISH, make_rng(0)).terminal == envs.SOLVED
        s = mkn_state(0.95, keys=(1, 1, 0, 0), door=3)
        assert envs.step("multikeynav", s, multikeynav.FINISH, make_rng(0)).terminal == envs.CRASHED

    def test_variant_all_doors_need_a_only(self):
        s = mkn_state(0.95, keys=(1, 0, 0, 0), door=3)
        out = envs.step("multikeynav_a", s, multikeynav.FINISH, make_rng(0))
        assert out.terminal == envs.SOLVED

    def test_invalid_action_raises(self):
        with pytest.raises(core.EnvError, match="finish"):
            envs.step("multikeynav", mkn_state(0.5), 7, make_rng(0))

    def test_expert_moves_left_toward_key_a(self):
        assert envs.expert_action("multikeynav", mkn_state(0.5, door=0)) == multikeynav.MOVE_LEFT

    def test_expert_picks_key_on_segment(self):
        assert envs.expert_action("multikeynav", mkn_state(0.05, door=0)) == multikeynav.PICK0

    def test_expert_finishes_at_door(self):
        s = mkn_state(0.95, keys=(1, 1, 1, 1), door=0)
        assert envs.expert_action("multikeynav", s) == multikeynav.FINISH

    def test_expert_success_rate(self):
        rng = make_rng(11)
        tasks = envs.sample_tasks("multikeynav", 500, rng)
        out, status = envs.rollout_batch("multikeynav", tasks, envs.ExpertPolicy(), rng)
        assert out.mean() >= 0.95
        # the remainder must be per-step failure lottery, not crashes
        assert not np.any(status == envs.CRASHED)

    def test_random_policy_rarely_solves(self):
        rng = make_rng(12)
        tasks = envs.sample_tasks("multikeynav", 1000, rng)
        out, _ = envs.rollout_batch("multikeynav", tasks, envs.UniformRandomPolicy(), rng)
        assert out.mean() < 0.05

    def test_door_type_frequencies_uniform(self):
        rng = make_rng(13)
        tasks = envs.sample_tasks("multikeynav", 10_000, rng)
        door = 2 * tasks[:, 5] + tasks[:, 6]
        for d in range(4):
            assert abs((door == d).mean() - 0.25) < 0.02

    def test_bias_filter_door_type(self):
        rng = make_rng(14)
        tasks = envs.sample_tasks("multikeynav", 300, rng, bias="door_type_2")
        assert np.all(tasks[:, 5] == 0.0)
        assert np.all(tasks[:, 6] == 1.0)


class TestCartPoleVar:
    def test_sampled_tasks_valid(self):
        rng = make_rng(21)
        tasks = envs.sample_tasks("cartpolevar", 500, rng)
        mags = np.abs(tasks[:, 4])
        assert np.all((mags >= 5.0) & (mags <= 15.0))
        assert np.all(np.isin(tasks[:, 5], [0.0, 1.0]))
        assert np.all(np.abs(tasks[:, 0:4]) <= 0.05)
        assert np.all(tasks[:, 6] == 0.0)

    def test_force_direction_convention(self):
        # Type 0, F > 0: action 0 must accelerate the cart leftward.
        state = np.array([0.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0])
        out = envs.step("cartpolevar", state, 0, make_rng(0))
        assert out.next_state[1] < 0.0  # velocity after one Euler step
        out = envs.step("cartpolevar", state, 1, make_rng(0))
        assert out.next_state[1] > 0.0
        # Type 1 inverts the mapping.
        state[5] = 1.0
        out = envs.step("cartpolevar", state, 0, make_rng(0))
        assert out.next_state[1] > 0.0

    def test_crash_on_angle(self):
        state = np.array([0.0, 0.0, 0.20, 3.0, 10.0, 0.0, 0.0])
        out = envs.step("cartpolevar", state, 1, make_rng(0))
        assert out.terminal == envs.CRASHED

    def test_solved_after_horizon_steps(self):
        rng = make_rng(22)
        tasks = envs.sample_tasks("cartpolevar", 100, rng)
        out, status = envs.rollout_batch("cartpolevar", tasks, envs.ExpertPolicy(), rng)
        assert out.mean() >= 0.99

    def test_step_counter_increments(self):
        state = np.array([0.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0])
        out = envs.step("cartpolevar", state, 1, make_rng(0))
        assert out.next_state[6] == 1.0

    def test_dynamics_label_groups_paper_classes(self):
        states = np.array([
            [0, 0, 0, 0, 10.0, 0.0, 0],   # +F type0
            [0, 0, 0, 0, -10.0, 1.0, 0],  # -F type1
            [0, 0, 0, 0, -10.0, 0.0, 0],  # -F type0
            [0, 0, 0, 0, 10.0, 1.0, 0],   # +F type1
        ], dtype=float)
        label = cartpolevar.action_zero_direction(states)
        assert label[0] == label[1]
        assert label[2] == label[3]
        assert label[0] != label[2]


class TestPointMass:
    def test_sampled_tasks_in_range(self):
        rng = make_rng(31)
        tasks = envs.sample_tasks("pointmass", 500, rng)
        assert np.all((tasks[:, 4] >= -4) & (tasks[:, 4] <= 4))
        assert np.all((tasks[:, 5] >= 0.5) & (tasks[:, 5] <= 8.0))
        assert np.all((tasks[:, 6] >= 0.0) & (tasks[:, 6] <= 4.0))
        assert np.all(tasks[:, 0] == 0.0)
        assert np.all(tasks[:, 2] == 3.0)

    def test_gate_left_bias(self):
        rng = make_rng(32)
        tasks = envs.sample_tasks("pointmass", 200, rng, bias="gate_left")
        assert np.all(tasks[:, 4] + 0.5 * tasks[:, 5] < 0.0)

    def test_wall_blocks_outside_gate(self):
        # Gate far right; drive straight down through x=0 -> crash at the wall.
        state = np.array([0.0, 0.0, 0.1, -3.0, 3.5, 1.0, 0.0])
        out = envs.step("pointmass", state, np.array([0.0, -10.0]), make_rng(0))
        assert out.terminal == envs.CRASHED

    def test_gate_lets_crossing_through(self):
        state = np.array([0.0, 0.0, 0.1, -3.0, 0.0, 2.0, 0.0])
        out = envs.step("pointmass", state, np.array([0.0, -10.0]), make_rng(1))
        assert out.terminal in (envs.ALIVE, envs.FAILED_BY_GAMMA)

    def test_goal_radius_solves(self):
        state = np.array([0.0, 0.0, -2.8, 0.0, 0.0, 2.0, 0.0])
        out = envs.step("pointmass", state, np.array([0.0, -5.0]), make_rng(0))
        assert out.terminal == envs.SOLVED

    def test_outer_wall_crashes(self):
        state = np.array([3.9, 3.0, 2.0, 0.0, 0.0, 2.0, 0.0])
        out = envs.step("pointmass", state, np.array([10.0, 0.0]), make_rng(0))
        assert out.terminal == envs.CRASHED

    def test_out_of_range_action_rejected(self):
        state = np.array([0.0, 0.0, 3.0, 0.0, 0.0, 2.0, 0.0])
        with pytest.raises(core.EnvError, match="outside"):
            envs.step("pointmass", state, np.array([11.0, 0.0]), make_rng(0))

    def test_expert_reaches_goal_often(self):
        rng = make_rng(33)
        tasks = envs.sample_tasks("pointmass", 1000, rng)
        out, status = envs.rollout_batch("pointmass", tasks, envs.ExpertPolicy(), rng)
        # gamma = 0.99 caps success around exp(steps * ln 0.99); the expert
        # should essentially never crash.
        assert out.mean() > 0.5
        assert (status == envs.CRASHED).mean() < 0.01

    def test_steering_class_labels(self):
        states = np.array([
            [0, 0, 3, 0, 0.0, 2.0, 0.0],    # gate spans x=0
            [0, 0, 3, 0, -3.0, 1.0, 0.0],   # gate fully left
            [0, 0, 3, 0, 3.0, 1.0, 0.0],    # gate fully right
        ], dtype=float)
        assert list(pointmass.steering_class(states)) == [0, 1, 2]


class TestRolloutMachinery:
    def test_binary_return_invariant(self):
        rng = make_rng(41)
        for env in ("multikeynav", "cartpolevar", "pointmass"):
            tasks = envs.sample_tasks(env, 2000, rng)
            out, status = envs.rollout_batch(env, tasks, envs.UniformRandomPolicy(), rng)
            assert set(np.unique(out)) <= {0, 1}
            assert np.array_equal(out == 1, status == envs.SOLVED)
            assert not np.any(status == envs.ALIVE)

    def test_same_seed_identical_trajectory(self):
        task = envs.sample_task("multikeynav", make_rng(42))
        o1, t1 = envs.rollout("multikeynav", task, envs.UniformRandomPolicy(),
                              make_rng(7, 8), record=True)
        o2, t2 = envs.rollout("multikeynav", task, envs.UniformRandomPolicy(),
                              make_rng(7, 8), record=True)
        assert o1 == o2
        assert t1.actions == t2.actions
        assert all(np.array_equal(a, b) for a, b in zip(t1.states, t2.states))
        assert t1.final.terminal == t2.final.terminal

    def test_trajectory_length_within_horizon(self):
        rng = make_rng(43)
        task = envs.sample_task("multikeynav", rng)
        _, traj = envs.rollout("multikeynav", task, envs.UniformRandomPolicy(), rng,
                               record=True)
        assert len(traj.actions) <= 40
        assert len(traj.states) == len(traj.actions)

    def test_gamma_rate_within_ten_percent(self):
        # moveRight forever never crashes and never solves, so every step is
        # an independent failure lottery; count the per-step frequency.
        rng = make_rng(45)
        ops = core.get_env("multikeynav")
        states = envs.sample_tasks("multikeynav", 30_000, rng)
        actions = np.full(states.shape[0], multikeynav.MOVE_RIGHT, dtype=np.int64)
        alive_steps = 0
        failures = 0
        alive = states
        for _ in range(40):
            if alive.shape[0] == 0:
                break
            new, status = ops.step_batch(alive, actions[: alive.shape[0]], rng)
            alive_steps += alive.shape[0]
            failures += int((status == envs.FAILED_BY_GAMMA).sum())
            alive = new[status == envs.ALIVE]
        rate = failures / alive_steps
        assert alive_steps >= 100_000
        assert 0.9e-3 <= rate <= 1.1e-3

    def test_alive_states_satisfy_invariants(self):
        rng = make_rng(46)
        ops = core.get_env("multikeynav")
        states = envs.sample_tasks("multikeynav", 500, rng)
        pol = envs.UniformRandomPolicy()
        for _ in range(10):
            acts = pol.act(ops, states, rng)
            new, status = ops.step_batch(states, acts, rng)
            states = new[status == envs.ALIVE]
            if states.shape[0] == 0:
                break
            for s in states[:20]:
                ops.validate_state(s)

    @pytest.mark.parametrize("env", ["multikeynav", "cartpolevar", "pointmass"])
    def test_record_does_not_change_outcomes(self, env):
        # Recording only reads the alive rows; the episodes and the rng stream stay the same.
        ops = core.get_env(env)
        policy = pop.fresh_policy(env, make_rng(47))
        tasks = envs.sample_tasks(env, 300, make_rng(48))
        out, status = envs.rollout_batch(env, tasks, policy, make_rng(49))
        out_r, status_r, trajs = envs.rollout_batch(env, tasks, policy, make_rng(49), record=True)
        assert np.array_equal(out, out_r) and np.array_equal(status, status_r)
        assert len({len(traj.actions) for traj in trajs}) > 1  # episodes end at different steps
        for traj, st0, task in zip(trajs, status, tasks):
            assert traj.final.terminal == st0
            assert np.array_equal(traj.states[0], task)
            assert len(traj.actions) == len(traj.states) <= ops.horizon
            if st0 == envs.TIMED_OUT:
                assert len(traj.actions) == ops.horizon

    def test_unknown_env_lists_options(self):
        with pytest.raises(core.EnvError, match="multikeynav"):
            envs.get_env("nope")


class TestTaskFiles:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(51)
        states = envs.sample_tasks("cartpolevar", 37, rng)
        path = tmp_path / "tasks.csv"
        envs.save_tasks(path, "cartpolevar", states)
        env, back = envs.load_tasks(path)
        assert env == "cartpolevar"
        assert np.array_equal(back, states)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env,a,b\nmultikeynav,1,2\n")
        with pytest.raises(core.EnvError, match="header"):
            envs.load_tasks(path)

    def test_malformed_rows_name_file_and_line(self, tmp_path):
        path = tmp_path / "tasks.csv"
        envs.save_tasks(path, "cartpolevar", envs.sample_tasks("cartpolevar", 3, make_rng(52)))
        lines = path.read_text().splitlines(keepends=True)
        cases = [
            (lines[:2] + [lines[2].replace(",0.0", "", 1)], 3, "expected 8 fields, got 7"),
            (lines[:3] + [lines[3].replace(",0.0", ",zero", 1)], 4, "could not convert"),
            (lines[:2] + [lines[2].replace("cartpolevar", "pointmass")], 3, "mixed environments"),
            (lines[:1], 2, "no tasks after the header"),
            ([], 1, "file ends early"),
        ]
        for text, line, message in cases:
            path.write_text("".join(text), newline="")
            with pytest.raises(nn.ArtifactFormatError, match=f"tasks.csv:{line}: {message}"):
                envs.load_tasks(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_truncated_pool_gives_first_rows_or_a_located_error(self, tmp_path, data):
        def load(path):
            env, states = envs.load_tasks(path)
            return [(env, *row) for row in states.tolist()]

        check_truncations(load, DESK_CONSTRAINTS / "pool.csv", tmp_path, data, min_rows=1)
