import hashlib
import re

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
        ops = core.get_env("multikeynav")
        new, _ = ops.step_batch(states, actions, rng.uniform(size=(ops.step_draws, 2000)))
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

    def test_snapshot_grid_matches_its_digest(self):
        grid = envs.get_env("multikeynav").snapshot_tasks
        assert grid.shape == (192, 7) and grid.dtype == np.float64
        assert hashlib.sha256(grid.tobytes()).hexdigest() == (
            "4c87412bb78320bc5874e74784f12cab5a8bd5e5911a61345e55f320f68d136f")

    @pytest.mark.parametrize("env, label", [("multikeynav", 2), ("multikeynav_ab", 4),
                                            ("multikeynav_a", 0)])
    def test_variant_labels_count_the_keys_its_doors_still_need(self, env, label):
        # key A held at door bits (0, 1): the standard door still needs C (2), the
        # all-A+B variant B (4), the all-A variant nothing
        state = mkn_state(0.5, keys=(1, 0, 0, 0), door=1)
        assert envs.get_env(env).cluster_labels(state[None]).tolist() == [label]

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

    def test_same_seed_identical_record(self):
        tasks = envs.sample_tasks("multikeynav", 20, make_rng(42))
        runs = [envs.rollout_batch("multikeynav", tasks, envs.UniformRandomPolicy(),
                                   make_rng(7, 8), record=True) for _ in range(2)]
        (o1, st1, r1), (o2, st2, r2) = runs
        assert np.array_equal(o1, o2) and np.array_equal(st1, st2)
        for name in ("episode", "states", "actions", "next_states", "status"):
            assert np.array_equal(getattr(r1, name), getattr(r2, name)), name

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
            noise = rng.uniform(size=(ops.step_draws, alive.shape[0]))
            new, status = ops.step_batch(alive, actions[: alive.shape[0]], noise)
            alive_steps += alive.shape[0]
            failures += int((status == envs.FAILED_BY_GAMMA).sum())
            alive = new[status == envs.ALIVE]
        rate = failures / alive_steps
        assert alive_steps >= 100_000
        assert 0.9e-3 <= rate <= 1.1e-3

    @pytest.mark.parametrize("env", sorted(core._REGISTRY))
    def test_alive_states_satisfy_invariants(self, env):
        # Every state a random policy acts in, and every state it leaves alive, keeps the
        # env's rules, up to the horizon.
        ops = core.get_env(env)
        tasks = envs.sample_tasks(env, 2_000, make_rng(46))
        _, _, steps = envs.rollout_batch(env, tasks, envs.UniformRandomPolicy(), make_rng(46, 1),
                                         record=True)
        alive = steps.next_states[steps.status == envs.ALIVE]
        assert alive.shape[0] > 1_000
        core.check_states(ops, steps.states)
        core.check_states(ops, alive)

    @pytest.mark.parametrize("env", ["multikeynav", "cartpolevar", "pointmass"])
    def test_record_does_not_change_outcomes(self, env):
        # Recording only reads the alive rows; the episodes and the rng stream stay the same.
        ops = core.get_env(env)
        policy = pop.fresh_policy(env, make_rng(47))
        tasks = envs.sample_tasks(env, 300, make_rng(48))
        out, status = envs.rollout_batch(env, tasks, policy, make_rng(49))
        out_r, status_r, steps = envs.rollout_batch(env, tasks, policy, make_rng(49), record=True)
        assert np.array_equal(out, out_r) and np.array_equal(status, status_r)
        n = steps.episode.size
        assert all(a.shape[0] == n for a in (steps.states, steps.actions, steps.next_states,
                                             steps.status))
        assert np.all(np.diff(steps.episode) >= 0)  # grouped by episode
        lengths = np.bincount(steps.episode, minlength=len(tasks))
        assert len(set(lengths.tolist())) > 1  # episodes end at different steps
        assert lengths.min() >= 1 and lengths.max() <= ops.horizon
        first = np.searchsorted(steps.episode, np.arange(len(tasks)))
        last = first + lengths - 1
        assert np.array_equal(steps.states[first], tasks)  # each episode starts at its task
        # Within an episode each step starts where the previous one ended.
        inner = np.setdiff1d(np.arange(n), first)
        assert np.array_equal(steps.states[inner], steps.next_states[inner - 1])
        assert np.all(np.delete(steps.status, last) == envs.ALIVE)
        timed_out = status == envs.TIMED_OUT
        assert np.array_equal(steps.status[last][~timed_out], status[~timed_out])
        assert np.all(steps.status[last][timed_out] == envs.ALIVE)
        assert np.all(lengths[timed_out] == ops.horizon)
        with pytest.raises(core.EnvError, match="at least one episode"):
            envs.rollout_batch(env, tasks[:0], policy, make_rng(49), record=True)

    @pytest.mark.parametrize("env", ["multikeynav", "cartpolevar", "pointmass"])
    def test_recorded_expert_episode_replays_through_the_scalar_api(self, env):
        ops = core.get_env(env)
        for i, task in enumerate(envs.sample_tasks(env, 30, make_rng(53))):
            _, status, steps = envs.rollout_batch(env, task[None], envs.ExpertPolicy(),
                                                  make_rng(54, i), record=True)
            rng, state = make_rng(54, i), task
            for t in range(steps.episode.size):
                action = envs.expert_action(env, state)
                out = envs.step(env, state, action, rng)
                assert np.array_equal(steps.states[t], state)
                assert np.array_equal(steps.actions[t], action)
                assert np.array_equal(steps.next_states[t], out.next_state)
                assert steps.status[t] == out.terminal
                state = out.next_state
            ended = out.terminal != envs.ALIVE
            assert ended or steps.episode.size == ops.horizon
            assert status[0] == (out.terminal if ended else envs.TIMED_OUT)

    # sha256 prefixes of every env's step_batch outputs on the seeded batches below,
    # recorded before multikeynav's step moved to per-action tables.
    STEP_DIGESTS = {
        "cartpolevar": "f8b478a2cbb3056c",
        "multikeynav": "bc670b8a261fee4d",
        "multikeynav_a": "0e12edded8003f09",
        "multikeynav_ab": "25bcc85f368a88a9",
        "pointmass": "07a2bfba42332595",
    }

    def test_step_digests_cover_every_env(self):
        assert set(self.STEP_DIGESTS) == set(core._REGISTRY)

    @pytest.mark.parametrize("env", sorted(STEP_DIGESTS))
    def test_step_batch_outputs_match_their_golden_digest(self, env):
        # Random-policy episodes reach every action from many states; each batch is then
        # stepped again with fresh random actions. Any changed bit changes the digest.
        ops, rng, policy = core.get_env(env), make_rng(5, len(env)), envs.UniformRandomPolicy()
        h = hashlib.sha256()
        for size in (1, 2, 7, 21, 64, 300):
            tasks = envs.sample_tasks(env, size, rng)
            _, _, steps = envs.rollout_batch(env, tasks, policy, rng, record=True)
            actions = policy.act(ops, steps.states, rng)
            noise = rng.uniform(size=(ops.step_draws, steps.states.shape[0]))
            new, status = ops.step_batch(steps.states, actions, noise)
            for a in (steps.states, steps.actions, steps.next_states, steps.status, new, status):
                h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest()[:16] == self.STEP_DIGESTS[env]

    def test_unknown_env_lists_options(self):
        with pytest.raises(core.EnvError, match="multikeynav"):
            envs.get_env("nope")


class TestStateRules:
    @pytest.mark.parametrize("env", sorted(core._REGISTRY))
    def test_sampled_biased_and_snapshot_tasks_keep_the_rules(self, env):
        ops = core.get_env(env)
        tasks = [envs.sample_tasks(env, 2_000, make_rng(55)),
                 *(envs.sample_tasks(env, 500, make_rng(56), bias=b) for b in ops.bias_filters)]
        if ops.snapshot_tasks is not None:
            tasks.append(ops.snapshot_tasks)
        for states in tasks:
            assert core.check_states(ops, states) is states

    def test_envs_that_share_state_fields_share_one_rule_table(self):
        # The loaders look the rules up by a header's state fields, so those fields must
        # pick one table, whichever env holding them comes first.
        by_fields = {}
        for ops in core._REGISTRY.values():
            by_fields.setdefault(ops.state_fields, []).append(ops.state_rules)
        assert len(by_fields["location", "keyA", "keyB", "keyC", "keyD", "doorBit1",
                             "doorBit2"]) == 3
        for tables in by_fields.values():
            assert all(table is tables[0] for table in tables)

    @pytest.mark.parametrize("env, state, message", [
        ("multikeynav_ab", mkn_state(7.5), "location outside [0, 1]"),
        ("multikeynav", mkn_state(0.5, keys=(0, 0.5, 0, 0)), "key/door flags must be 0 or 1"),
        ("cartpolevar", [0, 0, 0.3, 0, 10, 0, 0], "pole angle beyond +-12 degrees"),
        ("cartpolevar", [0, 0, 0, 0, 10, 0, 3.5], "numSteps must be a whole number"),
        ("pointmass", [0, 0, 3, 0, 0, 2, 4.5], "friction outside [0, 4]"),
        ("pointmass", [np.nan, 0, 3, 0, 0, 2, 1], "non-finite state value"),
    ])
    def test_scalar_api_rejects_a_state_that_breaks_a_rule(self, env, state, message):
        ops = core.get_env(env)
        where = re.escape(f"{env}: {message}") + r".*: \[" + re.escape(str(float(state[0])))
        with pytest.raises(core.EnvError, match=where):
            envs.expert_action(env, state)
        with pytest.raises(core.EnvError, match=where):
            envs.step(env, state, 0 if ops.action_kind == "discrete" else [0.0, 0.0],
                      make_rng(0))

    def test_first_broken_row_is_named_with_its_first_broken_rule(self):
        states = envs.sample_tasks("pointmass", 5, make_rng(57))
        states[3, 6], states[4, 0] = -1.0, np.inf
        states[2, [0, 6]] = np.inf, 5.0  # breaks the finite rule and the friction rule
        with pytest.raises(nn.ArtifactFormatError,
                           match=re.escape("t.csv:4: non-finite state value: [inf, ")):
            core.check_states(core.get_env("pointmass").state_fields, states, "t.csv")


class TestTaskFiles:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(51)
        states = envs.sample_tasks("cartpolevar", 37, rng)
        path = tmp_path / "tasks.csv"
        envs.save_tasks(path, "cartpolevar", states)
        env, back = envs.load_tasks(path)
        assert env == "cartpolevar"
        assert np.array_equal(back, states)

    def test_malformed_rows_name_file_and_line(self, tmp_path):
        path = tmp_path / "tasks.csv"
        envs.save_tasks(path, "cartpolevar", envs.sample_tasks("cartpolevar", 3, make_rng(52)))
        lines = path.read_text().splitlines(keepends=True)
        cases = [
            (lines[:2] + [lines[2].replace(",0.0", "", 1)], 3, "expected 8 fields, got 7"),
            (lines[:3] + [lines[3].replace(",0.0", ",zero", 1)], 4, "could not convert"),
            (lines[:3] + ["cartpolevar,nan," + lines[3].split(",", 2)[2]], 4,
             "non-finite state value"),
            (lines[:2] + ["cartpolevar,-inf," + lines[2].split(",", 2)[2]] + lines[3:], 3,
             "non-finite state value"),
            (lines[:3] + ["cartpolevar,0.0,0.0,0.5," + lines[3].split(",", 4)[4]], 4,
             re.escape("pole angle beyond +-12 degrees: [0.0, 0.0, 0.5, ")),
            (lines[:2] + [lines[2].replace("cartpolevar", "pointmass")], 3, "mixed environments"),
            (["env,a,b,c,d,e,f,g\n"] + lines[1:], 1, "header"),
            (lines[:1], 2, "no tasks after the header"),
            (lines[:2] + ["\r\n"] + lines[2:], 3, "expected 8 fields, got 0"),
            (lines[:2] + ["#" + lines[2]] + lines[3:], 3, "unknown env '#cartpolevar'"),
            ([], 1, "file ends early"),
        ]
        pool = (DESK_CONSTRAINTS / "pool.csv").read_text().splitlines(keepends=True)[:5]
        cases.append((pool[:3] + ["multikeynav,7.5," + pool[3].split(",", 2)[2]] + pool[4:], 4,
                      re.escape("location outside [0, 1]: [7.5, ")))
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
