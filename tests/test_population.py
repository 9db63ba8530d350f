import re

import numpy as np
import pytest

from taskemb import nn
from taskemb import population as pop
from taskemb.envs import rollout_batch, sample_tasks
from taskemb.envs.core import get_env
from taskemb.seeding import make_rng

from conftest import TINY_CFG as FAST_CFG


@pytest.fixture()
def small_population(tiny_population):
    return tiny_population


class TestPolicy:
    def test_masked_actions_get_negligible_probability(self):
        policy = pop.fresh_policy("multikeynav", make_rng(1), mask="pickKeyA")
        states = sample_tasks("multikeynav", 50, make_rng(2))
        probs = policy.action_probs(states)
        assert probs[:, 2].max() <= 1e-9

    def test_masked_action_never_sampled(self):
        policy = pop.fresh_policy("multikeynav", make_rng(3), mask="all_picks")
        ops = get_env("multikeynav")
        states = np.repeat(sample_tasks("multikeynav", 10, make_rng(4)), 10_000, axis=0)
        actions = policy.act(ops, states, make_rng(5))
        assert actions.shape[0] == 100_000
        assert not np.any((actions >= 2) & (actions <= 5))

    def test_continuous_actions_clipped(self):
        policy = pop.fresh_policy("pointmass", make_rng(6))
        policy.log_std = np.full(2, 3.0)  # huge noise to force clipping
        ops = get_env("pointmass")
        states = sample_tasks("pointmass", 200, make_rng(7))
        actions = policy.act(ops, states, make_rng(8))
        assert actions.min() >= -10.0 and actions.max() <= 10.0

    @pytest.mark.parametrize("env, mask", [("pointmass", "none"), ("multikeynav", "pickKeyB")])
    def test_flat_roundtrip_through_population(self, env, mask):
        policy = pop.fresh_policy(env, make_rng(9), mask=mask)
        if policy.log_std is not None:
            policy.log_std = np.array([0.3, -0.2])
        flat = policy.to_flat()
        snap = pop.AgentSnapshot(flat, "bc", mask, "none", 0, 0.5)
        back = pop.Population(env, [snap]).policy(0)
        assert np.array_equal(back.to_flat(), flat)
        if mask != "none":
            assert np.array_equal(back.action_mask, pop.mask_vector(get_env(env), mask))
        states = sample_tasks(env, 30, make_rng(10))
        ops = get_env(env)
        assert np.array_equal(back.act(ops, states, make_rng(11)),
                              policy.act(ops, states, make_rng(11)))
        with pytest.raises(ValueError, match="flat vector has"):
            pop.Population(env, [pop.AgentSnapshot(np.append(flat, 0.0), "bc", mask,
                                                   "none", 0, 0.5)]).policy(0)

    def test_mask_vector_names(self):
        ops = get_env("multikeynav")
        assert pop.mask_vector(ops, "none").sum() == 0
        assert pop.mask_vector(ops, "pickKeyC").sum() == 1
        assert pop.mask_vector(ops, "all_picks").sum() == 4
        with pytest.raises(ValueError):
            pop.mask_vector(ops, "bogus")


class TestTrainBc:
    def test_untrained_snapshot_first_and_scores_increase(self):
        cfg = pop.PopulationConfig(bc_epochs=8, bc_rollouts=120, bc_passes=3,
                                   snap_size=80)
        snaps = pop.train_bc("multikeynav", pop.SubpopSpec(), cfg, make_rng(20))
        assert snaps[0].snapshot_index == 0
        scores = [s.validation_score for s in snaps]
        for prev, cur in zip(scores, scores[1:]):
            assert cur >= prev + cfg.snap_delta

    def test_deterministic_given_seed(self):
        cfg = pop.PopulationConfig(bc_epochs=3, bc_rollouts=60, bc_passes=1,
                                   snap_size=40)
        a = pop.train_bc("multikeynav", pop.SubpopSpec(), cfg, make_rng(21))
        b = pop.train_bc("multikeynav", pop.SubpopSpec(), cfg, make_rng(21))
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.parameters, sb.parameters)
            assert sa.validation_score == sb.validation_score


class TestPolicyLogProb:
    def test_score_function_identity_at_logits(self):
        # E[grad log pi] = 0 under the policy's own samples; check at the
        # logit level for one fixed state (the parameter gradient is a fixed
        # linear image of this).
        policy = pop.fresh_policy("multikeynav", make_rng(30))
        state = sample_tasks("multikeynav", 1, make_rng(31))
        probs = policy.action_probs(state)[0]
        rng = make_rng(32)
        actions = rng.choice(7, size=10_000, p=probs)
        onehots = np.eye(7)[actions]
        grad_logits = onehots - probs  # grad of log softmax at the sampled action
        mean_grad = grad_logits.mean(axis=0)
        assert np.linalg.norm(mean_grad) < 0.05


class TestBuildPopulation:
    def test_multikeynav_recipe_has_enough_subpops(self):
        recipe = pop.standard_recipe("multikeynav", "masks")
        assert len(recipe) >= 5
        assert {s.mask for s in recipe} >= {"none", "pickKeyA", "all_picks"}

    def test_empty_recipe_rejected(self):
        with pytest.raises(ValueError):
            pop.build_population("multikeynav", [], FAST_CFG, make_rng(0))

    def test_size_near_target_and_untrained_present(self, small_population):
        p = small_population
        assert abs(len(p) - FAST_CFG.target_size) <= 0.2 * FAST_CFG.target_size
        assert any(s.snapshot_index == 0 for s in p.snapshots)

    def test_masked_agents_leak_nothing(self, small_population):
        states = sample_tasks("multikeynav", 30, make_rng(50))
        for k, snap in enumerate(small_population.snapshots):
            if snap.mask == "all_picks":
                probs = small_population.policy(k).action_probs(states)
                assert probs[:, 2:6].sum() < 1e-6


class TestOutcomeEstimates:
    def test_expert_like_population_solves_trivial_task(self, small_population):
        # At the door with every key: finish is one action away, so trained
        # agents succeed and the estimate lands high.
        task = np.array([0.95, 1, 1, 1, 1, 0, 0], dtype=float)
        val = pop.estimate_pos(task, small_population, reps_per_agent=10,
                               rng=make_rng(60))
        assert val > 0.3

    def test_untrained_uniform_population_rarely_solves_hard_task(self):
        policy = pop.fresh_policy("multikeynav", make_rng(61))
        snap = pop.AgentSnapshot(policy.to_flat(), "bc", "none", "none", 0, 0.0)
        single = pop.Population("multikeynav", [snap])
        task = np.array([0.0, 0, 0, 0, 0, 0, 0], dtype=float)  # needs A+B from far left
        val = pop.estimate_pos(task, single, reps_per_agent=200, rng=make_rng(62))
        assert val < 0.1

    def test_pos_within_unit_interval(self, small_population):
        states = sample_tasks("multikeynav", 20, make_rng(63))
        rates = pop.success_rates(small_population, states, 5, make_rng(64))
        assert np.all((rates >= 0.0) & (rates <= 1.0))

    def test_reps_concentration(self, small_population):
        states = sample_tasks("multikeynav", 100, make_rng(65))
        lo = pop.success_rates(small_population, states, 10, make_rng(66))
        hi = pop.success_rates(small_population, states, 100, make_rng(67))
        assert np.mean(np.abs(lo - hi) < 0.1) >= 0.95

    def test_population_order_exchangeable(self, small_population):
        states = sample_tasks("multikeynav", 50, make_rng(68))
        base = pop.success_rates(small_population, states, 20, make_rng(69))
        perm = np.random.default_rng(5).permutation(len(small_population))
        shuffled = small_population.subset(perm)
        other = pop.success_rates(shuffled, states, 20, make_rng(70))
        # Same distribution, independent noise: binomial tolerance.
        assert np.mean(np.abs(base - other)) < 0.08

    def test_pos_monotone_in_task_ease(self, small_population):
        easy = np.array([0.95, 1, 1, 1, 1, 0, 0], dtype=float)
        hard = np.array([0.0, 1, 1, 1, 1, 0, 0], dtype=float)
        rng = make_rng(71)
        pe = pop.estimate_pos(easy, small_population, 50, rng)
        ph = pop.estimate_pos(hard, small_population, 50, rng)
        assert pe > ph

    def test_outcome_table_layout(self, small_population):
        states = sample_tasks("multikeynav", 4, make_rng(72))
        table = small_population.outcome_table(states, 3, make_rng(73))
        assert table.shape == (4, 3 * len(small_population))
        agents = small_population.column_agents(3)
        assert agents.shape == (table.shape[1],)
        assert agents[0] == 0 and agents[-1] == len(small_population) - 1

    def test_outcome_table_deterministic(self, small_population):
        states = sample_tasks("multikeynav", 6, make_rng(74))
        t1 = small_population.outcome_table(states, 4, make_rng(75))
        t2 = small_population.outcome_table(states, 4, make_rng(75))
        assert np.array_equal(t1, t2)


class TestPersistence:
    def test_roundtrip(self, small_population, tmp_path):
        directory = tmp_path / "popdir"
        pop.save_population(small_population, directory)
        back = pop.load_population(directory)
        assert back.env == small_population.env
        assert len(back) == len(small_population)
        for a, b in zip(small_population.snapshots, back.snapshots):
            assert np.array_equal(a.parameters, b.parameters)
            assert a.mask == b.mask
            assert a.validation_score == b.validation_score

    def test_roundtrip_box_policy(self, tmp_path):
        policy = pop.fresh_policy("pointmass", make_rng(80))
        policy.log_std = np.array([0.1, -0.4])
        snap = pop.AgentSnapshot(policy.to_flat(), "bc", "none", "none", 0, 0.5)
        p = pop.Population("pointmass", [snap])
        pop.save_population(p, tmp_path / "pm")
        back = pop.load_population(tmp_path / "pm")
        assert np.array_equal(back.snapshots[0].parameters, snap.parameters)


GOOD_MANIFEST = """\
env multikeynav
count 2
agent 0 method bc mask none bias none snapshot 0 score 0.5
agent 1 method bc mask all_picks bias none snapshot 1 score 0.75
"""


class TestPopulationManifestErrors:
    @pytest.fixture()
    def pop_dir(self, tmp_path):
        snaps = [pop.AgentSnapshot(pop.fresh_policy("multikeynav", make_rng(90 + k)).to_flat(),
                                   "bc", "none", "none", k, 0.5) for k in range(2)]
        pop.save_population(pop.Population("multikeynav", snaps), tmp_path / "p")
        return tmp_path / "p"

    def test_good_manifest_loads(self, pop_dir):
        (pop_dir / "manifest").write_text(GOOD_MANIFEST)
        back = pop.load_population(pop_dir)
        assert [s.mask for s in back.snapshots] == ["none", "all_picks"]
        assert back.snapshots[1].validation_score == 0.75
        assert len(pop.population_files(pop_dir)) == 3

    @pytest.mark.parametrize("text, line", [
        ("", 1),                                             # no env line
        ("env multikeynav\n", 2),                            # no count line
        (GOOD_MANIFEST[:20], 2),                              # cut inside the count line
        ("count 2\n" + GOOD_MANIFEST, 1),                    # count before env
        (GOOD_MANIFEST.replace("multikeynav", "atari"), 1),   # unknown env
        (GOOD_MANIFEST.replace("count 2", "count two"), 2),
        (GOOD_MANIFEST.replace("count 2", "count 0"), 2),
        (GOOD_MANIFEST.replace(" score 0.75", ""), 4),        # short agent line
        (GOOD_MANIFEST.replace("agent 1", "agent 7"), 4),     # out-of-order agent
        (GOOD_MANIFEST.replace("count 2", "count 3"), 5),     # fewer agent lines than count
        (GOOD_MANIFEST.replace("count 2", "count 1"), 4),     # more agent lines than count
        (GOOD_MANIFEST + GOOD_MANIFEST.splitlines()[3] + "\n", 5),  # extra agent line
        (GOOD_MANIFEST.replace("score 0.5", "score half"), 3),
    ])
    def test_malformed_manifest_names_file_and_line(self, pop_dir, text, line):
        manifest = pop_dir / "manifest"
        manifest.write_text(text)
        where = re.escape(f"{manifest}:{line}:")
        with pytest.raises(nn.ArtifactFormatError, match=where):
            pop.population_files(pop_dir)
        with pytest.raises(nn.ArtifactFormatError, match=where):
            pop.load_population(pop_dir)

    @pytest.mark.parametrize("cut", [-1, 0.5, 40, 2])
    def test_truncated_agent_file_names_file_and_line(self, pop_dir, cut):
        agent = pop_dir / "agent_1.txt"
        data = agent.read_text()
        kept = data[:int(cut * len(data)) if isinstance(cut, float) else cut]
        agent.write_text(kept)
        line = kept.count("\n") + 1  # the cut-short line, or the missing one after
        with pytest.raises(nn.ArtifactFormatError, match=re.escape(f"{agent}:{line}:")):
            pop.load_population(pop_dir)

    def test_box_policy_log_std_line_checked(self, tmp_path):
        policy = pop.fresh_policy("pointmass", make_rng(95))
        snap = pop.AgentSnapshot(policy.to_flat(), "bc", "none", "none", 0, 0.5)
        pop.save_population(pop.Population("pointmass", [snap]), tmp_path / "pm")
        agent = tmp_path / "pm" / "agent_0.txt"
        lines = agent.read_text().splitlines(keepends=True)
        agent.write_text("".join(lines[:-1]) + "0.1\n")  # one log_std for two actions
        with pytest.raises(nn.ArtifactFormatError,
                           match=re.escape(f"{agent}:{len(lines)}: expected 2 values")):
            pop.load_population(tmp_path / "pm")
        agent.write_text("".join(lines) + "0.1 0.2\n")
        with pytest.raises(nn.ArtifactFormatError,
                           match=re.escape(f"{agent}:{len(lines) + 1}: unexpected")):
            pop.load_population(tmp_path / "pm")
