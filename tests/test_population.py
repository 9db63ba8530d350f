import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from taskemb import nn
from taskemb import population as pop
from taskemb.envs import core as envcore
from taskemb.envs import rollout_batch, sample_tasks
from taskemb.envs.core import get_env
from taskemb.seeding import make_rng

from conftest import TINY_CFG as FAST_CFG

DESK_CARTPOLE = Path(__file__).resolve().parents[1] / "runs/cartpolevar-desk/population"
DESK_MKN = Path(__file__).resolve().parents[1] / "runs/multikeynav-desk/population"


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

    @pytest.mark.parametrize("env, mask", [("multikeynav", "pickKeyA"), ("cartpolevar", "none"),
                                           ("pointmass", "none")])
    def test_act_samples_like_the_out_of_place_formula(self, env, mask):
        # act forms its noise in place; the actions keep the bits of the plain expressions.
        ops, policy = get_env(env), pop.fresh_policy(env, make_rng(12), mask=mask)
        states = sample_tasks(env, 300, make_rng(13))
        rng = make_rng(14)
        if ops.action_kind == "discrete":
            logits = policy.logits(states)
            gumbel = -np.log(-np.log(rng.uniform(size=logits.shape)))
            expected = np.argmax(logits + gumbel, axis=1)
        else:
            policy.log_std = np.array([0.3, -0.2])
            means = nn.mlp_forward(policy.net, ops.featurize(states))
            noise = rng.normal(size=means.shape)
            expected = np.clip(means + np.exp(policy.log_std) * noise,
                               ops.action_low, ops.action_high)
        assert np.array_equal(policy.act(ops, states, make_rng(14)), expected)

    def test_mask_vector_names(self):
        ops = get_env("multikeynav")
        assert pop.mask_vector(ops, "none") is None
        assert pop.mask_vector(ops, "pickKeyC").sum() == 1
        assert pop.mask_vector(ops, "all_picks").sum() == 4
        with pytest.raises(ValueError):
            pop.mask_vector(ops, "bogus")
        cartpole = get_env("cartpolevar")
        assert pop.mask_vector(cartpole, cartpole.action_names[1]).tolist() == [False, True]
        with pytest.raises(ValueError, match="unknown mask"):
            pop.mask_vector(cartpole, "all_picks")


class TestTrainBc:
    def test_untrained_snapshot_first_and_scores_increase(self):
        cfg = pop.PopulationConfig(bc_epochs=8, bc_rollouts=120, bc_passes=3,
                                   snap_size=80)
        snaps = pop.train_bc("multikeynav", pop.SubpopSpec(), cfg, make_rng(20))
        assert snaps[0].snapshot_index == 0
        scores = [s.validation_score for s in snaps]
        for prev, cur in zip(scores, scores[1:]):
            assert cur >= prev + pop.SNAP_DELTA

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

    @pytest.mark.parametrize("env", ["multikeynav", "multikeynav_ab", "multikeynav_a",
                                     "cartpolevar", "pointmass"])
    def test_mask_recipe_is_the_envs_masks(self, env):
        ops = get_env(env)
        assert pop.mask_vector(ops, "none") is None  # the one "nothing masked", in every env
        if not ops.masks:
            with pytest.raises(ValueError, match="no mask recipe"):
                pop.standard_recipe(env, "masks")
            return
        assert [s.mask for s in pop.standard_recipe(env, "masks")] == list(ops.masks)
        for name, actions in ops.masks.items():
            mask = pop.mask_vector(ops, name)
            assert (np.flatnonzero(mask).tolist() == sorted(actions)) if actions else mask is None

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
        val = pop.success_rates(small_population, task[None], 10, make_rng(60))[0]
        assert val > 0.3

    def test_untrained_uniform_population_rarely_solves_hard_task(self):
        policy = pop.fresh_policy("multikeynav", make_rng(61))
        snap = pop.AgentSnapshot(policy.to_flat(), "bc", "none", "none", 0, 0.0)
        single = pop.Population("multikeynav", [snap])
        task = np.array([0.0, 0, 0, 0, 0, 0, 0], dtype=float)  # needs A+B from far left
        val = pop.success_rates(single, task[None], 200, make_rng(62))[0]
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
        pe = pop.success_rates(small_population, easy[None], 50, rng)[0]
        ph = pop.success_rates(small_population, hard[None], 50, rng)[0]
        assert pe > ph

    def test_outcome_table_layout(self, small_population):
        states = sample_tasks("multikeynav", 4, make_rng(72))
        table = small_population.outcome_table(states, 3, make_rng(73))
        assert table.shape == (4, 3 * len(small_population))
        # Agent a's child stream does not depend on the other agents' counts,
        # so a table with reps for agent a alone is column block a.
        for a in (0, len(small_population) - 1):
            reps = np.zeros(len(small_population), dtype=np.int64)
            reps[a] = 3
            alone = small_population.outcome_table(states, reps, make_rng(73))
            assert np.array_equal(alone, table[:, 3 * a : 3 * a + 3])

    def test_outcome_table_deterministic(self, small_population):
        states = sample_tasks("multikeynav", 6, make_rng(74))
        t1 = small_population.outcome_table(states, 4, make_rng(75))
        t2 = small_population.outcome_table(states, 4, make_rng(75))
        assert np.array_equal(t1, t2)


def _agent_by_agent(population, states, reps, rng):
    """The outcome table from one rollout_batch per agent, each on its child stream."""
    reps = np.broadcast_to(reps, len(population))
    rngs = rng.spawn(len(population))
    return np.concatenate([
        rollout_batch(population.env, np.repeat(states, r, axis=0), population.policy(a),
                      rngs[a])[0].reshape(len(states), r) for a, r in enumerate(reps)], axis=1)


@pytest.fixture(scope="module")
def trained_populations(tiny_population):
    """A trained population per registered env; the multikeynav variants share one."""
    cfg = pop.PopulationConfig(target_size=6, bc_epochs=6, bc_rollouts=30, bc_passes=1,
                               snap_size=60, snap_reps=4)
    recipe = pop.standard_recipe("pointmass", "bias")[:3]
    out = {"pointmass": pop.build_population("pointmass", recipe, cfg, make_rng(68)),
           "cartpolevar": pop.load_population(DESK_CARTPOLE).subset(range(0, 26, 5))}
    for env in ("multikeynav", "multikeynav_a", "multikeynav_ab"):
        out[env] = pop.Population(env, tiny_population.snapshots)
    return out


class TestLockstep:
    """outcome_table steps groups of agents together; each agent keeps its own bits."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("env", sorted(envcore._REGISTRY))
    def test_outcome_table_equals_agent_by_agent_rollouts(self, trained_populations, env,
                                                          threads, monkeypatch):
        population = trained_populations[env]
        n = len(population)
        states = sample_tasks(env, 6, make_rng(61))
        for reps in (3, np.arange(n) % 4, [0] * (n - 1) + [4]):
            expected = _agent_by_agent(population, states, reps, make_rng(62))
            assert 0 < expected.mean() < 1 or np.sum(reps) == 4
            # one group for all agents, groups of a few agents, one agent per group
            for rows in (pop.LOCKSTEP_ROWS, 40, 1):
                monkeypatch.setattr(pop, "LOCKSTEP_ROWS", rows)
                table = population.outcome_table(states, reps, make_rng(62), threads=threads)
                assert np.array_equal(table, expected), (reps, rows)

    @pytest.mark.parametrize("env", sorted(envcore._REGISTRY))
    def test_segments_step_as_they_would_alone(self, env):
        # Untrained agents at different weight scales end their episodes at different
        # steps; every recorded step of a segment equals its own rollout's.
        sizes = [3, 0, 7, 1, 5]
        policies = [pop.fresh_policy(env, make_rng(60, k)) for k in range(len(sizes))]
        for k, policy in enumerate(policies):
            policy.net.set_flat(policy.net.to_flat() * (0.5 + k))
        states = sample_tasks(env, sum(sizes), make_rng(69))
        out, status, steps = rollout_batch(env, states, policies, make_rng(70).spawn(5),
                                           record=True, sizes=sizes)
        starts = np.cumsum([0, *sizes])
        for k, rng in enumerate(make_rng(70).spawn(5)):
            if not sizes[k]:
                continue
            rows = slice(starts[k], starts[k + 1])
            o, st, alone = rollout_batch(env, states[rows], policies[k], rng, record=True)
            assert np.array_equal(out[rows], o) and np.array_equal(status[rows], st)
            mine = (steps.episode >= starts[k]) & (steps.episode < starts[k + 1])
            assert np.array_equal(steps.episode[mine] - starts[k], alone.episode)
            for name in ("states", "actions", "next_states", "status"):
                assert np.array_equal(getattr(steps, name)[mine], getattr(alone, name)), name

    @pytest.mark.parametrize("env", sorted(envcore._REGISTRY))
    def test_step_is_a_pure_function_of_states_actions_and_noise(self, env):
        # Every stepped row of random-policy episodes, stepped again twice on one noise block.
        ops, rng = get_env(env), make_rng(64, len(env))
        _, _, steps = rollout_batch(ops, sample_tasks(env, 50, rng), pop.fresh_policy(env, rng),
                                    rng, record=True)
        states = steps.states
        actions = envcore.UniformRandomPolicy().act(ops, states, rng)
        noise = rng.uniform(size=(ops.step_draws, states.shape[0]))
        inputs = [a.copy() for a in (states, actions, noise)]
        first, again = (ops.step_batch(states, actions, noise) for _ in range(2))
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
        for a, b in zip((states, actions, noise), inputs):
            assert np.array_equal(a, b)
        if ops.step_draws:  # the noise is the step's only randomness, and it is used
            other = ops.step_batch(states, actions, rng.uniform(size=noise.shape))
            assert any(not np.array_equal(a, b) for a, b in zip(first, other))

    def test_segments_need_one_policy_and_rng_each(self):
        states = sample_tasks("pointmass", 4, make_rng(65))
        policies = [pop.fresh_policy("pointmass", make_rng(66, k)) for k in range(2)]
        with pytest.raises(envcore.EnvError, match="one policy and rng per segment"):
            rollout_batch("pointmass", states, policies, make_rng(67).spawn(2), sizes=[1, 2])


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


def _six_inputs(text: str) -> str:
    """A multikeynav agent file whose first layer takes 6 inputs: the header says so, and
    the last weight column is gone from each of the layer's 32 rows."""
    lines = text.split("\n")
    rows = [row.split() for row in lines[2:34]]
    return "\n".join(["3", "6 32 relu", *(" ".join(r[:6] + r[7:]) for r in rows), *lines[34:]])


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

    @pytest.mark.parametrize("edit, line", [
        (lambda t: t.replace("7 32 relu", "7 32 identity"), 2),  # would run as relu
        (_six_inputs, 2),  # would fail at the first rollout, naming no file
        (lambda t: t.replace("32 32 relu", "32 32 identity"), 35),
        (lambda t: "2" + t[1:t.index("32 7 identity")], 1),  # the output layer dropped
    ], ids=["identity", "six_inputs", "second_layer", "two_layers"])
    def test_agent_net_must_fit_the_env_policy(self, tmp_path, edit, line):
        shutil.copytree(DESK_MKN, tmp_path / "p")
        agent = tmp_path / "p" / "agent_3.txt"
        agent.write_text(edit(agent.read_text()))
        with pytest.raises(nn.ArtifactFormatError, match=re.escape(f"{agent}:{line}: ") +
                           r"the net's layers are .*, a multikeynav policy's are"):
            pop.load_population(tmp_path / "p")

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
