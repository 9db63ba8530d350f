import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskemb.benchmarks import predmodel as pm
from taskemb.seeding import make_rng

from test_nn import assert_grads_match, finite_diff_grads, layer_views

SMALL = pm.PredModelConfig(latent_dim=3, epochs=3, batch_size=256, n_rollouts=60,
                           hidden=(32, 32))


def small_batch(env="multikeynav", n_rollouts=60, seed=1):
    return pm.collect_transitions(env, n_rollouts, make_rng(seed))


class TestTransitions:
    def test_shapes_consistent(self):
        batch = small_batch()
        n = batch.s0.shape[0]
        assert batch.sbar.shape == (n, 5)       # door bits stripped
        assert batch.sbar_next.shape == (n, 5)
        assert batch.action.shape == (n, 7)     # one-hot discrete actions
        assert batch.reward.shape == (n,)

    def test_episode_rewards_binary(self):
        # Each episode contributes at most one unit of reward, on its last step.
        batch = small_batch(n_rollouts=40, seed=2)
        total = batch.reward.sum()
        assert 0 <= total <= 40
        assert set(np.unique(batch.reward)) <= {0.0, 1.0}

    def test_pointmass_states_not_stripped_of_kinematics(self):
        batch = small_batch("pointmass", n_rollouts=10, seed=3)
        assert batch.sbar.shape[1] == 4
        assert batch.action.shape[1] == 2


class TestKl:
    @settings(max_examples=100)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6),
           st.lists(st.floats(-3, 3), min_size=2, max_size=6))
    def test_nonnegative(self, mean, logvar):
        d = min(len(mean), len(logvar))
        kl = pm.kl_standard_normal(np.array(mean[:d]), np.array(logvar[:d]))
        assert kl >= -1e-12

    def test_zero_at_standard_normal(self):
        assert pm.kl_standard_normal(np.zeros(4), np.zeros(4)) == 0.0

    def test_closed_form_matches_monte_carlo(self):
        rng = make_rng(10)
        mean = rng.normal(size=5)
        logvar = rng.uniform(-1.0, 1.0, size=5)
        closed = float(pm.kl_standard_normal(mean, logvar))
        sigma = np.exp(0.5 * logvar)
        z = mean + sigma * rng.normal(size=(400_000, 5))
        log_q = -0.5 * np.sum(((z - mean) / sigma) ** 2 + logvar + np.log(2 * np.pi),
                              axis=1)
        log_p = -0.5 * np.sum(z**2 + np.log(2 * np.pi), axis=1)
        mc = float(np.mean(log_q - log_p))
        assert mc == pytest.approx(closed, rel=0.02)


class TestGradients:
    def test_loss_gradient_matches_finite_differences(self):
        batch = small_batch(n_rollouts=8, seed=4)
        sub = pm.TransitionBatch(batch.s0[:40], batch.sbar[:40], batch.action[:40],
                                 batch.reward[:40], batch.sbar_next[:40])
        cfg = pm.PredModelConfig(latent_dim=2, hidden=(12, 12), beta_kl=0.05)
        nets = pm.fresh_predmodel("multikeynav", cfg, make_rng(5))
        noise = make_rng(6).normal(size=(40, 2))

        def loss_fn():
            val, _ = pm.predmodel_loss_and_grads(nets, sub, noise, cfg)
            return val

        _, grads = pm.predmodel_loss_and_grads(nets, sub, noise, cfg)
        mlps = (nets.inference, nets.trunk, nets.reward_head, nets.dynamics_head)
        numeric = finite_diff_grads(loss_fn, layer_views(mlps, [m.flat for m in mlps]),
                                    coords_per_param=10, rng=make_rng(7))
        assert_grads_match(layer_views(mlps, grads), numeric)


class TestTraining:
    def test_loss_decreases(self):
        batch = small_batch(n_rollouts=80, seed=8)
        cfg = pm.PredModelConfig(latent_dim=3, epochs=12, batch_size=256,
                                 hidden=(32, 32))
        _, losses = pm.train_predmodel("multikeynav", batch, cfg, make_rng(9))
        assert losses[-1] < losses[0]

    def test_huge_kl_weight_collapses_posterior(self):
        batch = small_batch(n_rollouts=60, seed=11)
        cfg = pm.PredModelConfig(latent_dim=3, epochs=25, batch_size=512,
                                 hidden=(32, 32), beta_kl=1e3)
        nets, _ = pm.train_predmodel("multikeynav", batch, cfg, make_rng(12))
        mean, logvar = nets.posterior(batch.s0[:200])
        assert np.linalg.norm(mean, axis=1).mean() < 0.1
        assert np.abs(np.exp(logvar) - 1.0).mean() < 0.2

    def test_embed_returns_posterior_mean(self):
        cfg = pm.PredModelConfig(latent_dim=4, hidden=(16, 16))
        nets = pm.fresh_predmodel("multikeynav", cfg, make_rng(13))
        batch = small_batch(n_rollouts=5, seed=14)
        e = nets.embed(batch.s0[:7])
        mean, _ = nets.posterior(batch.s0[:7])
        assert np.array_equal(e, mean)
        assert e.shape == (7, 4)

    def test_training_deterministic(self):
        batch = small_batch(n_rollouts=30, seed=15)
        cfg = pm.PredModelConfig(latent_dim=2, epochs=2, batch_size=128,
                                 hidden=(16, 16))
        a, _ = pm.train_predmodel("multikeynav", batch, cfg, make_rng(16))
        b, _ = pm.train_predmodel("multikeynav", batch, cfg, make_rng(16))
        for pa, pb in zip((a.inference, a.trunk, a.reward_head, a.dynamics_head),
                          (b.inference, b.trunk, b.reward_head, b.dynamics_head)):
            assert np.array_equal(pa.flat, pb.flat)
