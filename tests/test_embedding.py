import dataclasses
import math
import re

import numpy as np
import pytest

from taskemb import embedding as emb
from taskemb import nn, similarity as sim
from taskemb.benchmarks import predmodel as pm
from taskemb.envs import get_env, sample_tasks
from taskemb.envs.core import EnvError
from taskemb.seeding import make_rng

from test_nn import assert_grads_match, finite_diff_grads


def triplet_loss(e1, e2, e3):
    """Scalar oracle: softplus(<e1,e3> - <e1,e2>), near zero when e2 is the clearly closer partner."""
    return math.log1p(math.exp(float(np.dot(e1, e3) - np.dot(e1, e2))))


def norm_pair_loss(e_easy, e_hard):
    """Scalar oracle: softplus(|e_easy| - |e_hard|), pushing easier tasks toward smaller norms."""
    return math.log1p(math.exp(float(np.linalg.norm(e_easy) - np.linalg.norm(e_hard))))


def batch_of_one(vectors, triplet, pair=None):
    """`_batch_losses` on one triplet (and one pair, weight 1) over fixed embeddings.

    The net is one identity layer whose weight columns are the vectors, fed
    one-hot features, so slot k embeds to vectors[k] exactly and the weight
    gradient's column k is the loss gradient with respect to vectors[k].
    """
    e = np.array(vectors, dtype=np.float64)
    net = nn.Mlp([nn.DenseLayer(e.T.copy(), np.zeros(e.shape[1]), "identity")])
    model = emb.EmbeddingNet("multikeynav", net, e.shape[1])
    idx = [np.array([k], dtype=np.intp) for k in (*triplet, *(pair or (0, 0)))]
    loss, grad = emb._batch_losses(model, np.eye(len(e)), *idx, 1.0 if pair else 0.0,
                                   want_grads=True)
    return loss, net.split(grad)[0].T


class TestLosses:
    """The batched objective at batch size 1 against the scalar oracles above."""

    def test_triplet_equal_products_is_ln2(self):
        e = [[1.0, 0.0], [0.5, 1.0], [0.5, -1.0]]
        assert triplet_loss(*np.array(e)) == pytest.approx(math.log(2.0), rel=1e-12)
        assert batch_of_one(e, (0, 1, 2))[0] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_triplet_large_margin_vanishes(self):
        e = [[1.0, 0.0], [10.0, 0.0], [0.0, 0.0]]
        loss, _ = batch_of_one(e, (0, 1, 2))
        assert loss == pytest.approx(math.exp(-10.0), rel=1e-3)
        assert loss == pytest.approx(4.54e-5, rel=1e-2)
        assert loss == pytest.approx(triplet_loss(*np.array(e)), rel=1e-12)

    def test_triplet_zero_anchor_is_ln2(self):
        rng = make_rng(1)
        for _ in range(5):
            e2, e3 = rng.normal(size=(2, 4))
            loss, _ = batch_of_one([np.zeros(4), e2, e3], (0, 1, 2))
            assert loss == pytest.approx(math.log(2.0))

    def test_pair_equal_norms_is_ln2(self):
        # The triplet's anchor is the zero vector, so it adds exactly ln 2.
        loss, _ = batch_of_one([[3.0, 4.0], [5.0, 0.0], [0.0, 0.0]], (2, 0, 1), (0, 1))
        assert loss - math.log(2.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_pair_large_margin_vanishes(self):
        a, b = np.zeros(2), np.array([10.0, 0.0])
        loss, _ = batch_of_one([a, b, np.zeros(2)], (2, 0, 1), (0, 1))
        assert loss - math.log(2.0) == pytest.approx(math.exp(-10.0), rel=1e-3)
        assert norm_pair_loss(a, b) == pytest.approx(math.exp(-10.0), rel=1e-3)

    def test_triplet_grads_match_finite_differences(self):
        rng = make_rng(2)
        for _ in range(5):
            e1, e2, e3 = rng.normal(size=(3, 5))
            loss, grads = batch_of_one([e1, e2, e3], (0, 1, 2))
            assert loss == pytest.approx(triplet_loss(e1, e2, e3), rel=1e-12)
            h = 1e-6
            for vec, grad in ((e1, grads[0]), (e2, grads[1]), (e3, grads[2])):
                for i in range(5):
                    orig = vec[i]
                    vec[i] = orig + h
                    up = triplet_loss(e1, e2, e3)
                    vec[i] = orig - h
                    down = triplet_loss(e1, e2, e3)
                    vec[i] = orig
                    num = (up - down) / (2 * h)
                    assert num == pytest.approx(grad[i], rel=1e-4, abs=1e-8)

    def test_pair_grads_match_finite_differences(self):
        rng = make_rng(3)
        for _ in range(5):
            a, b = rng.normal(size=(2, 4)) + 0.5
            loss, grads = batch_of_one([a, b, np.zeros(4)], (2, 0, 1), (0, 1))
            assert loss - math.log(2.0) == pytest.approx(norm_pair_loss(a, b), rel=1e-9)
            h = 1e-6
            for vec, grad in ((a, grads[0]), (b, grads[1])):
                for i in range(4):
                    orig = vec[i]
                    vec[i] = orig + h
                    up = norm_pair_loss(a, b)
                    vec[i] = orig - h
                    down = norm_pair_loss(a, b)
                    vec[i] = orig
                    num = (up - down) / (2 * h)
                    assert num == pytest.approx(grad[i], rel=1e-4, abs=1e-8)


def planted_constraints(n_pool, n_tri, n_pair, seed):
    """Constraint sets labeled by a planted 2-d embedding of multikeynav states."""
    rng = make_rng(seed)
    pool = sample_tasks("multikeynav", n_pool, rng)
    teacher = emb.fresh_embedding_net("multikeynav", 2, rng)
    for layer in teacher.net.layers:
        layer.weights *= 2.0  # spread the planted space out
    true = teacher.embed(pool)

    def make(n_t, n_p, draw):
        triplets = draw.integers(0, n_pool, size=(n_t, 3))
        pairs = draw.integers(0, n_pool, size=(n_p, 2))
        sims = np.einsum("kd,kjd->kj", true[triplets[:, 0]], true[triplets[:, 1:]])
        neg_norms = -np.linalg.norm(true[pairs], axis=2)  # the smaller norm is the easier
        return sim.ConstraintSet("multikeynav", triplets, (sims[:, 0] > sims[:, 1]).astype(int),
                                 sims, pairs, (neg_norms[:, 0] > neg_norms[:, 1]).astype(int),
                                 neg_norms)

    draw = make_rng(seed, 1)
    return pool, make(n_tri, n_pair, draw), make(300, 300, draw), make(300, 300, draw)


class TestTraining:
    def test_initial_loss_near_ln2_band(self):
        pool, train, val, test = planted_constraints(200, 800, 800, seed=10)
        model = emb.fresh_embedding_net("multikeynav", 4, make_rng(11))
        lam = 0.4
        loss = emb.constraint_loss(model, pool, train, lam)
        assert loss == pytest.approx(math.log(2.0) * (1 + lam), abs=0.1)

    def test_planted_structure_recovered(self):
        pool, train, val, test = planted_constraints(250, 2500, 2500, seed=12)
        cfg = emb.TrainConfig(dim=2, norm_weight=0.4, epochs=150, patience=30)
        model, log = emb.train_embedding(pool, train, val, test, cfg, make_rng(13))
        sat = emb.triplet_satisfaction(model, pool, test)
        assert sat >= 0.95
        assert log.test_loss < 0.35

    def test_early_stopping_keeps_best(self):
        pool, train, val, test = planted_constraints(150, 600, 600, seed=14)
        cfg = emb.TrainConfig(dim=2, norm_weight=0.4, epochs=40, patience=10)
        init = emb.fresh_embedding_net("multikeynav", 2, make_rng(15).spawn(2)[0])
        init_val = emb.constraint_loss(init, pool, val, cfg.norm_weight)
        model, log = emb.train_embedding(pool, train, val, test, cfg, make_rng(15))
        final_val = emb.constraint_loss(model, pool, val, cfg.norm_weight)
        assert final_val <= init_val
        assert final_val == pytest.approx(min(log.val_loss), rel=1e-9)

    def test_zero_norm_weight_ignores_pairs(self):
        pool, train, val, test = planted_constraints(100, 300, 300, seed=16)
        model = emb.fresh_embedding_net("multikeynav", 3, make_rng(17))
        base = emb.constraint_loss(model, pool, train, 0.0)
        # Flip every pair label: with norm_weight 0 the objective cannot move.
        flipped = dataclasses.replace(train, pair_labels=1 - train.pair_labels,
                                      pos=train.pos[:, ::-1])
        assert emb.constraint_loss(model, pool, flipped, 0.0) == base

    def test_training_deterministic(self):
        pool, train, val, test = planted_constraints(100, 400, 400, seed=18)
        cfg = emb.TrainConfig(dim=2, epochs=15, patience=50)
        m1, _ = emb.train_embedding(pool, train, val, test, cfg, make_rng(19))
        m2, _ = emb.train_embedding(pool, train, val, test, cfg, make_rng(19))
        assert np.array_equal(m1.net.to_flat(), m2.net.to_flat())

    def test_unresolved_dim_rejected(self):
        # A config file's `dim = 0` means the env default, which only the pipeline resolves.
        pool, train, val, test = planted_constraints(40, 60, 60, seed=18)
        with pytest.raises(ValueError, match="embedding dim must be >= 1, got 0"):
            emb.train_embedding(pool, train, val, test, emb.TrainConfig(dim=0), make_rng(19))

    def test_net_gradient_through_losses_matches_finite_differences(self):
        # End-to-end: d(batch objective)/d(net params) via the training path.
        pool, train, _, _ = planted_constraints(60, 80, 80, seed=20)
        from taskemb.envs.core import get_env
        ops = get_env("multikeynav")
        model = emb.fresh_embedding_net("multikeynav", 3, make_rng(21))
        x_feat = ops.featurize(pool)
        t1, sim_idx, dis_idx, easy, hard = emb._oriented(train)

        def loss_fn():
            val, _ = emb._batch_losses(model, x_feat, t1, sim_idx, dis_idx,
                                       easy, hard, 0.4, want_grads=False)
            return val

        _, grad = emb._batch_losses(model, x_feat, t1, sim_idx, dis_idx,
                                    easy, hard, 0.4, want_grads=True)
        numeric = finite_diff_grads(loss_fn, model.net.split(model.net.flat),
                                    coords_per_param=20, rng=make_rng(22))
        assert_grads_match(model.net.split(grad), numeric)


class TestEmbedApi:
    def test_identical_tasks_identical_embeddings(self):
        model = emb.fresh_embedding_net("multikeynav", 5, make_rng(30))
        state = sample_tasks("multikeynav", 1, make_rng(31))
        assert np.array_equal(model.embed(state), model.embed(state.copy()))

    def test_one_task_is_a_batch_of_one_row(self):
        # Nets take (B, d) batches and embeddings (B, state_dim) task batches only; a 1-d
        # input raises, never a row: the net's error at the net, the env's at an embedding.
        states = sample_tasks("multikeynav", 3, make_rng(34))
        model = emb.fresh_embedding_net("multikeynav", 5, make_rng(35))
        nets = pm.fresh_predmodel("multikeynav", pm.PredModelConfig(hidden=(8, 8)),
                                  make_rng(37))
        x = get_env("multikeynav").featurize(states)
        for call, batch, error in (
                (lambda v: nn.mlp_forward(model.net, v), x, nn.LayerShapeError),
                (lambda v: nn.mlp_forward_cached(model.net, v)[0], x, nn.LayerShapeError),
                (model.embed, states, EnvError), (nets.embed, states, EnvError)):
            assert call(batch[:1]).shape[0] == 1
            with pytest.raises(error, match="input shape|batch must have shape"):
                call(batch[0])

    @pytest.mark.parametrize("env", ["multikeynav", "cartpolevar", "pointmass"])
    def test_a_one_dim_task_raises_the_env_error_in_every_env(self, env):
        state = sample_tasks(env, 1, make_rng(38))[0]
        model = emb.fresh_embedding_net(env, 3, make_rng(39))
        nets = pm.fresh_predmodel(env, pm.PredModelConfig(hidden=(8, 8)), make_rng(40))
        for embed in (model.embed, nets.embed):
            with pytest.raises(EnvError, match=re.escape(f"{env}: batch must have shape (B, 7)")):
                embed(state)

    def test_output_length_is_dim(self):
        model = emb.fresh_embedding_net("cartpolevar", 3, make_rng(32))
        states = sample_tasks("cartpolevar", 100, make_rng(33))
        out = model.embed(states)
        assert out.shape == (100, 3)

    def test_model_file_roundtrip(self, tmp_path):
        model = emb.fresh_embedding_net("pointmass", 3, make_rng(36))
        path = tmp_path / "model.txt"
        emb.save_embedding_model(model, path)
        back = emb.load_embedding_model(path)
        assert back.env == "pointmass" and back.dim == 3
        assert np.array_equal(back.net.to_flat(), model.net.to_flat())

    @pytest.mark.parametrize("kind, edit, line_of", [
        ("embedding", lambda t: t[: len(t) // 2], lambda t: t.count("\n") + 1),
        ("embedding", lambda t: t.split("\n", 1)[1], lambda t: 1),
        ("embedding", lambda t: t + "1 2 3\n", lambda t: t.count("\n")),
        ("embedding", lambda t: t.replace('"pointmass"', '"env"', 1), lambda t: 1),
        ("embedding", lambda t: t.replace('"dim": 3', '"dim": 9', 1),
         lambda t: t.splitlines().index("32 3 identity") + 1),
        ("predmodel", lambda t: t.replace('"latent_dim"', '"dim"', 1), lambda t: 1),
        ("predmodel", lambda t: t + "garbage\n", lambda t: t.count("\n")),
        ("predmodel", lambda t: t.replace('"pointmass"', '"env"', 1), lambda t: 1),
        ("predmodel", lambda t: t.replace('"latent_dim": 2', '"latent_dim": 3', 1),
         lambda t: 1),
        ("embedding", lambda t: t.replace('"pointmass"', '"cartpolevar"', 1), lambda t: 3),
        ("embedding", lambda t: t.replace("32 32 relu", "32 32 identity"),
         lambda t: t.splitlines().index("32 32 identity") + 1),
        ("predmodel", lambda t: t.replace('"pointmass"', '"cartpolevar"', 1), lambda t: 1),
    ], ids=["embedding-cut-mid-file", "embedding-header-missing",
            "embedding-trailing-content", "embedding-unknown-env",
            "embedding-dim-not-the-net-output", "predmodel-header-without-latent-dim",
            "predmodel-trailing-content", "predmodel-unknown-env",
            "predmodel-latent-dim-not-the-inference-output",
            "embedding-env-relabeled-to-another-input-width", "embedding-hidden-layer-not-relu",
            "predmodel-env-relabeled-to-another-input-width"])
    def test_malformed_model_file_names_file_and_line(self, tmp_path, kind, edit, line_of):
        path = tmp_path / "model.txt"
        if kind == "embedding":
            emb.save_embedding_model(emb.fresh_embedding_net("pointmass", 3, make_rng(36)),
                                     path)
            load = emb.load_embedding_model
        else:
            cfg = pm.PredModelConfig(latent_dim=2, hidden=(4, 4))
            pm.save_predmodel(pm.fresh_predmodel("pointmass", cfg, make_rng(36)), path)
            load = pm.load_predmodel
        text = edit(path.read_text())
        assert text != path.read_text()
        path.write_text(text)
        with pytest.raises(nn.ArtifactFormatError,
                           match=re.escape(f"{path}:{line_of(text)}:")):
            load(path)

    def test_export_csv(self, tmp_path):
        model = emb.fresh_embedding_net("multikeynav", 4, make_rng(37))
        states = sample_tasks("multikeynav", 10, make_rng(38))
        path = tmp_path / "emb.csv"
        emb.export_embeddings(path, model, states)
        lines = path.read_text().splitlines()
        assert lines[0] == "task_index,e_1,e_2,e_3,e_4,norm"
        assert len(lines) == 11
        first = lines[1].split(",")
        vec = np.array([float(v) for v in first[1:5]])
        assert float(first[5]) == pytest.approx(np.linalg.norm(vec), rel=1e-12)


class TestPca:
    def test_line_has_full_variance_in_one_component(self):
        t = np.linspace(0, 1, 50)[:, None]
        points = t * np.array([1.0, 2.0, -1.0])
        proj, ratios = emb.pca_project(points, 1)
        assert ratios[0] == pytest.approx(1.0, abs=1e-12)
        assert proj.shape == (50, 1)

    def test_isotropic_gaussian_splits_evenly(self):
        rng = make_rng(40)
        points = rng.normal(size=(4000, 2))
        _, ratios = emb.pca_project(points, 2)
        assert ratios[0] == pytest.approx(0.5, abs=0.1)
        assert ratios[1] == pytest.approx(0.5, abs=0.1)

    def test_full_rank_projection_preserves_distances(self):
        rng = make_rng(41)
        points = rng.normal(size=(30, 4))
        proj, _ = emb.pca_project(points, 4)
        d_orig = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
        d_proj = np.linalg.norm(proj[:, None] - proj[None, :], axis=-1)
        assert np.allclose(d_orig, d_proj, atol=1e-9)

    def test_degenerate_points_warn(self):
        points = np.ones((5, 3))
        with pytest.warns(UserWarning, match="zero variance"):
            proj, ratios = emb.pca_project(points, 2)
        assert np.allclose(proj, 0.0)
        assert np.all(ratios == 0.0)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            emb.pca_project(np.zeros((5, 2)), 3)
