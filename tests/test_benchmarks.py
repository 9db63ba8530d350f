import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskemb import embedding as emb
from taskemb import nn
from taskemb import population as pop
from taskemb import similarity as sim
from taskemb.benchmarks import clusters, prediction, selection
from taskemb.benchmarks import predmodel as pm
from taskemb.envs import get_env, load_tasks, rollout_batch, sample_tasks, save_tasks
from taskemb.envs.core import ExpertPolicy
from taskemb.seeding import make_rng

from conftest import cut_lengths

DESK_BENCHMARKS = Path(__file__).resolve().parents[1] / "runs/multikeynav-desk/benchmarks"
DESK_POPULATION = DESK_BENCHMARKS.parent / "population"
RUNS = DESK_BENCHMARKS.parents[1]


def brute_force_silhouette(points, labels):
    n = len(points)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in own])
        b = np.inf
        for lab in set(labels) - {labels[i]}:
            other = [j for j in range(n) if labels[j] == lab]
            b = min(b, np.mean([np.linalg.norm(points[i] - points[j]) for j in other]))
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores))


class TestSilhouette:
    def test_well_separated_clouds(self):
        rng = make_rng(1)
        a = rng.normal(size=(40, 3)) * 0.1
        b = rng.normal(size=(40, 3)) * 0.1 + 10.0
        points = np.concatenate([a, b])
        labels = np.array([0] * 40 + [1] * 40)
        assert clusters.silhouette(points, labels) > 0.8

    def test_random_labels_near_zero(self):
        rng = make_rng(2)
        points = rng.normal(size=(300, 4))
        labels = rng.integers(0, 3, size=300)
        assert abs(clusters.silhouette(points, labels)) < 0.05

    def test_singleton_clusters_contribute_zero(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        labels = np.array([0, 1, 2])
        assert clusters.silhouette(points, labels) == 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            clusters.silhouette(np.zeros((5, 2)), np.zeros(5))

    def test_matches_brute_force(self):
        rng = make_rng(3)
        for n, k in [(30, 2), (80, 4), (150, 3)]:
            points = rng.normal(size=(n, 3))
            labels = rng.integers(0, k, size=n)
            fast = clusters.silhouette(points, labels)
            slow = brute_force_silhouette(points, labels)
            assert fast == pytest.approx(slow, abs=1e-12)


class TestClusterLabels:
    def test_multikeynav_required_minus_possessed(self):
        # door type 1 needs A+B; agent holds A -> still needs B (bit value 4)
        state = np.array([0.2, 1, 0, 0, 0, 0, 0], dtype=float)
        assert get_env("multikeynav").cluster_labels(state[None])[0] == 4
        # holds both -> needs nothing
        state2 = np.array([0.2, 1, 1, 0, 0, 0, 0], dtype=float)
        assert get_env("multikeynav").cluster_labels(state2[None])[0] == 0

    def test_multikeynav_total_over_samples(self):
        states = sample_tasks("multikeynav", 500, make_rng(4))
        labels = get_env("multikeynav").cluster_labels(states)
        assert labels.shape == (500,)
        assert np.all((labels >= 0) & (labels < 16))

    def test_cartpole_two_classes(self):
        states = sample_tasks("cartpolevar", 200, make_rng(5))
        labels = get_env("cartpolevar").cluster_labels(states)
        assert set(np.unique(labels)) == {-1, 1}

    def test_pointmass_three_classes(self):
        states = sample_tasks("pointmass", 500, make_rng(6))
        labels = get_env("pointmass").cluster_labels(states)
        assert set(np.unique(labels)) <= {0, 1, 2}


class TestQuizDataset:
    def test_sizes_and_counts(self, tiny_population):
        ds = prediction.gen_quiz_dataset("multikeynav", tiny_population, 3, 40,
                                         make_rng(10))
        assert len(ds) == 40
        for ex in ds:
            assert ex.quiz_states.shape == (3, 7)
            assert ex.quiz_outcomes.shape == (3,)
            assert ex.test_outcome in (0, 1)
            assert 0 <= ex.agent_index < len(tiny_population)

    def test_quiz_size_one(self, tiny_population):
        ds = prediction.gen_quiz_dataset("multikeynav", tiny_population, 1, 10,
                                         make_rng(11))
        assert all(ex.quiz_states.shape[0] == 1 for ex in ds)

    def test_same_seed_identical(self, tiny_population):
        d1 = prediction.gen_quiz_dataset("multikeynav", tiny_population, 2, 15,
                                         make_rng(12))
        d2 = prediction.gen_quiz_dataset("multikeynav", tiny_population, 2, 15,
                                         make_rng(12))
        for a, b in zip(d1, d2):
            assert np.array_equal(a.quiz_states, b.quiz_states)
            assert np.array_equal(a.quiz_outcomes, b.quiz_outcomes)
            assert a.test_outcome == b.test_outcome
            assert a.agent_index == b.agent_index

    def test_csv_roundtrip(self, tiny_population, tmp_path):
        ds = prediction.gen_quiz_dataset("multikeynav", tiny_population, 4, 12,
                                         make_rng(13))
        path = tmp_path / "quiz.csv"
        prediction.save_quiz_dataset(path, "multikeynav", ds)
        back = prediction.load_quiz_dataset(path)
        assert len(back) == 12
        for a, b in zip(ds, back):
            assert np.array_equal(a.quiz_states, b.quiz_states)
            assert np.array_equal(a.quiz_outcomes, b.quiz_outcomes)
            assert np.array_equal(a.test_state, b.test_state)
            assert (a.test_outcome, a.agent_index) == (b.test_outcome, b.agent_index)


def _quiz_set(quiz_states, quiz_outcomes, test_state, test_outcome, agent_index):
    """A QuizSet of the given fields, each with a leading example axis."""
    return prediction.QuizSet(np.asarray(quiz_states, dtype=float),
                              np.asarray(quiz_outcomes, dtype=np.uint8),
                              np.asarray(test_state, dtype=float),
                              np.asarray(test_outcome, dtype=np.uint8),
                              np.asarray(agent_index, dtype=np.int64))


def _example(quiz_states, quiz_outcomes, test_state, test_outcome=0):
    """A QuizSet of one example, by agent 0."""
    return _quiz_set([quiz_states], [quiz_outcomes], [test_state], [test_outcome], [0])


def _softnn_reference(model, ex, beta):
    """One example's soft-NN score, its quiz and test state embedded in separate calls."""
    d2 = np.sum((model.embed(ex.quiz_states) - model.embed(ex.test_state[None])) ** 2, axis=1)
    w = np.exp(-beta * (d2 - d2.min()))
    return np.sum(ex.quiz_outcomes * w) / np.sum(w)


class TestSoftNn:
    def model(self):
        return emb.fresh_embedding_net("multikeynav", 4, make_rng(20))

    def states(self, n):
        return sample_tasks("multikeynav", n, make_rng(21))

    def test_single_quiz_task_copies_outcome(self):
        s = self.states(2)
        ex = _example(s[:1], [1], s[1])
        assert prediction.predict_softnn(self.model(), ex[0], beta=1000.0) == 1
        ex0 = _example(s[:1], [0], s[1])
        assert prediction.predict_softnn(self.model(), ex0[0], beta=1000.0) == 0

    def test_exact_match_dominates_at_large_beta(self):
        s = self.states(4)
        quiz = np.concatenate([s[:3], s[3:4]])
        ex = _example(quiz, [1, 1, 1, 0], s[3])
        assert prediction.predict_softnn(self.model(), ex[0], beta=1e6) == 0

    def test_constant_outcomes_returned_regardless_of_distance(self):
        s = self.states(6)
        for o in (0, 1):
            ex = _example(s[:5], [o] * 5, s[5])
            assert prediction.predict_softnn(self.model(), ex[0], beta=17.0) == o

    def test_quiz_order_invariance(self):
        s = self.states(6)
        outcomes = [1, 0, 1, 0, 1]
        ex = _example(s[:5], outcomes, s[5])
        base = prediction.softnn_scores(self.model(), ex, [100.0])
        perm = [3, 1, 4, 0, 2]
        ex_p = _example(s[perm], [outcomes[i] for i in perm], s[5])
        assert prediction.softnn_scores(self.model(), ex_p, [100.0]) == pytest.approx(
            base, rel=1e-12)

    def test_huge_beta_numerically_safe(self):
        s = self.states(4)
        ex = _example(s[:3], [1, 0, 1], s[3])
        assert np.isfinite(prediction.softnn_scores(self.model(), ex, [1e8])).all()

    def test_beta_must_be_positive(self):
        s = self.states(2)
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError, match="beta must be positive"):
                prediction.softnn_scores(self.model(), _example(s[:1], [1], s[1]), [1.0, beta])

    def test_blocks_predict_as_one_example_at_a_time(self):
        # More examples than one block, the last block partial: one embed call per
        # block, and every beta's predictions match the per-example reference.
        n, k = 2 * prediction.SOFTNN_BLOCK + 37, 5
        s = self.states(n * (k + 1)).reshape(n, k + 1, -1)
        outcomes = make_rng(22).integers(0, 2, size=(n, k + 1))
        examples = _quiz_set(s[:, :-1], outcomes[:, :-1], s[:, -1], outcomes[:, -1], np.zeros(n))
        model, calls = self.model(), []
        embed = model.embed

        def counting_embed(states):
            calls.append(len(states))
            return embed(states)

        model.embed = counting_embed
        scores = prediction.softnn_scores(model, examples, prediction.BETA_GRID)
        assert calls == [prediction.SOFTNN_BLOCK * (k + 1)] * 2 + [37 * (k + 1)]
        alone = np.array([[_softnn_reference(model, ex, beta) for ex in examples]
                          for beta in prediction.BETA_GRID])
        assert np.array_equal(scores > 0.5, alone > 0.5)
        assert scores == pytest.approx(alone, abs=1e-9)


class TestBaselines:
    def test_random_near_half(self, tiny_population):
        examples = [None] * 5000  # random baseline never touches the example
        preds = prediction.baseline_predictions("random", examples, tiny_population,
                                                make_rng(30))
        assert abs(preds.mean() - 0.5) < 0.02

    def test_ignore_agent_constant_for_shared_test_task(self, tiny_population):
        s = sample_tasks("multikeynav", 3, make_rng(31))
        examples = _quiz_set([s[:1], s[1:2]], [[1], [0]], [s[2], s[2]], [1, 0], [0, 5])
        p = prediction.baseline_predictions("ignore_agent", examples,
                                            tiny_population, make_rng(32))
        assert p[0] == p[1]

    def test_opt_tracks_near_deterministic_agent(self, tiny_population):
        # Sharpen the best unmasked agent so its behavior is almost
        # deterministic; OPT should then match outcomes up to failure-lottery
        # noise.
        best_idx = max(
            (k for k, s in enumerate(tiny_population.snapshots) if s.mask == "none"),
            key=lambda k: tiny_population.snapshots[k].validation_score,
        )
        policy = tiny_population.policy(best_idx)
        policy.net.layers[-1].weights *= 8.0
        policy.net.layers[-1].biases *= 8.0
        sharp = pop.Population("multikeynav", [
            pop.AgentSnapshot(policy.to_flat(), "bc", "none", "none", 0, 1.0)
        ])
        ds = prediction.gen_quiz_dataset("multikeynav", sharp, 1, 300, make_rng(33))
        preds = prediction.baseline_predictions("opt", ds, sharp, make_rng(34))
        outcomes = np.array([ex.test_outcome for ex in ds])
        assert (preds == outcomes).mean() >= 0.85

    def test_ignore_task_thresholds_the_hidden_agents_rate_on_random_tasks(self):
        # Each prediction is whether the hidden agent solves more than half of fresh random
        # tasks, whatever the test task; checked on desk agents whose rate is far from 0.5.
        popn = pop.load_population(DESK_POPULATION)
        rng = make_rng(35)
        tasks = sample_tasks("multikeynav", 2000, rng)
        rates = np.array([rollout_batch("multikeynav", tasks, popn.policy(a), rng)[0].mean()
                          for a in range(len(popn))])
        agents = np.repeat(np.flatnonzero(np.abs(rates - 0.5) > 0.3), 2)
        assert rates[agents].min() < 0.2 and rates[agents].max() > 0.8
        tests = sample_tasks("multikeynav", agents.size, make_rng(36))
        examples = _quiz_set(np.repeat(tasks[None, :1], agents.size, axis=0),
                             np.ones((agents.size, 1)), tests, np.ones(agents.size), agents)
        preds = prediction.baseline_predictions("ignore_task", examples, popn, make_rng(37))
        assert preds.tolist() == (rates[agents] > 0.5).tolist()

    def test_unknown_baseline_rejected(self, tiny_population):
        with pytest.raises(ValueError):
            prediction.baseline_predictions("psychic", _quiz_set(
                np.zeros((0, 1, 7)), np.zeros((0, 1)), np.zeros((0, 7)), [], []),
                tiny_population, make_rng(0))


class TestEvalPrediction:
    def test_constant_predictor_on_balanced_data(self):
        outcomes = np.array([0, 1] * 500)
        preds = np.ones(1000, dtype=np.uint8)
        mean, stderr, folds = prediction.eval_prediction(preds, outcomes, make_rng(40))
        assert mean == pytest.approx(0.5, abs=0.05)
        assert len(folds) == 10

    def test_perfect_predictor(self):
        outcomes = (np.arange(40) % 2).astype(np.uint8)
        mean, stderr, _ = prediction.eval_prediction(outcomes.copy(), outcomes,
                                                     make_rng(41))
        assert mean == 1.0
        assert stderr == 0.0

    def test_fold_assignment_deterministic(self):
        rng_out = make_rng(42)
        preds = (rng_out.uniform(size=200) < 0.5).astype(np.uint8)
        outcomes = (rng_out.uniform(size=200) < 0.5).astype(np.uint8)
        a = prediction.eval_prediction(preds, outcomes, make_rng(43))
        b = prediction.eval_prediction(preds, outcomes, make_rng(43))
        assert a[0] == b[0] and np.array_equal(a[2], b[2])

    def test_truncates_to_fold_multiple(self):
        preds = np.zeros(27, dtype=np.uint8)
        outcomes = np.zeros(27, dtype=np.uint8)
        mean, _, folds = prediction.eval_prediction(preds, outcomes, make_rng(44))
        assert len(folds) == 10
        assert mean == 1.0


@pytest.fixture(scope="module")
def selection_dataset(tiny_population):
    return selection.gen_selection_dataset(
        "multikeynav", tiny_population, 16, make_rng(50),
        mi_reps_per_agent=40, pos_reps_per_agent=10, easy_pool_size=120)


class TestSelectionDataset:
    def test_shapes_and_types(self, selection_dataset):
        assert len(selection_dataset) == 16
        for i, ex in enumerate(selection_dataset):
            assert ex.option_states.shape == (10, 7)
            assert ex.easy_refs.shape == (5, 7)
            assert ex.query_type == (1 if i % 2 == 0 else 2)
            assert 0 <= ex.ground_truth < 10

    def test_type2_ground_truth_strictly_harder(self, selection_dataset):
        for ex in selection_dataset:
            if ex.query_type == 2:
                assert ex.pos_options[ex.ground_truth] < ex.pos_ref

    def test_ground_truth_maximizes_estimates(self, selection_dataset):
        for ex in selection_dataset:
            if ex.query_type == 1:
                assert ex.ground_truth == int(np.argmax(ex.gt_sims))
            else:
                harder = ex.pos_options < ex.pos_ref
                masked = np.where(harder, ex.gt_sims, -np.inf)
                assert ex.ground_truth == int(np.argmax(masked))

    def test_easy_refs_are_actually_easy(self, selection_dataset, tiny_population):
        from taskemb.population import success_rates
        easy_pos = success_rates(tiny_population, selection_dataset[0].easy_refs,
                                 50, make_rng(51))
        fresh = sample_tasks("multikeynav", 100, make_rng(52))
        fresh_pos = success_rates(tiny_population, fresh, 50, make_rng(53))
        assert easy_pos.mean() >= np.quantile(fresh_pos, 0.8)

    def test_csv_roundtrip(self, selection_dataset, tmp_path):
        path = tmp_path / "sel.csv"
        selection.save_selection_dataset(path, "multikeynav", selection_dataset)
        back = selection.load_selection_dataset(path)
        assert len(back) == len(selection_dataset)
        for a, b in zip(selection_dataset, back):
            assert np.array_equal(a.ref_state, b.ref_state)
            assert np.array_equal(a.option_states, b.option_states)
            assert a.ground_truth == b.ground_truth
            assert a.query_type == b.query_type
            assert np.array_equal(a.gt_sims, b.gt_sims)


def oracle_rank(ex):
    """Ranking from the construction-time estimates themselves (the noise-free oracle)."""
    harder = (ex.query_type == 2) & (ex.pos_options < ex.pos_ref)
    rankings, boundaries = selection._rank(ex.gt_sims[None], harder[None])
    return rankings[0], int(boundaries[0])


class TestSelect:
    def resources(self, tiny_population):
        return selection.SelectionResources(
            env="multikeynav",
            model=emb.fresh_embedding_net("multikeynav", 4, make_rng(60)),
            model_wonorm=emb.fresh_embedding_net("multikeynav", 4, make_rng(61)),
            population=tiny_population,
            population_half=tiny_population.subset(range(0, len(tiny_population), 2)),
            mi_reps_per_agent=20,
            pos_reps_per_agent=5,
        )

    def test_random_topk_rates(self, selection_dataset, tiny_population):
        res = self.resources(tiny_population)
        rng = make_rng(62)
        hits1, hits3, trials = 0, 0, 0
        for _ in range(200):
            for ex in selection_dataset:
                rank, _ = selection.select("random", ex, res, rng)
                hits1 += rank[0] == ex.ground_truth
                hits3 += ex.ground_truth in rank[:3]
                trials += 1
        assert hits1 / trials == pytest.approx(0.1, abs=0.02)
        assert hits3 / trials == pytest.approx(0.3, abs=0.03)

    def test_every_method_returns_permutation(self, selection_dataset, tiny_population):
        res = self.resources(tiny_population)
        rng = make_rng(63)
        for method in ("ours", "ours_wonorm", "random", "state_sim",
                       "trajectory_sim", "opt", "opt50"):
            for ex in selection_dataset[:4]:
                rank, boundary = selection.select(method, ex, res, rng)
                assert sorted(rank) == list(range(10))
                assert 0 <= boundary <= 10

    @pytest.mark.parametrize("method", selection.METHODS)
    def test_select_per_example_equals_rank_options(self, selection_dataset, tiny_population,
                                                    method):
        res = self.resources(tiny_population)
        res.predmodel = pm.fresh_predmodel("multikeynav", pm.PredModelConfig(hidden=(16, 16)),
                                           make_rng(67))
        rng = make_rng(66)
        one_by_one = [selection.select(method, ex, res, rng) for ex in selection_dataset]
        rankings, boundaries = selection.rank_options(method, selection_dataset, res,
                                                      make_rng(66))
        assert rankings.shape == (len(selection_dataset), selection.N_OPTIONS)
        for (rank, boundary), row, b in zip(one_by_one, rankings, boundaries):
            assert rank.tolist() == row.tolist() and boundary == b

    @pytest.mark.parametrize("env", ["multikeynav", "cartpolevar", "pointmass"])
    def test_expert_symbols_are_those_of_solo_rollouts(self, env):
        # One lockstep call covers the distinct tasks; a repeated task reuses its rollout.
        ops = get_env(env)
        batch = sample_tasks(env, 4, make_rng(68))[[0, 1, 0, 2, 3, 1]]
        symbols = selection._expert_symbols(env, batch)
        assert len(symbols) == len(batch)
        for state, got in zip(batch, symbols):
            rng = make_rng(selection.TRAJECTORY_SEED, selection._task_digest(state))
            _, _, steps = rollout_batch(env, state[None, :], ExpertPolicy(), rng, record=True)
            assert np.array_equal(got, ops.action_symbols(steps.actions))

    def test_estimate_oracle_reproduces_ground_truth(self, selection_dataset):
        for ex in selection_dataset:
            rank, _ = oracle_rank(ex)
            assert rank[0] == ex.ground_truth

    def test_type2_filter_soundness_ours(self, selection_dataset, tiny_population):
        res = self.resources(tiny_population)
        model = res.model
        for ex in selection_dataset:
            if ex.query_type != 2:
                continue
            rank, boundary = selection.select("ours", ex, res, make_rng(64))
            e_ref = model.embed(ex.ref_state[None])
            e_opt = model.embed(ex.option_states)
            for pos in range(boundary):
                assert np.linalg.norm(e_opt[rank[pos]]) > np.linalg.norm(e_ref)

    def test_rankings_invariant_to_monotone_transform(self, selection_dataset):
        for ex in selection_dataset:
            base, b0 = oracle_rank(ex)
            scaled = dataclasses.replace(ex, gt_sims=2.0 * ex.gt_sims + 1.0)
            moved, b1 = oracle_rank(scaled)
            assert np.array_equal(base, moved)
            assert b0 == b1

    def test_topk_accuracy_helper(self):
        ranks = [np.array([3, 1, 2, 0]), np.array([0, 1, 2, 3])]
        assert selection.topk_accuracy(ranks, [3, 2], 1) == 0.5
        assert selection.topk_accuracy(ranks, [3, 2], 3) == 1.0

    def test_missing_resource_rejected(self, selection_dataset):
        res = selection.SelectionResources(env="multikeynav")
        with pytest.raises(ValueError):
            selection.select("ours", selection_dataset[0], res, make_rng(65))


def _quiz_rows(examples):
    return [(e.quiz_states.tolist(), e.quiz_outcomes.tolist(), e.test_state.tolist(),
             e.test_outcome, e.agent_index) for e in examples]


def _selection_rows(examples):
    return [(e.ref_state.tolist(), e.option_states.tolist(), e.easy_refs.tolist(),
             e.query_type, e.ground_truth, e.gt_sims.tolist(), e.pos_ref,
             e.pos_options.tolist()) for e in examples]


def _desk_lines(name, n_lines):
    """The first n_lines lines of a committed desk benchmark CSV."""
    with open(DESK_BENCHMARKS / name, encoding="utf-8") as fp:
        return [next(fp) for _ in range(n_lines)]


def _with_field(line, k, value):
    """A CSV line with its field k replaced by value."""
    fields = line.split(",")
    return ",".join([*fields[:k], value, *fields[k + 1:]])


def _role(line):
    return (line.split(",") + [""])[1]  # "" for a line cut before its role


HYPOTHESIS_FILES = settings(max_examples=100, deadline=None,
                            suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBenchmarkFileErrors:
    """Cut or malformed quiz and selection CSVs load a complete prefix or name a line."""

    QUIZ = "".join(_desk_lines("quiz_size_5_test.csv", 1 + 6 * 3))       # 3 examples
    SELECTION = "".join(_desk_lines("selection_0.csv", 1 + 16 * 3))      # 3 examples

    @HYPOTHESIS_FILES
    @given(st.data())
    def test_truncated_quiz_gives_first_examples_or_a_located_error(self, tmp_path, data):
        # The first 200 examples (header + 6 rows each) of a committed quiz file.
        full = "".join(_desk_lines("quiz_size_5_test.csv", 1 + 6 * 200)).encode()
        (tmp_path / "full.csv").write_bytes(full)
        expected = _quiz_rows(prediction.load_quiz_dataset(tmp_path / "full.csv"))
        cut = full[:data.draw(cut_lengths(full), label="length")]
        path = tmp_path / "quiz.csv"
        path.write_bytes(cut)
        lines = cut.decode().splitlines()
        if cut.endswith(b"\n") and len(lines) > 1 and _role(lines[-1]) == "test":
            n = sum(_role(line) == "test" for line in lines[1:])
            assert _quiz_rows(prediction.load_quiz_dataset(path)) == expected[:n]
        else:
            with pytest.raises(nn.ArtifactFormatError, match=r"quiz\.csv:\d+: "):
                prediction.load_quiz_dataset(path)

    @HYPOTHESIS_FILES
    @given(st.data())
    def test_truncated_selection_gives_first_examples_or_a_located_error(self, tmp_path, data):
        full_path = DESK_BENCHMARKS / "selection_0.csv"
        full = full_path.read_bytes()
        full_lines = full.decode().splitlines()
        expected = _selection_rows(selection.load_selection_dataset(full_path))
        cut = full[:data.draw(cut_lengths(full), label="length")]
        path = tmp_path / "sel.csv"
        path.write_bytes(cut)
        lines = cut.decode().splitlines()
        n = sum(_role(line) == "ref" for line in lines[1:])
        at_boundary = len(lines) == len(full_lines) or _role(full_lines[len(lines)]) == "ref"
        if cut.endswith(b"\n") and n and at_boundary:
            assert _selection_rows(selection.load_selection_dataset(path)) == expected[:n]
        else:
            with pytest.raises(nn.ArtifactFormatError, match=r"sel\.csv:\d+: "):
                selection.load_selection_dataset(path)

    @pytest.mark.parametrize("edit, line", [
        (lambda ls: ls[:2] + [ls[2].replace(",quiz,", ",hint,")] + ls[3:], 3),
        (lambda ls: ls[:6] + ls[7:], 7),
        (lambda ls: ls[:-1], 19),
        (lambda ls: ls[:3] + [ls[3].rsplit(",", 1)[0] + ",x\n"] + ls[4:], 4),
        (lambda ls: ls[:1], 2),
        (lambda ls: ls[:1] + [ls[1].replace(",quiz,1,", ",quiz,5,", 1)] + ls[2:], 2),
        (lambda ls: ls[:7] + ls[8:], 12),
        (lambda ls: ls[:3] + [ls[3].rsplit(",", 1)[0] + ",nan\n"] + ls[4:], 4),
        (lambda ls: ls[:12] + [ls[12].rsplit(",", 1)[0] + ",inf\n"] + ls[13:], 13),
        (lambda ls: ls[:8] + [_with_field(ls[8], 4, "7.5")] + ls[9:], 9),
        (lambda ls: ls[:4] + ["\r\n"] + ls[4:], 5),
        (lambda ls: ls[:4] + ["#" + ls[4]] + ls[5:], 5),
        (lambda ls: ls[:7] + [_with_field(ls[7], 0, "1.0")] + ls[8:], 8),
        (lambda ls: ls[:4] + ["\r\n"] + ls[4:-1] + [ls[-1].rstrip("\r\n")], 5),
        (lambda ls: ls[:1] + [_with_field(ls[1], 3, "7")] + ls[2:], 2),
        (lambda ls: ls[:1] + [_with_field(line, 3, str(2**53 + 1)) for line in ls[1:7]], 2),
    ], ids=["unknown-role", "example-0-without-test-row", "last-example-without-test-row",
            "bad-float", "no-examples", "outcome-not-0-or-1", "example-1-with-another-quiz-size",
            "nan-state", "inf-in-a-test-row", "location-outside-0-1", "blank-line",
            "commented-line", "example-index-written-as-a-float",
            "blank-line-and-no-final-newline", "quiz-row-names-another-agent",
            "agent-index-beyond-2**53"])
    def test_malformed_quiz_names_file_and_line(self, tmp_path, edit, line):
        path = tmp_path / "quiz.csv"
        path.write_text("".join(edit(self.QUIZ.splitlines(keepends=True))))
        with pytest.raises(nn.ArtifactFormatError, match=re.escape(f"{path}:{line}:")):
            prediction.load_quiz_dataset(path)

    @pytest.mark.parametrize("edit, line", [
        (lambda ls: ls[:1] + ls[2:], 2),
        (lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:], 3),
        (lambda ls: ls[:32] + ls[33:], 33),
        (lambda ls: ls[:5] + [ls[5].replace(",option_3,", ",hint,")] + ls[6:], 6),
        (lambda ls: ls[:1] + ["0,ref,1,10," + ls[1].split(",", 4)[4]] + ls[2:], 2),
        (lambda ls: ls[:1], 2),
        (lambda ls: ls[:15], 16),
        (lambda ls: ls[:1] + [ls[1].replace(",ref,1,", ",ref,3,", 1)] + ls[2:], 2),
        (lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0] + ",nan\n"] + ls[5:], 5),
        (lambda ls: ls[:20] + [ls[20].rsplit(",", 1)[0] + ",-inf\n"] + ls[21:], 21),
        (lambda ls: ls[:25] + [_with_field(ls[25], 6, "7.5")] + ls[26:], 26),
    ], ids=["example-0-without-ref", "options-misordered", "one-easy-row-short",
            "unknown-role", "ground-truth-beyond-options", "no-examples",
            "only-example-cut-in-its-easy-rows", "query-type-not-1-or-2", "nan-state",
            "inf-state-in-example-1", "location-outside-0-1"])
    def test_malformed_selection_names_file_and_line(self, tmp_path, edit, line):
        path = tmp_path / "sel.csv"
        path.write_text("".join(edit(self.SELECTION.splitlines(keepends=True))))
        with pytest.raises(nn.ArtifactFormatError, match=re.escape(f"{path}:{line}:")):
            selection.load_selection_dataset(path)

    @pytest.mark.parametrize("text, load", [
        (QUIZ, prediction.load_quiz_dataset),
        (SELECTION, selection.load_selection_dataset),
    ], ids=["quiz", "selection"])
    @pytest.mark.parametrize("edit", [
        lambda ls: [line.rstrip("\r\n").rsplit(",", 1)[0] + "\r\n" for line in ls],
        lambda ls: [ls[0].replace(",doorBit2", ",doorBit3")] + ls[1:],
    ], ids=["last-state-column-cut-from-every-line", "unknown-state-field"])
    def test_state_columns_of_no_env_are_a_header_error(self, tmp_path, text, load, edit):
        path = tmp_path / "data.csv"
        path.write_text("".join(edit(text.splitlines(keepends=True))), newline="")
        with pytest.raises(nn.ArtifactFormatError,
                           match=re.escape(f"{path}:1: state columns [")):
            load(path)


SPECIAL_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


def _independent_rows(path):
    """The rows after a CSV artifact's header, as the csv module splits them."""
    with open(path, newline="", encoding="utf-8") as fp:
        _, *rows = csv.reader(fp)
    return rows


class TestTableReader:
    """Quiz, task, constraint and selection files go through nn.read_table, one np.loadtxt
    parse per file."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
    def test_finite_doubles_round_trip_bit_for_bit(self, tmp_path, drawn):
        # pointmass bounds neither velocity, so any finite double is a valid vx or vy.
        values = np.array(SPECIAL_DOUBLES + drawn)
        n_rows = 2 * -(-values.size // 4)  # an even count of rows with two values each
        states = sample_tasks("pointmass", n_rows, make_rng(70))
        states[:, [1, 3]] = np.resize(values, (n_rows, 2))
        path = save_tasks(tmp_path / "tasks.csv", "pointmass", states)
        assert load_tasks(path)[1].tobytes() == states.tobytes()
        pairs = states.reshape(-1, 2, states.shape[1])
        i = np.arange(len(pairs))
        quiz = _quiz_set(pairs[:, :1], (i % 2)[:, None], pairs[:, 1], 1 - i % 2, i)
        path = prediction.save_quiz_dataset(tmp_path / "quiz.csv", "pointmass", quiz)
        back = prediction.load_quiz_dataset(path)
        assert np.concatenate([np.vstack([ex.quiz_states, ex.test_state])
                               for ex in back]).tobytes() == states.tobytes()
        assert _quiz_rows(back) == _quiz_rows(quiz)

    @pytest.mark.parametrize("path", [
        *(DESK_BENCHMARKS / f"quiz_size_{k}_{split}.csv"
          for k in (1, 20) for split in ("train", "test")),
        RUNS / "multikeynav-bias-desk/benchmarks/quiz_size_20_test_transfer.csv",
    ], ids=lambda p: f"{p.parents[1].name}/{p.name}")
    def test_committed_quiz_loads_as_the_csv_module_reads_it(self, path):
        rows = _independent_rows(path)
        examples = prediction.load_quiz_dataset(path)
        states = np.concatenate([np.vstack([ex.quiz_states, ex.test_state])
                                 for ex in examples])
        assert states.tobytes() == np.array([[float(v) for v in row[4:]]
                                             for row in rows]).tobytes()
        outcomes = [int(o) for ex in examples for o in [*ex.quiz_outcomes, ex.test_outcome]]
        assert outcomes == [int(row[2]) for row in rows]
        assert [ex.agent_index for ex in examples] == [int(row[3]) for row in rows
                                                       if row[1] == "test"]
        base = examples.quiz_states.base  # the record's state fields are views of one array
        assert base is not None and examples.test_state.base is base

    @pytest.mark.parametrize("path", sorted(RUNS.glob("*/constraints/pool.csv")),
                             ids=lambda p: p.parents[1].name)
    def test_committed_pool_loads_as_the_csv_module_reads_it(self, path):
        rows = _independent_rows(path)
        env, states = load_tasks(path)
        assert {row[0] for row in rows} == {env}
        assert states.tobytes() == np.array([[float(v) for v in row[1:]]
                                             for row in rows]).tobytes()

    @pytest.mark.parametrize("path", sorted(RUNS.glob("*/constraints/[!p]*.csv")),
                             ids=lambda p: f"{p.parents[1].name}/{p.name}")
    def test_committed_constraints_load_as_the_csv_module_reads_them(self, path):
        rows = _independent_rows(path)
        c = sim.load_constraints(path, "multikeynav")
        for kind, width, tasks, labels, est in (
                ("mi", 3, c.triplets, c.triplet_labels, c.mi),
                ("norm", 2, c.pairs, c.pair_labels, c.pos)):
            kept = [row for row in rows if row[0] == kind]
            assert tasks.tolist() == [[int(v) for v in row[1:1 + width]] for row in kept]
            assert labels.tolist() == [int(row[4]) for row in kept]
            assert est.tobytes() == np.array([[float(v) for v in row[5:]]
                                              for row in kept]).tobytes()
        assert len(c.triplets) + len(c.pairs) == len(rows)
        assert all(row[3] == "" for row in rows if row[0] == "norm")

    @pytest.mark.parametrize("path", [DESK_BENCHMARKS / f"selection_{k}.csv" for k in range(4)],
                             ids=lambda p: p.name)
    def test_committed_selection_loads_as_the_csv_module_reads_it(self, path):
        rows = _independent_rows(path)
        examples = selection.load_selection_dataset(path)
        n_roles = len(selection.ROLES)
        assert len(rows) == n_roles * len(examples)
        states = np.concatenate([np.vstack([ex.ref_state, ex.option_states, ex.easy_refs])
                                 for ex in examples])
        assert states.tobytes() == np.array([[float(v) for v in row[6:]]
                                             for row in rows]).tobytes()
        per_example = [rows[i:i + n_roles] for i in range(0, len(rows), n_roles)]
        assert [(ex.query_type, ex.ground_truth) for ex in examples] == [
            (int(ex_rows[0][2]), int(ex_rows[0][3])) for ex_rows in per_example]
        assert np.array([[ex.pos_ref, *ex.pos_options] for ex in examples]).tobytes() == \
            np.array([[float(row[4]) for row in ex_rows[:1 + selection.N_OPTIONS]]
                      for ex_rows in per_example]).tobytes()
        assert np.array([ex.gt_sims for ex in examples]).tobytes() == \
            np.array([[float(row[5]) for row in ex_rows[1:1 + selection.N_OPTIONS]]
                      for ex_rows in per_example]).tobytes()

    CONSTRAINTS = "".join((DESK_BENCHMARKS.parent / "constraints/train.csv").read_text()
                          .splitlines(keepends=True)[:4])

    @pytest.mark.parametrize("lines, edit, line, load", [
        (TestBenchmarkFileErrors.SELECTION, lambda ls: ls[:3] + [_with_field(ls[3], 4, "")]
         + ls[4:], 4, selection.load_selection_dataset),
        (TestBenchmarkFileErrors.SELECTION, lambda ls: ls[:5] + [_with_field(ls[5], 5, "")]
         + ls[6:], 6, selection.load_selection_dataset),
        (TestBenchmarkFileErrors.SELECTION, lambda ls: ls[:1] + [_with_field(ls[1], 3, "3.0")]
         + ls[2:], 2, selection.load_selection_dataset),
        (TestBenchmarkFileErrors.SELECTION, lambda ls: ls[:2] + [_with_field(ls[2], 5, "x")]
         + ls[3:], 3, selection.load_selection_dataset),
        (TestBenchmarkFileErrors.SELECTION, lambda ls: ls[:1] + [_with_field(ls[1], 3, "")]
         + ls[2:], 2, selection.load_selection_dataset),
        (TestBenchmarkFileErrors.SELECTION, lambda ls: ls[:4] + [_with_field(ls[4], 5, "1_0")]
         + ls[5:], 5, selection.load_selection_dataset),
        (CONSTRAINTS, lambda ls: ls[:2] + [_with_field(ls[2], 3, "")] + ls[3:], 3,
         lambda p: sim.load_constraints(p, "multikeynav")),
        (CONSTRAINTS, lambda ls: ls[:1] + [_with_field(ls[1], 2, str(2**53))]
         + ls[2:], 2, lambda p: sim.load_constraints(p, "multikeynav")),
    ], ids=["blank-pos-on-an-option-row", "blank-similarity-on-an-option-row",
            "ground-truth-written-as-a-float", "word-in-a-column-that-allows-blanks",
            "blank-ground-truth-on-a-ref-row", "python-only-number-in-a-blank-column",
            "blank-task3-on-an-mi-row", "task-index-2**53"])
    def test_malformed_blank_columns_name_their_line(self, tmp_path, lines, edit, line, load):
        path = tmp_path / "data.csv"
        path.write_text("".join(edit(lines.splitlines(keepends=True))), newline="")
        with pytest.raises(nn.ArtifactFormatError, match=re.escape(f"{path}:{line}:")):
            load(path)
