import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskemb import nn
from taskemb import similarity as sim
from taskemb.seeding import make_rng

from conftest import (DESK_CONSTRAINTS, BernoulliPopulation, check_truncations,
                      exact_mutual_information)


def _task(i):
    return np.array([float(i)])


class TestBernoulliEntropy:
    def test_degenerate(self):
        assert sim.bernoulli_entropy(0.0) == 0.0
        assert sim.bernoulli_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert sim.bernoulli_entropy(0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_quarter_closed_form(self):
        expect = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert expect == pytest.approx(0.562335, abs=1e-6)
        assert sim.bernoulli_entropy(0.25) == pytest.approx(expect, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sim.bernoulli_entropy(1.2)
        with pytest.raises(ValueError):
            sim.bernoulli_entropy(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounds(self, p):
        h = sim.bernoulli_entropy(p)
        assert 0.0 <= h <= math.log(2.0) + 1e-12


outcome_rows = st.integers(min_value=2, max_value=400).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    )
)


class TestMiEstimator:
    def test_self_information_equals_entropy(self):
        rng = make_rng(1)
        o = (rng.uniform(size=500) < 0.3).astype(np.uint8)
        est = sim.mi_from_outcomes(o, o)
        assert est.value == pytest.approx(sim.bernoulli_entropy(o.mean()), abs=1e-12)

    def test_two_deterministic_agents_give_ln2(self):
        # Agent 1 solves both tasks, agent 2 solves neither: the success
        # indicators are perfectly coupled fair coins, so MI is ln 2.
        popn = BernoulliPopulation([[1.0, 1.0], [0.0, 0.0]])
        est = sim.estimate_mi(_task(0), _task(1), popn, n_samples=10_000,
                              rng=make_rng(2))
        assert est.value == pytest.approx(math.log(2.0), abs=1e-9)
        exact = exact_mutual_information(*popn.joint_distribution(0, 1))
        assert exact == pytest.approx(math.log(2.0), rel=1e-12)

    def test_independent_outcomes_within_jackknife_band(self):
        # One agent with independent fair-coin outcomes per task: true MI 0.
        popn = BernoulliPopulation([[0.5, 0.5]])
        n = 10_000
        rng = make_rng(3)
        table = popn.outcome_table(np.stack([_task(0), _task(1)]), n, rng)
        est = sim.mi_from_outcomes(table[0], table[1])
        sigma = jackknife_sigma(table[0], table[1])
        assert abs(est.value - 0.0) <= 3.0 * sigma + 1e-6

    def test_deterministic_mixtures_match_exact_mi(self):
        rng = make_rng(4)
        cases = [
            [[1, 1], [0, 0], [1, 0]],
            [[1, 0], [0, 1]],
            [[1, 1], [1, 0], [0, 1], [0, 0]],
            [[1, 1], [1, 1], [0, 0], [1, 0]],
        ]
        for probs in cases:
            popn = BernoulliPopulation(np.array(probs, dtype=float))
            exact = exact_mutual_information(*popn.joint_distribution(0, 1))
            est = sim.estimate_mi(_task(0), _task(1), popn, n_samples=10_000, rng=rng)
            assert est.value == pytest.approx(exact, abs=0.02)

    def test_noisy_population_matches_exact_mi(self):
        rng = make_rng(5)
        probs = np.array([[0.9, 0.8], [0.2, 0.3], [0.6, 0.1]])
        popn = BernoulliPopulation(probs)
        exact = exact_mutual_information(*popn.joint_distribution(0, 1))
        est = sim.estimate_mi(_task(0), _task(1), popn, n_samples=30_000, rng=rng)
        assert est.value == pytest.approx(exact, abs=0.02)

    def test_default_sample_budget_is_hundred_per_agent(self):
        popn = BernoulliPopulation([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        est = sim.estimate_mi(_task(0), _task(1), popn, rng=make_rng(6))
        assert est.n_samples == 300

    def test_counts_consistent(self):
        rng = make_rng(7)
        o_i = (rng.uniform(size=1000) < 0.4).astype(np.uint8)
        o_j = (rng.uniform(size=1000) < 0.6).astype(np.uint8)
        est = sim.mi_from_outcomes(o_i, o_j)
        assert est.n_i_j_1 + est.n_i_j_0 == est.n_i
        assert est.n_i_j_1 <= est.n_j
        assert est.n_i_j_0 <= est.n_samples - est.n_j

    @settings(max_examples=200)
    @given(outcome_rows)
    def test_symmetry_and_nonnegativity_on_shared_tables(self, rows):
        o_i = np.array(rows[0], dtype=np.uint8)
        o_j = np.array(rows[1], dtype=np.uint8)
        ij = sim.mi_from_outcomes(o_i, o_j)
        ji = sim.mi_from_outcomes(o_j, o_i)
        assert ij.value == pytest.approx(ji.value, abs=1e-12)
        assert ij.value >= -1e-12

    @settings(max_examples=200)
    @given(outcome_rows)
    def test_bounded_by_min_entropy_and_self_dominates(self, rows):
        o_i = np.array(rows[0], dtype=np.uint8)
        o_j = np.array(rows[1], dtype=np.uint8)
        est = sim.mi_from_outcomes(o_i, o_j)
        h_i = sim.bernoulli_entropy(o_i.mean())
        h_j = sim.bernoulli_entropy(o_j.mean())
        assert est.value <= min(h_i, h_j) + 1e-9
        # Self-MI is the row's entropy, so it dominates MI with anything else.
        assert sim.mi_from_outcomes(o_i, o_i).value >= est.value - 1e-12


def jackknife_sigma(o_i, o_j):
    """Delete-one jackknife standard error of the plug-in MI.

    Removing a sample only changes which joint cell loses a count, so there
    are at most four distinct leave-one-out values.
    """
    o_i = np.asarray(o_i).astype(bool)
    o_j = np.asarray(o_j).astype(bool)
    n = o_i.size
    n11 = int((o_i & o_j).sum())
    n10 = int((o_i & ~o_j).sum())
    n01 = int((~o_i & o_j).sum())
    n00 = n - n11 - n10 - n01
    full_counts = np.array([n11, n10, n01, n00])
    loo_values, weights = [], []
    for cell in range(4):
        if full_counts[cell] == 0:
            continue
        c = full_counts.copy()
        c[cell] -= 1
        n11_, n10_, n01_, n00_ = c
        est = sim.mi_from_counts(n11_ + n10_, n11_ + n01_, n11_, n10_, n - 1)
        loo_values.append(est.value)
        weights.append(full_counts[cell])
    loo_values = np.array(loo_values)
    weights = np.array(weights, dtype=float)
    mean = np.average(loo_values, weights=weights)
    var = (n - 1) / n * np.sum(weights * (loo_values - mean) ** 2)
    return math.sqrt(var)


class TestConstraints:
    def make_population(self):
        # Tasks 0/1 strongly coupled, task 2 independent, task 3 unsolvable,
        # task 4 trivially solved.
        probs = np.array([
            [1.0, 1.0, 0.5, 0.0, 1.0],
            [0.0, 0.0, 0.5, 0.0, 1.0],
            [1.0, 0.9, 0.5, 0.0, 1.0],
            [0.1, 0.0, 0.5, 0.0, 1.0],
        ])
        return BernoulliPopulation(probs)

    def pool(self):
        return np.arange(5, dtype=float)[:, None]

    def test_requested_counts_returned(self):
        [cset] = sim.gen_constraint_splits(self.pool(), self.make_population(), [(40, 30)],
                                           make_rng(10), mi_reps_per_agent=50,
                                           pos_reps_per_agent=10)
        assert len(cset.triplets) == 40
        assert len(cset.pairs) == 30

    def test_labels_antisymmetric_under_swap(self):
        [cset] = sim.gen_constraint_splits(self.pool(), self.make_population(), [(60, 1)],
                                           make_rng(11), mi_reps_per_agent=50)
        for t in cset.triplets:
            if t.est12 != t.est13:
                assert t.label == int(t.est12 > t.est13)
                flipped = sim.TripletConstraint(t.task1, t.task3, t.task2,
                                                int(t.est13 > t.est12),
                                                t.est13, t.est12)
                assert flipped.label == 1 - t.label

    def test_easy_vs_unsolvable_pair_labeled_easy_first(self):
        popn = self.make_population()
        table_rng = make_rng(12)
        pos = popn.outcome_table(self.pool(), 50, table_rng).mean(axis=1)
        # Task 4 solved by everyone, task 3 by no one.
        assert pos[4] > pos[3]
        [cset] = sim.gen_constraint_splits(self.pool(), popn, [(1, 200)], make_rng(13))
        for p in cset.pairs:
            if p.task1 == 4 and p.task2 == 3:
                assert p.label == 1
            if p.task1 == 3 and p.task2 == 4:
                assert p.label == 0

    def test_drop_ties_removes_near_ties(self):
        [cset] = sim.gen_constraint_splits(self.pool(), self.make_population(), [(50, 1)],
                                           make_rng(14), mi_reps_per_agent=50,
                                           drop_ties_eps=0.01)
        for t in cset.triplets:
            assert abs(t.est12 - t.est13) >= 0.01

    def test_csv_roundtrip(self, tmp_path):
        [cset] = sim.gen_constraint_splits(self.pool(), self.make_population(), [(25, 17)],
                                           make_rng(15))
        path = tmp_path / "constraints.csv"
        sim.save_constraints(path, cset)
        back = sim.load_constraints(path, cset.env)
        assert len(back.triplets) == 25 and len(back.pairs) == 17
        for a, b in zip(cset.triplets, back.triplets):
            assert (a.task1, a.task2, a.task3, a.label) == (b.task1, b.task2, b.task3, b.label)
            assert a.est12 == b.est12 and a.est13 == b.est13
        for a, b in zip(cset.pairs, back.pairs):
            assert (a.task1, a.task2, a.label) == (b.task1, b.task2, b.label)
            assert a.pos1 == b.pos1 and a.pos2 == b.pos2

    def test_malformed_rows_name_file_and_line(self, tmp_path):
        lines = (DESK_CONSTRAINTS / "train.csv").read_text().splitlines(keepends=True)[:4]
        path = tmp_path / "train.csv"
        cases = [
            (2, lambda t: t.replace(",0,", ",", 1), "expected 7 fields, got 6"),
            (2, lambda t: t.replace("mi,", "mi,x", 1), "invalid literal for int"),
            (2, lambda t: t.replace(",0.", ",0.x", 1), "could not convert"),
            (2, lambda t: t.replace("mi,", "pair,", 1), "unknown constraint kind 'pair'"),
            (4, lambda t: t[:-1], "line is cut short"),
        ]
        for line, edit, message in cases:
            text = lines[: line - 1] + [edit(lines[line - 1])] + lines[line:]
            path.write_text("".join(text), newline="")
            with pytest.raises(nn.ArtifactFormatError, match=f"train.csv:{line}: {message}"):
                sim.load_constraints(path, "multikeynav")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_truncated_constraints_give_first_rows_or_a_located_error(self, tmp_path, data):
        def load(path):
            cset = sim.load_constraints(path, "multikeynav")
            return [(type(c).__name__, *vars(c).values()) for c in cset.triplets + cset.pairs]

        check_truncations(load, DESK_CONSTRAINTS / "train.csv", tmp_path, data)
