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


def _tasks(*ids):
    """A batch of one-element Bernoulli tasks, one row per task id."""
    return np.array(ids, dtype=np.float64)[:, None]


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
        est = sim.mutual_information(o, o)
        assert est == pytest.approx(sim.bernoulli_entropy(o.mean()), abs=1e-12)

    def test_two_deterministic_agents_give_ln2(self):
        # Agent 1 solves both tasks, agent 2 solves neither: the success
        # indicators are perfectly coupled fair coins, so MI is ln 2.
        popn = BernoulliPopulation([[1.0, 1.0], [0.0, 0.0]])
        est = sim.mutual_information(*popn.outcome_table(_tasks(0, 1), 5000, make_rng(2)))
        assert est == pytest.approx(math.log(2.0), abs=1e-9)
        exact = exact_mutual_information(*popn.joint_distribution(0, 1))
        assert exact == pytest.approx(math.log(2.0), rel=1e-12)

    def test_independent_outcomes_within_jackknife_band(self):
        # One agent with independent fair-coin outcomes per task: true MI 0.
        popn = BernoulliPopulation([[0.5, 0.5]])
        n = 10_000
        rng = make_rng(3)
        table = popn.outcome_table(_tasks(0, 1), n, rng)
        est = sim.mutual_information(table[0], table[1])
        sigma = jackknife_sigma(table[0], table[1])
        assert abs(est - 0.0) <= 3.0 * sigma + 1e-6

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
            est = sim.mutual_information(*popn.outcome_table(_tasks(0, 1), 10_000 // len(probs),
                                                             rng))
            assert est == pytest.approx(exact, abs=0.02)

    def test_noisy_population_matches_exact_mi(self):
        rng = make_rng(5)
        probs = np.array([[0.9, 0.8], [0.2, 0.3], [0.6, 0.1]])
        popn = BernoulliPopulation(probs)
        exact = exact_mutual_information(*popn.joint_distribution(0, 1))
        est = sim.mutual_information(*popn.outcome_table(_tasks(0, 1), 10_000, rng))
        assert est == pytest.approx(exact, abs=0.02)

    def test_stack_matches_row_by_row(self):
        # One row against a stack gives each row's own estimate, bit for bit and
        # equal to the loop reference, including all-0 and all-1 rows on either side.
        rng = make_rng(7)
        table = (rng.uniform(size=(12, 500)) < rng.uniform(size=(12, 1))).astype(np.uint8)
        table[3], table[7] = 0, 1
        for ref in (0, 3, 7):
            stacked = sim.mutual_information(table[ref], table)
            assert stacked.shape == (12,)
            assert stacked.tolist() == [sim.mutual_information(table[ref], row)
                                        for row in table]
            assert stacked.tolist() == [scalar_mi(table[ref], row) for row in table]

    @settings(max_examples=200)
    @given(outcome_rows)
    def test_symmetry_and_nonnegativity_on_shared_tables(self, rows):
        o_i = np.array(rows[0], dtype=np.uint8)
        o_j = np.array(rows[1], dtype=np.uint8)
        ij = sim.mutual_information(o_i, o_j)
        ji = sim.mutual_information(o_j, o_i)
        assert ij == pytest.approx(ji, abs=1e-12)
        assert ij >= -1e-12

    @settings(max_examples=200)
    @given(outcome_rows)
    def test_bounded_by_min_entropy_and_self_dominates(self, rows):
        o_i = np.array(rows[0], dtype=np.uint8)
        o_j = np.array(rows[1], dtype=np.uint8)
        est = sim.mutual_information(o_i, o_j)
        h_i = sim.bernoulli_entropy(o_i.mean())
        h_j = sim.bernoulli_entropy(o_j.mean())
        assert est <= min(h_i, h_j) + 1e-9
        # Self-MI is the row's entropy, so it dominates MI with anything else.
        assert sim.mutual_information(o_i, o_i) >= est - 1e-12


def scalar_mi(o_i, o_j):
    """Loop reference for mutual_information: counts, then one scalar term at a time."""
    o_i, o_j = [int(v) for v in o_i], [int(v) for v in o_j]
    n = len(o_i)
    n_i, n_j = sum(o_i), sum(o_j)
    n_i_j_1 = sum(1 for a, b in zip(o_i, o_j) if a and b)
    cond = 0.0
    if n_j > 0:
        cond += (n_j / n) * sim.bernoulli_entropy(n_i_j_1 / n_j)
    if n_j < n:
        cond += (1.0 - n_j / n) * sim.bernoulli_entropy((n_i - n_i_j_1) / (n - n_j))
    return sim.bernoulli_entropy(n_i / n) - cond


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
        loo_values.append(exact_mutual_information(*(c / (n - 1))))
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
        assert cset.triplets.shape == (40, 3) and cset.mi.shape == (40, 2)
        assert cset.triplet_labels.shape == (40,)
        assert cset.pairs.shape == (30, 2) and cset.pos.shape == (30, 2)
        assert cset.pair_labels.shape == (30,)

    def test_labels_antisymmetric_under_swap(self):
        [cset] = sim.gen_constraint_splits(self.pool(), self.make_population(), [(60, 1)],
                                           make_rng(11), mi_reps_per_agent=50)
        est12, est13 = cset.mi.T
        assert np.array_equal(cset.triplet_labels, est12 > est13)
        # Swapping task2 and task3 swaps the estimates, so a non-tied label flips.
        differ = est12 != est13
        assert differ.any()
        assert np.array_equal((est13 > est12)[differ], 1 - cset.triplet_labels[differ])

    def test_splits_label_like_label_triplet_bit_for_bit(self):
        # Tasks 3 (never solved) and 4 (always solved) give all-0 and all-1 rows.
        popn = self.make_population()
        splits = sim.gen_constraint_splits(self.pool(), popn, [(300, 5), (51, 7)],
                                           make_rng(16), mi_reps_per_agent=30)
        mi_rng, _, _ = make_rng(16).spawn(3)
        table = popn.outcome_table(self.pool(), 30, mi_rng)
        assert not table[3].any() and table[4].all()
        for cset in splits:
            assert np.isin([3, 4], cset.triplets).all()
            for (i1, i2, i3), label, (est12, est13) in zip(
                    cset.triplets.tolist(), cset.triplet_labels.tolist(), cset.mi.tolist()):
                t = sim.label_triplet(table, i1, i2, i3)
                assert (t.label, t.est12, t.est13) == (label, est12, est13)
                assert (est12, est13) == (scalar_mi(table[i1], table[i2]),
                                          scalar_mi(table[i1], table[i3]))

    def test_easy_vs_unsolvable_pair_labeled_easy_first(self):
        popn = self.make_population()
        table_rng = make_rng(12)
        pos = popn.outcome_table(self.pool(), 50, table_rng).mean(axis=1)
        # Task 4 solved by everyone, task 3 by no one.
        assert pos[4] > pos[3]
        [cset] = sim.gen_constraint_splits(self.pool(), popn, [(1, 200)], make_rng(13))
        for (t1, t2), label in zip(cset.pairs.tolist(), cset.pair_labels.tolist()):
            if (t1, t2) == (4, 3):
                assert label == 1
            if (t1, t2) == (3, 4):
                assert label == 0

    def test_csv_roundtrip(self, tmp_path):
        [cset] = sim.gen_constraint_splits(self.pool(), self.make_population(), [(25, 17)],
                                           make_rng(15))
        path = tmp_path / "constraints.csv"
        sim.save_constraints(path, cset)
        back = sim.load_constraints(path, cset.env)
        assert back.env == cset.env
        for field in ("triplets", "triplet_labels", "mi", "pairs", "pair_labels", "pos"):
            assert np.array_equal(getattr(back, field), getattr(cset, field)), field

    def test_malformed_rows_name_file_and_line(self, tmp_path):
        lines = (DESK_CONSTRAINTS / "train.csv").read_text().splitlines(keepends=True)[:4]
        path = tmp_path / "train.csv"
        cases = [
            (2, lambda t: t.replace(",0,", ",", 1), "expected 7 fields, got 6"),
            (2, lambda t: t.replace("mi,", "mi,x", 1), "could not convert string 'x228' to int64"),
            (2, lambda t: t.replace(",0.", ",0.x", 1), "could not convert"),
            (2, lambda t: t.replace("mi,", "pair,", 1), "unknown kind 'pair'"),
            (2, lambda t: t.replace("mi,", "mi,-", 1), r"need task indices >= 0 .* \[-228,"),
            (2, lambda t: t.replace("mi,", "mi,100000000000000000000", 1),
             "could not convert string '100000000000000000000228' to int64"),
            (3, lambda t: t.replace(",0,", ",7,", 1), "label 7 is not 0 or 1"),
            (3, lambda t: t.rsplit(",", 1)[0] + ",nan\n",
             r"non-finite estimate in \[0.020454035685800398, nan\]"),
            (2, lambda t: t.replace(",0.025635879294618746,", ",-inf,"),
             r"non-finite estimate in \[-inf, 0.046066768575284134\]"),
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
            c = sim.load_constraints(path, "multikeynav")
            return [*zip(c.triplets.tolist(), c.triplet_labels.tolist(), c.mi.tolist()),
                    *zip(c.pairs.tolist(), c.pair_labels.tolist(), c.pos.tolist())]

        check_truncations(load, DESK_CONSTRAINTS / "train.csv", tmp_path, data)
