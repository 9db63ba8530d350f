"""The three benchmark workloads: inputs from a seed, one timed round, output checks.

Each workload has `setup()` (untimed; repeated in fresh interpreters for
`setup_s`), `run_round(i)` (the timed program work of round i, which must
not depend on anything but the seed and i) and `check_round(i, out)`, which
returns the mismatches it found. `final_checks()` runs once per run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from taskemb import config, embedding, nn, pipeline, population, similarity
from taskemb.benchmarks import prediction, selection
from taskemb.envs import load_tasks, sample_tasks
from taskemb.seeding import make_rng
from taskemb.stats import fold_mean_stderr

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"

# The stages `taskemb run-all` runs for a config with the predmodel enabled.
RUN_ALL = ["train-population", "gen-constraints", "train-embedding", "train-predmodel",
           "eval-prediction", "eval-selection", "silhouette", "export-viz", "plot-data"]


def sha256_bytes(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}


def read_result_rows(path) -> dict[tuple[str, str], tuple[float, float]]:
    """`method,key,mean,stderr` result CSV as {(method, key): (mean, stderr)}."""
    with open(path, newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))[1:]
    return {(m, k): (float(a), float(b)) for m, k, a, b in rows}


class PipelineMkn:
    """Fresh `run-all` on multikeynav at a scale between tiny.cfg and desk.

    Every round writes into a new output directory, so no stage is ever a
    cache hit, and every round of a run repeats the same seeded work: all
    rounds must give the same output digest.
    """

    name = "pipeline_mkn"
    min_rounds = 2
    config_path = BENCH_DIR / "mkn_bench.cfg"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.digests: dict[str, str] | None = None
        self.stage_seconds: dict[str, list[float]] = {s: [] for s in RUN_ALL}

    def setup(self) -> None:
        self.cfg = config.load_config(self.config_path)
        self.cfg.seeds.constraints = 2 * self.seed + 5
        self.cfg.seeds.training = 2 * self.seed + 6
        self.reference = load_reference().get(self.name, {}).get(str(self.seed))

    def run_round(self, i: int):
        out_dir = self.work / f"round-{i}"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        self.cfg.output_dir = str(out_dir)
        for stage in RUN_ALL:
            t0 = time.perf_counter()
            pipeline.run_stage(stage, self.cfg)
            self.stage_seconds[stage].append(time.perf_counter() - t0)
        return out_dir

    def ops_per_round(self) -> int:
        return 1

    def check_round(self, i: int, out_dir: Path) -> list[str]:
        digests = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.rglob("*"))
                   if p.is_file() and p.name != "manifest.txt"}
        shutil.rmtree(out_dir)
        errors = []
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            errors.append(f"round {i}: outputs differ from round 0 of this run")
        if self.reference is not None:
            bad = sorted(k for k in set(digests) | set(self.reference["files"])
                         if digests.get(k) != self.reference["files"].get(k))
            if bad:
                errors.append(f"round {i}: outputs differ from the reference: {bad[:5]}")
        return errors

    def outputs_sha256(self) -> str:
        return hashlib.sha256(json.dumps(self.digests, sort_keys=True).encode()).hexdigest()

    def final_checks(self) -> tuple[int, list[str]]:
        return 0, []

    def details(self, walls) -> dict:
        return {"outputs_sha256": self.outputs_sha256() if self.digests else None,
                "stage_s": {s: float(np.median(v)) for s, v in self.stage_seconds.items() if v}}

    def make_reference(self, ref: dict) -> None:
        self.check_round(0, self.run_round(0))
        ref[str(self.seed)] = {"outputs_sha256": self.outputs_sha256(), "files": self.digests}


class RolloutsDyn:
    """Repeated `Population.outcome_table` calls at threads=2 on fresh task draws.

    Two dynamics-variability populations: the committed cartpolevar desk
    population (discrete actions, 200-step horizon) and a small pointmass
    population built during set-up (box actions, the Gaussian `act` path).
    """

    name = "rollouts_dyn"
    min_rounds = 3
    threads = 2
    # (env, tasks per call, repetitions per agent): 400 rows per agent batch
    calls = (("cartpolevar", 40, 10), ("pointmass", 40, 10))
    pointmass_config = population.PopulationConfig(
        target_size=8, bc_epochs=6, bc_rollouts=30, bc_passes=1, snap_size=60, snap_reps=4)
    pointmass_seed = 11

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        cartpole = population.load_population(ROOT / "runs" / "cartpolevar-desk" / "population")
        recipe = population.standard_recipe("pointmass", "bias")
        pointmass = population.build_population("pointmass", recipe, self.pointmass_config,
                                                make_rng(self.pointmass_seed))
        self.populations = {"cartpolevar": cartpole, "pointmass": pointmass}
        self.reference = load_reference().get(self.name, {})

    def _call(self, k: int, i: int, threads: int, n_tasks=None, reps=None):
        env, n, r = self.calls[k]
        tasks = sample_tasks(env, n if n_tasks is None else n_tasks, make_rng(self.seed, k, i))
        return self.populations[env].outcome_table(tasks, r if reps is None else reps,
                                                   make_rng(self.seed, k, i, 1), threads=threads)

    def run_round(self, i: int):
        return [self._call(k, i, self.threads) for k in range(len(self.calls))]

    def ops_per_round(self) -> int:
        return len(self.calls)

    def check_round(self, i: int, tables) -> list[str]:
        errors = []
        for (env, n, r), table in zip(self.calls, tables):
            n_cols = len(self.populations[env].snapshots) * r
            if table.shape != (n, n_cols) or table.max(initial=0) > 1:
                errors.append(f"round {i} {env}: bad table shape or values")
        if i == 0:
            self.round0_sha256 = sha256_bytes(*tables)
            expected = self.reference.get("tables", {}).get(str(self.seed))
            if expected is not None and self.round0_sha256 != expected:
                errors.append("round 0: outcome tables differ from the reference")
        return errors

    def pointmass_sha256(self) -> str:
        return sha256_bytes(*[s.parameters for s in self.populations["pointmass"].snapshots])

    def final_checks(self) -> tuple[int, list[str]]:
        """Thread-count invariance on a slice, and the set-up population's digest."""
        errors = []
        for k, (env, _, _) in enumerate(self.calls):
            one = self._call(k, 0, 1, n_tasks=6, reps=4)
            two = self._call(k, 0, 2, n_tasks=6, reps=4)
            if not np.array_equal(one, two):
                errors.append(f"{env}: outcome table differs between threads=1 and threads=2")
        expected = self.reference.get("pointmass_population")
        if expected is not None and self.pointmass_sha256() != expected:
            errors.append("pointmass population differs from the reference")
        return len(self.calls) + 1, errors

    def details(self, walls) -> dict:
        cells = sum(n * len(self.populations[env].snapshots) * r for env, n, r in self.calls)
        return {"episodes_per_s": cells / float(np.median(walls)),
                "outputs_sha256": getattr(self, "round0_sha256", None),
                "pointmass_population_sha256": self.pointmass_sha256()}

    def make_reference(self, ref: dict) -> None:
        self.check_round(0, self.run_round(0))
        ref.setdefault("tables", {})[str(self.seed)] = self.round0_sha256
        ref["pointmass_population"] = self.pointmass_sha256()


def plug_in_mi(a: np.ndarray, b: np.ndarray) -> float:
    """Reference plug-in mutual information of two aligned success rows, in nats."""
    def h(p):
        return 0.0 if p in (0.0, 1.0) else float(-p * np.log(p) - (1 - p) * np.log(1 - p))
    n = a.size
    n_i, n_j = int(a.sum()), int(b.sum())
    n11 = int((a & b).sum())
    cond = 0.0
    if n_j > 0:
        cond += (n_j / n) * h(n11 / n_j)
    if n_j < n:
        cond += (1.0 - n_j / n) * h((n_i - n11) / (n - n_j))
    return h(n_i / n) - cond


class ConsumersMkn:
    """The rollout-free consumers, over the committed multikeynav desk artifacts.

    Round i reads and scores the quiz-size pair (p + 1, 20 - p) with
    p = (seed + i) mod 10 (every pair has the same number of quiz rows, so
    rounds cost alike), ranks selection dataset (seed + i) mod 4 with four
    methods, retrains the main embedding on the committed splits and labels
    triplets drawn from the seed over a generated outcome table.
    """

    name = "consumers_mkn"
    min_rounds = 2
    run_dir = ROOT / "runs" / "multikeynav-desk"
    config_path = ROOT / "configs" / "multikeynav_desk.cfg"
    methods = ("ours", "ours_wonorm", "state_sim", "trajectory_sim")
    table_shape = (800, 4000)
    n_triplets = 2000

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        self.cfg = config.load_config(self.config_path)
        bench = self.run_dir / "benchmarks"
        self.pred_rows = read_result_rows(bench / "prediction_results.csv")
        self.sel_rows = read_result_rows(bench / "selection_results.csv")
        self.model_text = (self.run_dir / "embedding" / "model.txt").read_text(encoding="utf-8")
        self.all_methods = config.parse_methods(self.cfg.benchmarks.selection_methods,
                                                selection.METHODS)
        rng = make_rng(self.seed, 100)
        p = rng.uniform(size=(self.table_shape[0], 1))
        self.table = (rng.uniform(size=self.table_shape) < p).astype(np.uint8)
        self.sel_reference = load_reference().get(self.name, {}).get("selection")

    def run_round(self, i: int):
        c, b, e = self.cfg.seeds, self.cfg.benchmarks, self.cfg.embedding
        d = self.run_dir
        popn = population.load_population(d / "population")
        model = embedding.load_embedding_model(d / "embedding" / "model.txt")
        wonorm = embedding.load_embedding_model(d / "embedding" / "model_wonorm.txt")

        p = (self.seed + i) % 10
        quiz = {}
        for size in (p + 1, 20 - p):
            train = prediction.load_quiz_dataset(d / "benchmarks" / f"quiz_size_{size}_train.csv")
            test = prediction.load_quiz_dataset(d / "benchmarks" / f"quiz_size_{size}_test.csv")
            beta = prediction.tune_beta(model, train)
            preds = np.array([prediction.predict_softnn(model, ex, beta) for ex in test],
                             dtype=np.uint8)
            outcomes = np.array([ex.test_outcome for ex in test])
            mean, stderr, _ = prediction.eval_prediction(
                preds, outcomes, make_rng(c.root, c.benchmarks, 11, size))
            quiz[size] = (mean, stderr)

        ds = (self.seed + i) % b.selection_datasets
        dataset = selection.load_selection_dataset(d / "benchmarks" / f"selection_{ds}.csv")
        res = selection.SelectionResources(
            env=self.cfg.env, model=model, model_wonorm=wonorm, population=popn,
            mi_reps_per_agent=b.selection_mi_reps, pos_reps_per_agent=b.selection_pos_reps)
        accs = {}
        for method in self.methods:
            m_rng = make_rng(c.root, c.benchmarks, 22, ds, self.all_methods.index(method))
            ranked = [(selection.select(method, ex, res, m_rng)[0], ex) for ex in dataset]
            for t in (1, 2):
                ranks = [r for r, ex in ranked if ex.query_type == t]
                gts = [ex.ground_truth for _, ex in ranked if ex.query_type == t]
                for k in (1, 3):
                    accs[f"{method}/type{t}_top{k}"] = selection.topk_accuracy(ranks, gts, k)

        _, pool = load_tasks(d / "constraints" / "pool.csv")
        sets = [similarity.load_constraints(d / "constraints" / f"{s}.csv", self.cfg.env)
                for s in ("train", "val", "test")]
        train_cfg = embedding.TrainConfig(dim=self.cfg.embed_dim(), norm_weight=e.norm_weight,
                                          epochs=e.epochs, batch_size=e.batch_size, lr=e.lr,
                                          patience=e.patience)
        trained, _ = embedding.train_embedding(pool, *sets, train_cfg,
                                               make_rng(c.root, c.training))

        idx = make_rng(self.seed, 101, i).integers(0, self.table_shape[0],
                                                   size=(self.n_triplets, 3))
        triplets = [similarity.label_triplet(self.table, int(a), int(b_), int(c_))
                    for a, b_, c_ in idx]
        return quiz, (ds, accs), trained, triplets

    def ops_per_round(self) -> int:
        return 5

    def check_round(self, i: int, out) -> list[str]:
        quiz, (ds, accs), trained, triplets = out
        errors = []
        for size, row in quiz.items():
            if row != self.pred_rows.get(("ours", str(size))):
                errors.append(f"quiz size {size}: {row} != committed prediction_results.csv")
        if self.sel_reference is not None and accs != self.sel_reference[str(ds)]:
            errors.append(f"selection dataset {ds}: accuracies differ from the reference")
        buf = io.StringIO()
        buf.write(json.dumps({"env": trained.env, "dim": trained.dim}) + "\n")
        nn.write_weights(trained.net, buf)
        if buf.getvalue() != self.model_text:
            errors.append("retrained embedding differs from committed embedding/model.txt")
        for t in triplets:
            row = self.table[t.task1].astype(bool)
            e12 = plug_in_mi(row, self.table[t.task2].astype(bool))
            e13 = plug_in_mi(row, self.table[t.task3].astype(bool))
            if (abs(e12 - t.est12) > 1e-12 or abs(e13 - t.est13) > 1e-12
                    or (abs(e12 - e13) > 1e-12 and t.label != int(e12 > e13))):
                errors.append(f"triplet {t.task1},{t.task2},{t.task3}: wrong label or estimate")
                break
        return errors

    def final_checks(self) -> tuple[int, list[str]]:
        """The per-dataset reference must fold to the committed selection_results.csv."""
        if self.sel_reference is None:
            return 1, ["no selection reference in reference.json"]
        errors = []
        for method in self.methods:
            for key in ("type1_top1", "type1_top3", "type2_top1", "type2_top3"):
                vals = np.array([self.sel_reference[str(ds)][f"{method}/{key}"]
                                 for ds in range(self.cfg.benchmarks.selection_datasets)])
                if fold_mean_stderr(vals) != self.sel_rows.get((method, key)):
                    errors.append(f"selection {method}/{key}: reference does not fold to the "
                                  f"committed selection_results.csv")
        return 1, errors

    def details(self, walls) -> dict:
        return {}

    def make_reference(self, ref: dict) -> None:
        """Per-dataset selection accuracies; final_checks ties them to the committed CSV."""
        ref["selection"] = {}
        for i in range(self.cfg.benchmarks.selection_datasets):
            ds, accs = self.run_round(i)[1]
            ref["selection"][str(ds)] = accs
        self.sel_reference = ref["selection"]
        n, errors = self.final_checks()
        if errors:
            raise RuntimeError("\n".join(errors))


WORKLOADS = {w.name: w for w in (PipelineMkn, RolloutsDyn, ConsumersMkn)}
