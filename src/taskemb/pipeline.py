"""Pipeline stages: one table of stages and one runner that caches and records them.

Stages are cached by content: identical config section + identical input
hashes + intact outputs means a stage is skipped. Downstream stages verify
their upstream files against the manifest and refuse to run on mismatch
unless forced. Every stage goes through `run_stage`; a stage itself is only
a body that writes its artifacts and returns their paths.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable

import numpy as np

from taskemb import embedding as emb
from taskemb import nn
from taskemb import population as pop
from taskemb import similarity as sim
from taskemb.benchmarks import clusters, prediction, selection
from taskemb.benchmarks import predmodel as pm
from taskemb.config import RunConfig, parse_methods, parse_quiz_sizes
from taskemb.envs import get_env, load_tasks, sample_tasks, save_tasks
from taskemb.manifest import Manifest, text_hash
from taskemb.seeding import make_rng
from taskemb.stats import fold_mean_stderr


def _stage_hash(cfg: RunConfig, sections: tuple[str, ...]) -> str:
    # `[run]`, `env = ...`, then `[seeds]` and each section's `key = value` lines. output_dir
    # is a location and threads never change results, so neither is in the key.
    lines = ["[run]", f"env = {cfg.env}"]
    for name in ("seeds", *sections):
        section = getattr(cfg, name)
        lines.append(f"[{name}]")
        for f in dataclasses.fields(section):
            v = getattr(section, f.name)
            text = ("true" if v else "false") if isinstance(v, bool) else (
                repr(v) if isinstance(v, float) else str(v))
            lines.append(f"{f.name} = {text}")
    return text_hash("\n".join(lines) + "\n")


def _announce(name: str, skipped: bool) -> None:
    print(f"[{name}] {'cached, skipping' if skipped else 'running'}", flush=True)


def _load_population(cfg: RunConfig, directory) -> pop.Population:
    return dataclasses.replace(pop.load_population(directory), threads=cfg.threads)


def _eval_tasks(cfg: RunConfig) -> np.ndarray:  # the fresh tasks of silhouette and export-viz
    return sample_tasks(cfg.env, cfg.benchmarks.eval_tasks,
                        make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 7))


def _train_population(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    recipe = pop.standard_recipe(cfg.env, cfg.population.recipe)
    rng = make_rng(cfg.seeds.root, cfg.seeds.population)
    popn = pop.build_population(cfg.env, recipe, cfg.population, rng, verbose=True)
    return pop.save_population(popn, out_dir)


def _generate_constraints(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    c = cfg.constraints
    popn = _load_population(cfg, root / "population")
    rng = make_rng(cfg.seeds.root, cfg.seeds.constraints)
    pool = sample_tasks(cfg.env, c.pool_size, rng)
    splits = sim.gen_constraint_splits(
        pool, popn,
        [(c.n_mi_train, c.n_norm_train), (c.n_mi_val, c.n_norm_val),
         (c.n_mi_test, c.n_norm_test)],
        rng, c.mi_reps_per_agent, c.pos_reps_per_agent)
    return [save_tasks(out_dir / "pool.csv", cfg.env, pool),
            *(sim.save_constraints(out_dir / f"{split}.csv", cset)
              for split, cset in zip(("train", "val", "test"), splits))]


def _load_constraint_artifacts(cfg: RunConfig, root: Path):
    out_dir = root / "constraints"
    _, pool = load_tasks(out_dir / "pool.csv")
    sets = {split: sim.load_constraints(out_dir / f"{split}.csv", cfg.env)
            for split in ("train", "val", "test")}
    for split, cset in sets.items():  # a constraint CSV's rows: its triplets, then its pairs
        top = np.concatenate([t.max(axis=1, initial=0) for t in (cset.triplets, cset.pairs)])
        if fault := nn.first_broken([(lambda r: f"task index {top[r]} is outside the pool "
                                      f"of {len(pool)} tasks", top >= len(pool))]):
            raise nn.ArtifactFormatError.at_row(out_dir / f"{split}.csv", *fault)
    return pool, sets


def _train_embedding(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    pool, sets = _load_constraint_artifacts(cfg, root)
    outputs = []
    # The full model, then the no-norm ablation (pair constraints off).
    for suffix, train_cfg, seed_parts in (
            ("", dataclasses.replace(cfg.embedding, dim=cfg.embed_dim()), ()),
            ("_wonorm", dataclasses.replace(cfg.embedding, dim=cfg.embed_dim_wonorm(),
                                            norm_weight=0.0), (1,))):
        model, log = emb.train_embedding(
            pool, sets["train"], sets["val"], sets["test"], train_cfg,
            make_rng(cfg.seeds.root, cfg.seeds.training, *seed_parts))
        outputs += [emb.save_embedding_model(model, out_dir / f"model{suffix}.txt"),
                    nn.write_csv(out_dir / f"trainlog{suffix}.csv",
                                 ["epoch", "train_loss", "val_loss"],
                                 [*zip(log.epochs, log.train_loss, log.val_loss),
                                  ("best_epoch", log.best_epoch, ""),
                                  ("test_loss", log.test_loss, "")])]

    random_model = emb.fresh_embedding_net(cfg.env, cfg.embed_dim(),
                                           make_rng(cfg.seeds.root, cfg.seeds.training, 2))
    return [*outputs, emb.save_embedding_model(random_model, out_dir / "model_random.txt")]


def _train_predmodel(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    p = cfg.predmodel
    pm_cfg = pm.PredModelConfig(latent_dim=cfg.predmodel_latent(), epochs=p.epochs,
                                batch_size=p.batch_size, n_rollouts=p.n_rollouts)
    rng = make_rng(cfg.seeds.root, cfg.seeds.training, 3)
    transitions = pm.collect_transitions(cfg.env, pm_cfg.n_rollouts, rng)
    nets, losses = pm.train_predmodel(cfg.env, transitions, pm_cfg, rng, verbose=True)
    return [pm.save_predmodel(nets, out_dir / "model.txt"),
            nn.write_csv(out_dir / "trainlog.csv", ["epoch", "loss"], enumerate(losses))]


def _prediction_methods(cfg: RunConfig) -> list[str]:
    return parse_methods(cfg.benchmarks.prediction_methods, prediction.METHODS)


def _selection_methods(cfg: RunConfig) -> list[str]:
    return parse_methods(cfg.benchmarks.selection_methods, selection.METHODS)


def _benchmark_upstream(methods: list[str]) -> list[str]:
    predmodel = ["train-predmodel"] if "predmodel" in methods else []
    return ["train-population", "train-embedding", *predmodel]


RESULTS_HEADER = ("method", "quiz_size_or_type", "mean", "stderr")  # both result CSVs


def read_results(path) -> list[tuple[str, str, float, float]]:
    """Read a result CSV; a bad row raises nn.ArtifactFormatError naming the line."""
    with nn.read_csv(path) as (_, rows):
        return [(m, k, float(a), float(b)) for m, k, a, b in rows]


def _eval_prediction(cfg: RunConfig, root: Path, out_dir: Path,
                     agent_population_dir=None) -> list[Path]:
    """Performance-prediction benchmark over every configured quiz size.

    agent_population_dir optionally draws the hidden agents from a different
    population directory, whose agents the hidden-agent oracles (opt,
    ignore_task) roll out; predictor-side resources (embedding model and the
    population-average baseline) still come from this run.
    """
    b = cfg.benchmarks
    methods = _prediction_methods(cfg)
    suffix = "" if agent_population_dir is None else "_transfer"
    popn = _load_population(cfg, root / "population")
    agent_pop = popn if agent_population_dir is None else _load_population(
        cfg, agent_population_dir)
    model = emb.load_embedding_model(root / "embedding" / "model.txt")
    predm = None
    if "predmodel" in methods:
        predm = pm.load_predmodel(root / "predmodel" / "model.txt")

    sizes = parse_quiz_sizes(b.quiz_sizes)
    outputs = []
    rows = []
    for size in sizes:
        gen_rng = make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 10, size)
        train_ds = prediction.gen_quiz_dataset(cfg.env, agent_pop, size,
                                               b.quiz_train_examples, gen_rng)
        test_ds = prediction.gen_quiz_dataset(cfg.env, agent_pop, size,
                                              b.quiz_test_examples, gen_rng)
        outputs += [prediction.save_quiz_dataset(
            out_dir / f"quiz_size_{size}_{split}{suffix}.csv", cfg.env, ds)
            for split, ds in (("train", train_ds), ("test", test_ds))]
        for method in methods:
            if method == "ours" or method == "predmodel":
                m = model if method == "ours" else predm
                beta = prediction.tune_beta(m, train_ds)
                preds = (prediction.softnn_scores(m, test_ds, [beta])[0] > 0.5).astype(np.uint8)
            else:
                base_rng = make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 12, size,
                                    methods.index(method))
                source = popn if method == "ignore_agent" else agent_pop
                preds = prediction.baseline_predictions(method, test_ds, source, base_rng)
            fold_rng = make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 11, size)
            mean, stderr, _ = prediction.eval_prediction(preds, test_ds.test_outcome, fold_rng)
            rows.append((method, str(size), mean, stderr))
        print(f"  quiz size {size}: " + "  ".join(
            f"{m}={v:.3f}" for m, k, v, _ in rows[-len(methods):]), flush=True)
    return [*outputs, nn.write_csv(out_dir / f"prediction_results{suffix}.csv",
                                   RESULTS_HEADER, rows)]


def _eval_selection(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    b = cfg.benchmarks
    methods = _selection_methods(cfg)
    popn = _load_population(cfg, root / "population")
    res = selection.SelectionResources(
        env=cfg.env, model=emb.load_embedding_model(root / "embedding" / "model.txt"),
        model_wonorm=emb.load_embedding_model(root / "embedding" / "model_wonorm.txt"),
        population=popn, mi_reps_per_agent=b.selection_mi_reps,
        pos_reps_per_agent=b.selection_pos_reps)
    if "predmodel" in methods:
        res.predmodel = pm.load_predmodel(root / "predmodel" / "model.txt")

    outputs = []
    # acc[method][(query type, k)]: the top-k accuracy of each dataset
    acc = {m: {(t, k): [] for t in (1, 2) for k in (1, 3)} for m in methods}
    for d in range(b.selection_datasets):
        ds_rng = make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 20, d)
        dataset = selection.gen_selection_dataset(
            cfg.env, popn, b.selection_examples, ds_rng,
            mi_reps_per_agent=b.selection_mi_reps,
            pos_reps_per_agent=b.selection_pos_reps,
            easy_pool_size=b.selection_pool)
        outputs.append(selection.save_selection_dataset(out_dir / f"selection_{d}.csv",
                                                        cfg.env, dataset))
        if "opt50" in methods:
            half_rng = make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 21, d)
            half = half_rng.choice(len(popn), size=max(1, len(popn) // 2),
                                   replace=False)
            res.population_half = popn.subset(sorted(half))
        for method in methods:
            m_rng = make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 22, d,
                             methods.index(method))
            rankings, _ = selection.rank_options(method, dataset, res, m_rng)
            for (t, k), vals in acc[method].items():
                is_t = dataset.query_type == t
                vals.append(selection.topk_accuracy(rankings[is_t], dataset.ground_truth[is_t], k))
        print(f"  selection dataset {d} done", flush=True)
    rows = [(method, f"type{t}_top{k}", *fold_mean_stderr(vals))
            for method in methods for (t, k), vals in acc[method].items()]
    return [*outputs, nn.write_csv(out_dir / "selection_results.csv", RESULTS_HEADER, rows)]


def _silhouette(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    fresh = _eval_tasks(cfg)
    _, pool = load_tasks(root / "constraints" / "pool.csv")
    pool_split = pool[: cfg.benchmarks.eval_tasks]
    models = {"ours": emb.load_embedding_model(root / "embedding" / "model.txt"),
              "random": emb.load_embedding_model(root / "embedding" / "model_random.txt"),
              "ours_wonorm": emb.load_embedding_model(root / "embedding" / "model_wonorm.txt")}
    if cfg.predmodel.enabled:
        models["predmodel"] = pm.load_predmodel(root / "predmodel" / "model.txt")
    rows = []
    for model_name, model in models.items():
        for split_name, states in (("fresh", fresh), ("pool", pool_split)):
            score = float(clusters.silhouette_for_model(model, cfg.env, states))
            rows.append((model_name, split_name, states.shape[0], score))
            print(f"  {model_name}/{split_name}: {score:.3f}", flush=True)
    return [nn.write_csv(out_dir / "silhouette.csv", ["model", "split", "n_tasks", "score"],
                         rows)]


def _dim_sweep(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    pool, sets = _load_constraint_artifacts(cfg, root)
    rows = []
    for dim in range(1, 11):
        _, log = emb.train_embedding(pool, sets["train"], sets["val"], sets["test"],
                                     dataclasses.replace(cfg.embedding, dim=dim),
                                     make_rng(cfg.seeds.root, cfg.seeds.training, 4, dim))
        rows.append((dim, min(log.val_loss), log.test_loss))
        print(f"  dim {dim}: test loss {log.test_loss:.4f}", flush=True)
    return [nn.write_csv(out_dir / "dim_sweep.csv", ["dim", "best_val_loss", "test_loss"],
                         rows)]


def _export_viz(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    model = emb.load_embedding_model(root / "embedding" / "model.txt")
    states = _eval_tasks(cfg)
    k = min(2, model.dim)
    proj, ratios = emb.pca_project(model.embed(states), k)
    labels = get_env(cfg.env).cluster_labels(states)
    pca_rows = ([i, *row, int(c)] for i, (row, c) in enumerate(zip(proj.tolist(), labels)))
    return [emb.export_embeddings(out_dir / "embeddings.csv", model, states),
            save_tasks(out_dir / "tasks.csv", cfg.env, states),
            nn.write_csv(out_dir / "pca.csv",
                         ["task_index", *(f"p_{i + 1}" for i in range(k)), "label"], pca_rows),
            nn.write_csv(out_dir / "pca_variance.csv", ["component", "explained_variance_ratio"],
                         enumerate(ratios, start=1))]


def _write_pivot(path: Path, corner: str, table: dict) -> Path:
    """Write a {(row, col): (mean, stderr)} table as CSV: one line per row, a repr'd
    `<col>_mean` and `<col>_stderr` column per col, both in sorted order."""
    rows, cols = sorted({r for r, _ in table}), sorted({c for _, c in table})
    return nn.write_csv(path, [corner, *(f"{c}_{x}" for c in cols for x in ("mean", "stderr"))],
                        ([r, *(v for c in cols for v in table[(r, c)])] for r in rows))


def _plot_data(cfg: RunConfig, root: Path, out_dir: Path) -> list[Path]:
    """Reshape result CSVs into per-figure tables (quiz-size curves, selection bars)."""
    pred = read_results(out_dir / "prediction_results.csv")
    sel = read_results(out_dir / "selection_results.csv")
    return [
        _write_pivot(out_dir / "fig_prediction.csv", "quiz_size",
                     {(int(k), m): (mean, se) for m, k, mean, se in pred}),
        _write_pivot(out_dir / "fig_selection.csv", "method",
                     {(m, k): (mean, se) for m, k, mean, se in sel}),
    ]


@dataclasses.dataclass(frozen=True)
class Stage:
    """One row of the stage table; `run_stage` does the caching and recording."""

    name: str
    help: str
    sections: tuple[str, ...]                   # config sections in the cache key
    upstream: Callable[[RunConfig], list[str]]  # stages whose outputs are inputs
    out_dir: str                                # under the run's output_dir
    run: Callable[..., list[Path]]              # (cfg, root, out_dir) -> outputs
    in_run_all: Callable[[RunConfig], bool] = lambda cfg: True
    transfer: bool = False  # accepts hidden agents from another run's population


STAGES = {stage.name: stage for stage in [
    Stage("train-population",
          "train the agent subpopulations and save their snapshots",
          ("population",), lambda cfg: [], "population", _train_population),
    Stage("gen-constraints",
          "sample the task pool and label triplet/pair constraints",
          ("constraints",), lambda cfg: ["train-population"], "constraints",
          _generate_constraints),
    Stage("train-embedding", "fit the embedding net(s) on the constraint sets",
          ("embedding",), lambda cfg: ["gen-constraints"], "embedding",
          _train_embedding),
    Stage("train-predmodel", "fit the variational reconstruction baseline",
          ("predmodel",), lambda cfg: [], "predmodel", _train_predmodel,
          in_run_all=lambda cfg: cfg.predmodel.enabled),
    Stage("eval-prediction", "run the performance-prediction benchmark",
          ("benchmarks",), lambda cfg: _benchmark_upstream(_prediction_methods(cfg)),
          "benchmarks", _eval_prediction, transfer=True),
    Stage("eval-selection", "run the task-selection benchmark",
          ("benchmarks",), lambda cfg: _benchmark_upstream(_selection_methods(cfg)),
          "benchmarks", _eval_selection),
    Stage("silhouette", "score embedding spaces against intuitive task clusters",
          ("benchmarks",),
          lambda cfg: ["train-embedding", "gen-constraints",
                       *(["train-predmodel"] if cfg.predmodel.enabled else [])],
          "benchmarks", _silhouette),
    Stage("dim-sweep",
          "train the embedding at dimensions 1..10 and tabulate test loss",
          ("embedding",), lambda cfg: ["gen-constraints"], "eval", _dim_sweep,
          in_run_all=lambda cfg: False),
    Stage("export-viz", "export embeddings plus a 2-d principal-component projection",
          ("benchmarks",), lambda cfg: ["train-embedding"], "viz", _export_viz),
    Stage("plot-data", "reshape result CSVs into per-figure tables",
          ("benchmarks",), lambda cfg: ["eval-prediction", "eval-selection"],
          "benchmarks", _plot_data),
]}


def run_stage(stage: str, cfg: RunConfig, force: bool = False,
              agent_population_dir=None) -> Path:
    """Run one stage unless the manifest shows it up to date; return its output dir.

    With agent_population_dir (transfer stages only) the stage is recorded as
    `<stage>-transfer` and the other population's files are among its inputs.
    """
    spec = STAGES[stage]
    root = Path(cfg.output_dir)
    out_dir = root / spec.out_dir
    manifest = Manifest.load(root)
    inputs = [p for up in spec.upstream(cfg) for p in manifest.verify_upstream(up, force)]
    name, extra = stage, {}
    if agent_population_dir is not None:
        if not spec.transfer:
            raise ValueError(f"stage {stage!r} takes no agent population")
        name, extra = f"{stage}-transfer", {"agent_population_dir": agent_population_dir}
        inputs += pop.population_files(agent_population_dir)
    config_hash = _stage_hash(cfg, spec.sections)
    if not force and manifest.up_to_date(name, config_hash, inputs):
        _announce(name, True)
        return out_dir
    _announce(name, False)
    t0 = time.time()
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = spec.run(cfg, root, out_dir, **extra)
    manifest.record(name, config_hash, inputs, outputs, time.time() - t0)
    return out_dir
