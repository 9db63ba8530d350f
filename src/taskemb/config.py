"""Run configuration: flat `key = value` sections with explicit seeds.

Every stage of the pipeline reads its settings from one file so a run is
fully described by (config, code). All randomness flows from the named seeds
here; nothing samples ambient entropy. Each section is one dataclass
(`[population]` and `[embedding]` are the library's own `PopulationConfig`
and `TrainConfig`). A key its dataclass does not name is an error, and so is
a section that is neither `[run]` nor one of them. Protocol values the paper
fixes (Adam's betas, the baselines' rollout budgets, the selection example
shape, ...) are module constants next to the code that uses them, not keys.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field

from taskemb.benchmarks import prediction, selection
from taskemb.embedding import TrainConfig
from taskemb.envs.core import get_env
from taskemb.population import PopulationConfig, standard_recipe


@dataclass
class Seeds:
    root: int = 20240601
    population: int = 1
    constraints: int = 2
    training: int = 3
    benchmarks: int = 4


@dataclass
class ConstraintSection:
    pool_size: int = 1000
    n_mi_train: int = 5000
    n_norm_train: int = 5000
    n_mi_val: int = 1000
    n_norm_val: int = 1000
    n_mi_test: int = 1000
    n_norm_test: int = 1000
    mi_reps_per_agent: int = 100
    pos_reps_per_agent: int = 10


@dataclass
class PredModelSection:
    enabled: bool = False
    latent_dim: int = 0          # 0: use the environment default
    epochs: int = 500
    batch_size: int = 512
    n_rollouts: int = 10000


@dataclass
class BenchmarkSection:
    quiz_sizes: str = "1-20"
    quiz_train_examples: int = 5000
    quiz_test_examples: int = 5000
    prediction_methods: str = "ours,random,ignore_agent,opt"
    selection_datasets: int = 4
    selection_examples: int = 50
    selection_methods: str = "ours,ours_wonorm,random,state_sim,trajectory_sim,opt,opt50"
    selection_mi_reps: int = 100
    selection_pos_reps: int = 10
    selection_pool: int = 500
    eval_tasks: int = 1000


@dataclass
class RunConfig:
    env: str = "multikeynav"
    output_dir: str = "runs/default"
    threads: int = 1
    seeds: Seeds = field(default_factory=Seeds)
    population: PopulationConfig = field(default_factory=PopulationConfig)
    constraints: ConstraintSection = field(default_factory=ConstraintSection)
    embedding: TrainConfig = field(default_factory=TrainConfig)
    predmodel: PredModelSection = field(default_factory=PredModelSection)
    benchmarks: BenchmarkSection = field(default_factory=BenchmarkSection)

    # A dim of 0 in the file means the env default; these three are the one place that
    # resolves it.
    def embed_dim(self) -> int:
        return self.embedding.dim or get_env(self.env).embed_dim

    def embed_dim_wonorm(self) -> int:
        return self.embedding.dim_wonorm or get_env(self.env).embed_dim_wonorm

    def predmodel_latent(self) -> int:
        return self.predmodel.latent_dim or get_env(self.env).embed_dim


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# The [section]s are RunConfig's fields with a default_factory; [run] holds the others.
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)
             if f.default_factory is not dataclasses.MISSING}
_RUN_FIELDS = [f for f in dataclasses.fields(RunConfig) if f.name not in _SECTIONS]


def _coerce(ftype: str, raw: str):
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    if ftype == "bool":
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return raw


def parse_config(text: str, threads: int | None = None) -> RunConfig:
    """Parse and check a config; `threads`, when given, overrides `[run] threads`."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    unknown = [name for name in parser.sections() if name not in ("run", *_SECTIONS)]
    if unknown or parser.defaults():  # [DEFAULT] would lend its keys to every section
        raise ConfigError(f"unknown section [{unknown[0] if unknown else 'DEFAULT'}]")

    def fill(fields, name: str) -> dict:
        """Section name's `key = value` lines as keyword arguments for the dataclass fields."""
        known = {f.name: f for f in fields}
        kwargs = {}
        for key, raw in (parser.items(name) if parser.has_section(name) else []):
            if key not in known:
                raise ConfigError(f"[{name}] unknown key {key!r}")
            try:
                kwargs[key] = _coerce(str(known[key].type), raw)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from exc
        return kwargs

    run = fill(_RUN_FIELDS, "run")
    if threads is not None:
        run["threads"] = threads
    cfg = RunConfig(**run, **{name: cls(**fill(dataclasses.fields(cls), name))
                              for name, cls in _SECTIONS.items()})
    get_env(cfg.env)  # validates the environment name
    try:
        standard_recipe(cfg.env, cfg.population.recipe)
    except ValueError as exc:
        raise ConfigError(f"[population] recipe: {exc}") from None
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    # Check the benchmark lists now, not when run-all reaches their stages.
    parse_quiz_sizes(cfg.benchmarks.quiz_sizes)
    methods = (parse_methods(cfg.benchmarks.prediction_methods, prediction.METHODS)
               + parse_methods(cfg.benchmarks.selection_methods, selection.METHODS))
    if "predmodel" in methods and not cfg.predmodel.enabled:  # run-all would skip its stage
        raise ConfigError("method 'predmodel' needs [predmodel] enabled = true")
    # Smaller counts leave a stage nothing to score: the pool holds the easy references, a
    # dataset needs one example of each query type, the test split is cut into N_FOLDS, an
    # outcome table draws every agent at least once, every constraint split holds a
    # constraint of each kind, export-viz's PCA and the silhouette need two points, each
    # cloning epoch needs a demonstration and each snapshot score a rollout, and a trainer
    # needs an epoch, a nonempty minibatch and (the predmodel) a recorded rollout.
    for section, key, least in (
            ("benchmarks", "selection_pool", selection.N_EASY),
            ("benchmarks", "selection_examples", 2), ("benchmarks", "selection_datasets", 1),
            ("benchmarks", "quiz_train_examples", 1),
            ("benchmarks", "quiz_test_examples", prediction.N_FOLDS),
            ("benchmarks", "selection_mi_reps", 1), ("benchmarks", "selection_pos_reps", 1),
            ("constraints", "mi_reps_per_agent", 1), ("constraints", "pos_reps_per_agent", 1),
            *(("constraints", f"n_{kind}_{split}", 1)
              for split in ("train", "val", "test") for kind in ("mi", "norm")),
            ("constraints", "pool_size", 2), ("benchmarks", "eval_tasks", 2),
            *(("population", key, 1) for key in ("snap_reps", "snap_size", "bc_rollouts")),
            *(("embedding", key, 1) for key in ("epochs", "batch_size")),
            *(("predmodel", key, 1) for key in ("epochs", "batch_size", "n_rollouts"))):
        if (value := getattr(getattr(cfg, section), key)) < least:
            raise ConfigError(f"[{section}] {key} must be at least {least}, got {value}")
    return cfg


def load_config(path, threads: int | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_config(fp.read(), threads)


def parse_quiz_sizes(spec: str) -> list[int]:
    """Accepts '1-20', '5', or '1,2,5,20'; returns sorted unique sizes."""
    sizes: set[int] = set()
    try:
        for part in spec.split(","):
            part = part.strip()
            if "-" in part:
                lo, hi = part.split("-")
                sizes.update(range(int(lo), int(hi) + 1))
            elif part:
                sizes.add(int(part))
    except ValueError as exc:
        raise ConfigError(f"quiz sizes {spec!r}: {exc}") from None
    out = sorted(sizes)
    if not out or out[0] < 1 or out[-1] > 20:
        raise ConfigError(f"quiz sizes must lie in [1, 20]: {spec!r}")
    return out


def parse_methods(spec: str, valid: tuple[str, ...]) -> list[str]:
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    for i, m in enumerate(methods):
        if m not in valid:
            raise ConfigError(f"unknown method {m!r}; valid: {', '.join(valid)}")
        if m in methods[:i]:  # a repeat would score, and write, the method's rows twice
            raise ConfigError(f"repeated method {m!r}")
    return methods
