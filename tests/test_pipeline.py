import dataclasses
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskemb import cli, config as cfgmod, manifest, nn, pipeline
from taskemb import embedding as emb
from taskemb import population as pop
from taskemb import similarity as sim
from taskemb.benchmarks import prediction, selection
from taskemb.envs import load_tasks, sample_tasks, save_tasks
from taskemb.manifest import Manifest, StaleArtifactError, file_hash
from taskemb.seeding import make_rng
from taskemb.stats import fold_mean_stderr

from conftest import check_truncations

TINY_CONFIG = """\
[run]
env = multikeynav
output_dir = {out}
threads = 1

[seeds]
root = 77

[population]
recipe = masks
target_size = 10
bc_epochs = 6
bc_rollouts = 80
bc_passes = 2
snap_size = 60

[constraints]
pool_size = 60
n_mi_train = 150
n_norm_train = 150
n_mi_val = 40
n_norm_val = 40
n_mi_test = 40
n_norm_test = 40
mi_reps_per_agent = 20
pos_reps_per_agent = 5

[embedding]
dim = 4
dim_wonorm = 3
epochs = 30
patience = 40

[predmodel]
enabled = true
epochs = 4
batch_size = 256
n_rollouts = 40

[benchmarks]
quiz_sizes = 1,3
quiz_train_examples = 60
quiz_test_examples = 120
prediction_methods = ours,random,ignore_agent,opt
selection_datasets = 2
selection_examples = 6
selection_methods = ours,ours_wonorm,random,state_sim,opt50
selection_mi_reps = 20
selection_pos_reps = 5
selection_pool = 60
eval_tasks = 150
"""


REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.cfg")) + [REPO / "perfbench" / "mkn_bench.cfg"]

# Config keys that every shipped config leaves at one value, each with the reader
# that keeps it a key. Any other single-valued key belongs in the code as a constant.
SINGLE_VALUED_KEYS = {
    ("population", "snap_reps"): "perfbench: rollouts_dyn sets PopulationConfig.snap_reps = 4",
    ("embedding", "norm_weight"): "perfbench: consumers_mkn builds its TrainConfig from it",
    ("embedding", "batch_size"): "perfbench: consumers_mkn builds its TrainConfig from it",
    ("embedding", "lr"): "perfbench: consumers_mkn builds its TrainConfig from it",
}


def _config_keys(cfg: cfgmod.RunConfig) -> dict[tuple[str, str], object]:
    """(section, key) -> parsed value, for every key a config file can set."""
    keys = {("run", k): getattr(cfg, k) for k in ("env", "output_dir", "threads")}
    for name in cfgmod._SECTIONS:
        section = getattr(cfg, name)
        keys.update({(name, f.name): getattr(section, f.name)
                     for f in dataclasses.fields(section)})
    return keys


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyrun")
    cfg_path = out / "run.cfg"
    cfg_path.write_text(TINY_CONFIG.format(out=out / "artifacts"))
    code = cli.main(["run-all", "--config", str(cfg_path)])
    assert code == 0
    return out / "artifacts", cfg_path


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(cfgmod.ConfigError, match="unknown key"):
            cfgmod.parse_config("[population]\nbananas = 3\n")

    @pytest.mark.parametrize("text, match", [
        ("[benchmarks]\ntune_beta = false\n", "unknown key 'tune_beta'"),
        ("[benchmarks]\nsoftnn_beta = 10.0\n", "unknown key 'softnn_beta'"),
        ("[benchmarks]\nselection_methods = ours,bogus\n", "unknown method 'bogus'"),
        ("[benchmarks]\nprediction_methods = ours,bogus\n", "unknown method 'bogus'"),
        ("[benchmarks]\nquiz_sizes = 1-x\n", "quiz sizes '1-x'"),
        ("[constraints]\ndrop_ties_eps = 0.01\n", "unknown key 'drop_ties_eps'"),
        ("[benchmarks]\nselection_pool = 4\n",
         r"\[benchmarks\] selection_pool must be at least 5"),
        ("[benchmarks]\nselection_examples = 1\n",
         r"\[benchmarks\] selection_examples must be at least 2"),
        ("[benchmarks]\nselection_datasets = 0\n",
         r"\[benchmarks\] selection_datasets must be at least 1"),
        ("[benchmarks]\nquiz_test_examples = 9\n",
         r"\[benchmarks\] quiz_test_examples must be at least 10"),
        ("[benchmarks]\nquiz_train_examples = 0\n",
         r"\[benchmarks\] quiz_train_examples must be at least 1"),
        ("[benchmarks]\nselection_methods = ours,random,ours\n", "repeated method 'ours'"),
        ("[constraints]\nmi_reps_per_agent = 0\n",
         r"\[constraints\] mi_reps_per_agent must be at least 1, got 0"),
        ("[constraints]\npos_reps_per_agent = 0\n",
         r"\[constraints\] pos_reps_per_agent must be at least 1, got 0"),
        ("[benchmarks]\nselection_mi_reps = 0\n",
         r"\[benchmarks\] selection_mi_reps must be at least 1, got 0"),
        ("[benchmarks]\nselection_pos_reps = -1\n",
         r"\[benchmarks\] selection_pos_reps must be at least 1, got -1"),
        ("[benchmarks]\nprediction_methods = ours,predmodel\n",
         r"method 'predmodel' needs \[predmodel\] enabled = true"),
        ("[predmodel]\nenabled = false\n[benchmarks]\nselection_methods = predmodel\n",
         r"method 'predmodel' needs \[predmodel\] enabled = true"),
        ("[constraints]\nn_mi_train = 0\n",
         r"\[constraints\] n_mi_train must be at least 1, got 0"),
        ("[constraints]\nn_norm_val = 0\n",
         r"\[constraints\] n_norm_val must be at least 1, got 0"),
        ("[constraints]\nn_mi_test = 0\n",
         r"\[constraints\] n_mi_test must be at least 1, got 0"),
        ("[constraints]\npool_size = 1\n",
         r"\[constraints\] pool_size must be at least 2, got 1"),
        ("[benchmarks]\neval_tasks = 0\n",
         r"\[benchmarks\] eval_tasks must be at least 2, got 0"),
        ("[population]\nsnap_reps = 0\n",
         r"\[population\] snap_reps must be at least 1, got 0"),
        ("[population]\nsnap_size = 0\n",
         r"\[population\] snap_size must be at least 1, got 0"),
        ("[population]\nbc_rollouts = 0\n",
         r"\[population\] bc_rollouts must be at least 1, got 0"),
        ("[embedding]\nbatch_size = 0\n",
         r"\[embedding\] batch_size must be at least 1, got 0"),
        ("[embedding]\nepochs = 0\n", r"\[embedding\] epochs must be at least 1, got 0"),
        ("[predmodel]\nbatch_size = 0\n",
         r"\[predmodel\] batch_size must be at least 1, got 0"),
        ("[predmodel]\nn_rollouts = 0\n",
         r"\[predmodel\] n_rollouts must be at least 1, got 0"),
        ("[predmodel]\nepochs = 0\n", r"\[predmodel\] epochs must be at least 1, got 0"),
        ("[run]\nenv = multikeynav\n[embeding]\nepochs = 7\n[Population]\ntarget_size = 3\n",
         r"unknown section \[embeding\]"),
        ("[Population]\ntarget_size = 3\n", r"unknown section \[Population\]"),
        ("[DEFAULT]\nepochs = 7\n", r"unknown section \[DEFAULT\]"),
        ("[DEFAULT]\nthreads = 2\n[run]\nenv = multikeynav\n", r"unknown section \[DEFAULT\]"),
    ], ids=["tune_beta", "softnn_beta", "selection-method", "prediction-method", "quiz-size",
            "drop_ties_eps", "selection-pool-below-easy-refs", "one-selection-example",
            "no-selection-datasets", "quiz-test-below-folds", "no-quiz-train-examples",
            "repeated-method", "no-mi-reps", "no-pos-reps", "no-selection-mi-reps",
            "negative-selection-pos-reps", "predmodel-prediction-without-its-stage",
            "predmodel-selection-without-its-stage", "no-mi-train-constraints",
            "no-norm-val-constraints", "no-mi-test-constraints", "one-task-pool",
            "no-eval-tasks", "no-snapshot-reps", "no-snapshot-tasks", "no-bc-rollouts",
            "no-embedding-minibatch", "no-embedding-epochs", "no-predmodel-minibatch",
            "no-predmodel-rollouts", "no-predmodel-epochs", "misspelled-section",
            "mis-cased-section", "default-section", "default-section-beside-run"])
    def test_benchmark_settings_checked_at_load(self, text, match):
        with pytest.raises(cfgmod.ConfigError, match=match):
            cfgmod.parse_config(text)

    def test_smallest_benchmark_counts_load(self):
        cfgmod.parse_config("[benchmarks]\nselection_pool = 5\nselection_examples = 2\n"
                            "selection_datasets = 1\nquiz_train_examples = 1\n"
                            "quiz_test_examples = 10\nselection_mi_reps = 1\n"
                            "selection_pos_reps = 1\neval_tasks = 2\n"
                            "prediction_methods = predmodel\n[predmodel]\nenabled = true\n"
                            "epochs = 1\nbatch_size = 1\nn_rollouts = 1\n"
                            "[constraints]\nmi_reps_per_agent = 1\npos_reps_per_agent = 1\n"
                            "pool_size = 2\nn_mi_train = 1\nn_norm_train = 1\nn_mi_val = 1\n"
                            "n_norm_val = 1\nn_mi_test = 1\nn_norm_test = 1\n"
                            "[population]\nsnap_reps = 1\nsnap_size = 1\nbc_rollouts = 1\n"
                            "[embedding]\nepochs = 1\nbatch_size = 1\n")

    @pytest.mark.parametrize("manifest_path", sorted(REPO.glob("runs/*/manifest.txt")),
                             ids=lambda p: p.parent.name)
    def test_committed_stage_keys_match_their_config(self, manifest_path):
        # Every committed record must stay a cache hit: its recorded config
        # hash is the key the shipped config gives that stage today.
        [cfg] = [c for c in map(cfgmod.load_config, SHIPPED_CONFIGS)
                 if REPO / c.output_dir == manifest_path.parent]
        records = Manifest.load(manifest_path.parent).stages
        assert records
        for name, record in records.items():
            stage = pipeline.STAGES[name.removesuffix("-transfer")]
            assert record.config_hash == pipeline._stage_hash(cfg, stage.sections), name

    def test_every_key_varies_across_shipped_configs_or_names_its_reader(self):
        values: dict[tuple[str, str], set] = {}
        for cfg in map(cfgmod.load_config, SHIPPED_CONFIGS):
            for key, value in _config_keys(cfg).items():
                values.setdefault(key, set()).add(value)
        single = {key for key, seen in values.items() if len(seen) < 2}
        assert single == set(SINGLE_VALUED_KEYS)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        cfg = cfgmod.load_config(path)
        # Every shipped config names at least one method of each kind and a quiz size.
        assert pipeline._prediction_methods(cfg) and pipeline._selection_methods(cfg)
        assert cfgmod.parse_quiz_sizes(cfg.benchmarks.quiz_sizes)

    def test_unknown_env_rejected(self):
        with pytest.raises(Exception, match="unknown environment"):
            cfgmod.parse_config("[run]\nenv = atari\n")

    def test_quiz_size_specs(self):
        assert cfgmod.parse_quiz_sizes("1-5") == [1, 2, 3, 4, 5]
        assert cfgmod.parse_quiz_sizes("3") == [3]
        assert cfgmod.parse_quiz_sizes("1,20,5") == [1, 5, 20]
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.parse_quiz_sizes("0-3")

    def test_method_list_validated(self):
        with pytest.raises(cfgmod.ConfigError, match="unknown method"):
            cfgmod.parse_methods("ours,psychic", ("ours", "random"))

    def test_env_defaults_used_for_dims(self):
        cfg = cfgmod.parse_config("[run]\nenv = cartpolevar\n[population]\nrecipe = bias\n")
        assert cfg.embed_dim() == 3
        assert cfg.embed_dim_wonorm() == 2


class TestManifest:
    def test_record_and_reload(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("hello")
        man = Manifest.load(tmp_path)
        man.record("stage-a", "cafe01", {}, [f], 1.5)
        back = Manifest.load(tmp_path)
        rec = back.stages["stage-a"]
        assert rec.config_hash == "cafe01"
        assert rec.outputs == {"a.txt": file_hash(f)}
        assert rec.seconds == 1.5

    def test_up_to_date_detects_output_change(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("hello")
        man = Manifest.load(tmp_path)
        man.record("stage-a", "h", {}, [f], 0.0)
        assert man.up_to_date("stage-a", "h", {})
        assert not man.up_to_date("stage-a", "other", {})
        f.write_text("tampered")
        assert not man.up_to_date("stage-a", "h", {})

    def test_verify_upstream_raises_on_tamper(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("hello")
        man = Manifest.load(tmp_path)
        man.record("stage-a", "h", {}, [f], 0.0)
        f.write_text("tampered")
        man2 = Manifest.load(tmp_path)
        with pytest.raises(StaleArtifactError, match="modified"):
            man2.verify_upstream("stage-a")
        assert man2.verify_upstream("stage-a", force=True) == {"a.txt": file_hash(f)}

    def test_input_outside_root_absolute(self, tmp_path):
        root = tmp_path / "run"
        outside = tmp_path / "other" / "manifest"
        outside.parent.mkdir()
        outside.write_text("agents")
        man = Manifest.load(root)
        man.record("stage-a", "h", man.digests([outside]), [], 0.0)
        back = Manifest.load(root)
        assert back.stages["stage-a"].inputs == {"../other/manifest": file_hash(outside)}
        assert back.up_to_date("stage-a", "h", back.digests([outside]))
        outside.write_text("other agents")
        assert not back.up_to_date("stage-a", "h", back.digests([outside]))

    def test_input_outside_root_relative(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outside = tmp_path / "runs" / "other" / "population" / "manifest"
        outside.parent.mkdir(parents=True)
        outside.write_text("agents")
        rel_input = os.path.join("runs", "other", "population", "manifest")
        man = Manifest.load(os.path.join("runs", "this"))
        man.record("stage-a", "h", man.digests([rel_input]), [], 0.0)
        back = Manifest.load(os.path.join("runs", "this"))
        assert back.stages["stage-a"].inputs == {
            "../other/population/manifest": file_hash(outside)}
        assert back.up_to_date("stage-a", "h", back.digests([rel_input]))
        # The same file named by an absolute path keys the same way.
        assert back.up_to_date("stage-a", "h", back.digests([outside]))
        outside.write_text("other agents")
        assert not back.up_to_date("stage-a", "h", back.digests([rel_input]))

    def test_missing_stage_raises(self, tmp_path):
        man = Manifest.load(tmp_path)
        with pytest.raises(StaleArtifactError, match="has not been run"):
            man.verify_upstream("nope")

    @pytest.mark.parametrize("text", [
        "stage train-population", "seconds 1.0",
        "stage a config h\nseconds", "stage a config h\nseconds soon",
        "stage a config h\nseconds 1.0 2.0", "stage a config h\ninput a.txt",
        "stage a config h\nchecksum a.txt cafe01"])
    def test_malformed_line_names_file_and_line(self, tmp_path, text):
        (tmp_path / "manifest.txt").write_text(text + "\n")
        lineno = text.count("\n") + 1
        with pytest.raises(StaleArtifactError, match=f"manifest.txt:{lineno}:"):
            Manifest.load(tmp_path)

    def test_input_path_with_spaces_round_trips(self, tmp_path):
        outside = tmp_path / "other run" / "agent 0.txt"
        outside.parent.mkdir()
        outside.write_text("agents")
        man = Manifest.load(tmp_path / "run")
        man.record("stage-a", "h", man.digests([outside]), [], 0.0)
        back = Manifest.load(tmp_path / "run")
        assert back.stages["stage-a"].inputs == {"../other run/agent 0.txt": file_hash(outside)}
        assert back.up_to_date("stage-a", "h", back.digests([outside]))

    def test_save_leaves_no_temp_file(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("hello")
        man = Manifest.load(tmp_path)
        man.record("stage-a", "h", {}, [f], 0.0)
        man.record("stage-b", "h", man.digests([f]), [], 0.0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "manifest.txt"]
        assert set(Manifest.load(tmp_path).stages) == {"stage-a", "stage-b"}


class TestPipelineRun:
    def test_expected_artifacts_exist(self, tiny_run):
        root, _ = tiny_run
        for rel in [
            "population/manifest", "population/agent_0.txt",
            "constraints/pool.csv", "constraints/train.csv", "constraints/val.csv",
            "constraints/test.csv",
            "embedding/model.txt", "embedding/model_wonorm.txt",
            "embedding/model_random.txt", "embedding/trainlog.csv",
            "predmodel/model.txt",
            "benchmarks/quiz_size_1_test.csv", "benchmarks/quiz_size_3_train.csv",
            "benchmarks/prediction_results.csv",
            "benchmarks/selection_0.csv", "benchmarks/selection_results.csv",
            "benchmarks/silhouette.csv",
            "benchmarks/fig_prediction.csv", "benchmarks/fig_selection.csv",
            "viz/embeddings.csv", "viz/pca.csv", "viz/pca_variance.csv",
            "manifest.txt",
        ]:
            assert (root / rel).exists(), rel

    def test_prediction_results_have_all_method_size_rows(self, tiny_run):
        root, _ = tiny_run
        rows = pipeline.read_results(root / "benchmarks" / "prediction_results.csv")
        assert {(m, k) for m, k, _, _ in rows} == {
            (m, k) for m in ("ours", "random", "ignore_agent", "opt")
            for k in ("1", "3")}
        for _, _, mean, stderr in rows:
            assert 0.0 <= mean <= 1.0
            assert stderr >= 0.0

    def test_selection_results_cover_types_and_ks(self, tiny_run):
        root, _ = tiny_run
        rows = pipeline.read_results(root / "benchmarks" / "selection_results.csv")
        keys = {k for _, k, _, _ in rows}
        assert keys == {"type1_top1", "type1_top3", "type2_top1", "type2_top3"}

    def test_manifest_lists_every_artifact(self, tiny_run):
        root, _ = tiny_run
        man = Manifest.load(root)
        recorded = set()
        for rec in man.stages.values():
            recorded.update(rec.outputs)
            recorded.update(rec.inputs)
        on_disk = {str(p.relative_to(root)) for p in root.rglob("*")
                   if p.is_file() and p.name != "manifest.txt"}
        assert on_disk <= recorded

    def test_rerun_is_fully_cached(self, tiny_run, capsys):
        root, cfg_path = tiny_run
        code = cli.main(["run-all", "--config", str(cfg_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "running" not in out
        assert out.count("cached, skipping") >= 8

    def test_each_file_hashed_once_per_stage_run(self, tiny_run, tmp_path, monkeypatch):
        # export-viz reads train-embedding's 5 outputs and writes 4 files. Each is hashed
        # once, whether the stage is a cache hit, unrecorded or forced.
        root, cfg_path = tiny_run
        run = tmp_path / "artifacts"
        shutil.copytree(root, run)
        cfg = dataclasses.replace(cfgmod.load_config(cfg_path), output_dir=str(run))
        hashed = []
        monkeypatch.setattr(manifest, "file_hash",
                            lambda path: hashed.append(path) or file_hash(path))

        def calls(**kwargs):
            hashed.clear()
            pipeline.run_stage("export-viz", cfg, **kwargs)
            return len(hashed)

        assert calls() == 9
        man = Manifest.load(run)
        assert (len(man.stages["train-embedding"].outputs),
                len(man.stages["export-viz"].outputs)) == (5, 4)
        del man.stages["export-viz"]
        man.save()
        assert calls() == 9
        assert calls(force=True) == 9
        assert "export-viz" in Manifest.load(run).stages

    def test_stale_upstream_refused_then_forced(self, tiny_run, capsys):
        root, cfg_path = tiny_run
        target = root / "constraints" / "train.csv"
        original = target.read_bytes()
        try:
            target.write_bytes(original + b"\n")
            code = cli.main(["train-embedding", "--config", str(cfg_path)])
            assert code == 1
            assert "modified" in capsys.readouterr().err
        finally:
            target.write_bytes(original)

    def test_dim_sweep_covers_dims_1_to_10(self, tiny_run):
        root, cfg_path = tiny_run
        cfg = cfgmod.load_config(cfg_path)
        pipeline.run_stage("dim-sweep", cfg)
        lines = (root / "eval" / "dim_sweep.csv").read_text().splitlines()
        assert lines[0] == "dim,best_val_loss,test_loss"
        assert len(lines) == 11
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 11))

    def test_transfer_prediction_with_external_agents(self, tiny_run, capsys):
        root, cfg_path = tiny_run
        # The hidden agents live in a sibling directory, outside the run root.
        external = root.parent / "external_population"
        shutil.copytree(root / "population", external)
        argv = ["eval-prediction", "--config", str(cfg_path),
                "--agent-population", str(external)]
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert "[eval-prediction-transfer] running" in capsys.readouterr().out
        path = root / "benchmarks" / "prediction_results_transfer.csv"
        assert path.exists()

        assert cli.main(argv) == 0
        assert "[eval-prediction-transfer] cached, skipping" in capsys.readouterr().out

        # Same agent metadata, different weights: the cache must not serve it.
        a, b = external / "agent_0.txt", external / "agent_1.txt"
        a_bytes, b_bytes = a.read_bytes(), b.read_bytes()
        assert a_bytes != b_bytes
        a.write_bytes(b_bytes)
        b.write_bytes(a_bytes)
        assert cli.main(argv) == 0
        assert "[eval-prediction-transfer] running" in capsys.readouterr().out

    def test_transfer_population_of_another_env_refused(self, tiny_run, tmp_path, capsys):
        # This run's agents relabeled as multikeynav_ab: the same state fields and nets,
        # so only the env name tells the populations apart.
        root, _ = tiny_run
        run, external = tmp_path / "artifacts", tmp_path / "external"
        shutil.copytree(root, run)
        shutil.copytree(root / "population", external)
        lines = (external / "manifest").read_text().splitlines(keepends=True)
        assert lines[0] == "env multikeynav\n"
        (external / "manifest").write_text("env multikeynav_ab\n" + "".join(lines[1:]))
        (run / "benchmarks" / "prediction_results_transfer.csv").unlink(missing_ok=True)
        before = (run / "manifest.txt").read_bytes()
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG.format(out=run))
        capsys.readouterr()
        assert cli.main(["eval-prediction", "--config", str(cfg_path),
                         "--agent-population", str(external)]) == 1
        err = capsys.readouterr().err
        assert "multikeynav_ab" in err and "env is multikeynav" in err
        assert not (run / "benchmarks" / "prediction_results_transfer.csv").exists()
        assert (run / "manifest.txt").read_bytes() == before

    def test_transfer_oracle_rolls_out_the_external_agents(self, tiny_run):
        # The external population is this run's agents reversed, twice over: a hidden
        # agent's index means an agent there, and may lie beyond this run's population.
        root, cfg_path = tiny_run
        cfg = cfgmod.load_config(cfg_path)
        own = pop.load_population(root / "population")
        external = root.parent / "reversed_population"
        pop.save_population(pop.Population(own.env, own.snapshots[::-1] * 2), external)
        pipeline.run_stage("eval-prediction", cfg, force=True, agent_population_dir=external)
        bench = root / "benchmarks"
        rows = pipeline.read_results(bench / "prediction_results_transfer.csv")
        agents, seeds = pop.load_population(external), cfg.seeds
        opt = pipeline._prediction_methods(cfg).index("opt")
        for size in cfgmod.parse_quiz_sizes(cfg.benchmarks.quiz_sizes):
            test = prediction.load_quiz_dataset(bench / f"quiz_size_{size}_test_transfer.csv")
            assert max(ex.agent_index for ex in test) >= len(own)
            preds = prediction.baseline_predictions(
                "opt", test, agents, make_rng(seeds.root, seeds.benchmarks, 12, size, opt))
            mean, stderr, _ = prediction.eval_prediction(
                preds, [ex.test_outcome for ex in test],
                make_rng(seeds.root, seeds.benchmarks, 11, size))
            assert ("opt", str(size), mean, stderr) in rows


    def test_transfer_ignore_task_rolls_out_the_external_agents(self, tiny_run, tmp_path):
        # External agents 0 and 1 are desk agents 8 and 0, which solve about 89% and 1% of
        # random tasks, so ignore_task predicts success exactly for hidden agent 0. This
        # run's own agent 0 is an untrained snapshot that almost never succeeds.
        root, cfg_path = tiny_run
        run, external = tmp_path / "artifacts", tmp_path / "external"
        shutil.copytree(root, run)
        desk = pop.load_population(REPO / "runs" / "multikeynav-desk" / "population")
        pop.save_population(desk.subset([8, 0]), external)
        cfg = cfgmod.load_config(cfg_path)
        cfg = dataclasses.replace(cfg, output_dir=str(run), benchmarks=dataclasses.replace(
            cfg.benchmarks, prediction_methods="random,ignore_task"))
        pipeline.run_stage("eval-prediction", cfg, force=True, agent_population_dir=external)
        bench, seeds = run / "benchmarks", cfg.seeds
        rows = pipeline.read_results(bench / "prediction_results_transfer.csv")
        for size in cfgmod.parse_quiz_sizes(cfg.benchmarks.quiz_sizes):
            test = prediction.load_quiz_dataset(bench / f"quiz_size_{size}_test_transfer.csv")
            preds = np.array([ex.agent_index == 0 for ex in test], dtype=np.uint8)
            assert 0 < preds.sum() < len(test)
            mean, stderr, _ = prediction.eval_prediction(
                preds, [ex.test_outcome for ex in test],
                make_rng(seeds.root, seeds.benchmarks, 11, size))
            assert ("ignore_task", str(size), mean, stderr) in rows

    def test_truncated_agent_file_exits_1_with_location(self, tiny_run, capsys):
        root, cfg_path = tiny_run
        external = root.parent / "truncated_population"
        shutil.copytree(root / "population", external)
        agent = external / "agent_3.txt"
        data = agent.read_text()
        kept = data[:len(data) // 2]
        agent.write_text(kept)
        argv = ["eval-prediction", "--config", str(cfg_path),
                "--agent-population", str(external)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"{agent}:{kept.count(chr(10)) + 1}:" in err
        assert "ArtifactFormatError" in err


@pytest.mark.parametrize("split, line, edit, index", [
    ("train", 2, lambda row: "mi,99999," + row.split(",", 2)[2], 99999),
    ("val", 801, lambda row: "norm,774,800," + row.split(",", 3)[3], 800),
], ids=["triplet-task1", "last-pair-task2"])
def test_task_index_beyond_the_pool_is_a_located_error(tmp_path, split, line, edit, index):
    # Copies of the committed desk files (800 pool tasks), one index pushed past the pool.
    shutil.copytree(REPO / "runs" / "multikeynav-desk" / "constraints", tmp_path / "constraints")
    path = tmp_path / "constraints" / f"{split}.csv"
    with open(path, newline="", encoding="utf-8") as fp:
        rows = fp.readlines()
    rows[line - 1] = edit(rows[line - 1])
    with open(path, "w", newline="", encoding="utf-8") as fp:
        fp.writelines(rows)
    cfg = cfgmod.parse_config("[run]\nenv = multikeynav\n")
    with pytest.raises(nn.ArtifactFormatError,
                       match=f"{split}.csv:{line}: task index {index} is outside the pool "
                             f"of 800 tasks"):
        pipeline._load_constraint_artifacts(cfg, tmp_path)



def test_mi_row_after_a_norm_row_is_a_located_error(tmp_path):
    # A norm row moved before the mi rows would shift every mi row's line against the
    # "triplets, then pairs" numbering of the pool check, so the loader rejects the order.
    shutil.copytree(REPO / "runs" / "multikeynav-desk" / "constraints", tmp_path / "constraints")
    path = tmp_path / "constraints" / "train.csv"
    with open(path, newline="", encoding="utf-8") as fp:
        header, *rows = fp.readlines()
    norm = next(k for k, row in enumerate(rows) if row.startswith("norm,"))
    rows = [rows[norm], "mi,99999," + rows[0].split(",", 2)[2], *rows[1:norm], *rows[norm + 1:]]
    with open(path, "w", newline="", encoding="utf-8") as fp:
        fp.writelines([header, *rows])
    cfg = cfgmod.parse_config("[run]\nenv = multikeynav\n")
    with pytest.raises(nn.ArtifactFormatError, match="train.csv:3: an mi row after a norm row"):
        pipeline._load_constraint_artifacts(cfg, tmp_path)

def test_committed_rollout_free_desk_stages_rewrite_their_bytes(tmp_path):
    # The multikeynav desk stages that make no rollouts are cheap enough to rerun
    # in a test; each must write exactly the committed bytes. Only the manifest and
    # the constraint sets are copied, so every compared output is freshly written.
    desk = REPO / "runs" / "multikeynav-desk"
    [cfg] = [c for c in map(cfgmod.load_config, SHIPPED_CONFIGS) if REPO / c.output_dir == desk]
    cfg.output_dir = str(tmp_path)
    shutil.copy(desk / "manifest.txt", tmp_path)
    shutil.copytree(desk / "constraints", tmp_path / "constraints")
    committed = Manifest.load(desk).stages
    for stage in ("train-embedding", "train-predmodel", "silhouette"):
        pipeline.run_stage(stage, cfg, force=True)
        outputs = committed[stage].outputs
        assert Manifest.load(tmp_path).stages[stage].outputs == outputs, stage
        for rel in outputs:
            assert (tmp_path / rel).read_bytes() == (desk / rel).read_bytes(), rel


@pytest.mark.parametrize("threads", [1, 2])
def test_committed_desk_pos_table_rebuilds_at_any_thread_count(threads):
    # gen-constraints' difficulty table, rebuilt through Population.outcome_table with the
    # stage's streams: every committed pair's success rates must come out bit for bit.
    desk = REPO / "runs" / "multikeynav-desk"
    [cfg] = [c for c in map(cfgmod.load_config, SHIPPED_CONFIGS) if REPO / c.output_dir == desk]
    pool_rng = make_rng(cfg.seeds.root, cfg.seeds.constraints)
    pool = sample_tasks(cfg.env, cfg.constraints.pool_size, pool_rng)
    assert np.array_equal(pool, load_tasks(desk / "constraints" / "pool.csv")[1])
    popn = pop.load_population(desk / "population")
    pos = popn.outcome_table(pool, cfg.constraints.pos_reps_per_agent, pool_rng.spawn(3)[1],
                             threads=threads).mean(axis=1)
    for split in ("train", "val", "test"):
        cset = sim.load_constraints(desk / "constraints" / f"{split}.csv", cfg.env)
        assert np.array_equal(pos[cset.pairs], cset.pos), split


def test_committed_desk_quiz_regenerates_its_bytes(tmp_path):
    # eval-prediction's quiz datasets come from Population.rollouts; quiz size 1, drawn on the
    # stage's stream (train, then test), must write exactly the committed bytes. The
    # baselines that need no model, each on its stage stream, must then give their
    # committed rows.
    desk = REPO / "runs" / "multikeynav-desk"
    [cfg] = [c for c in map(cfgmod.load_config, SHIPPED_CONFIGS) if REPO / c.output_dir == desk]
    popn, b = pop.load_population(desk / "population"), cfg.benchmarks
    rng = make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 10, 1)
    for split, n_examples in (("train", b.quiz_train_examples), ("test", b.quiz_test_examples)):
        name = f"quiz_size_1_{split}.csv"
        dataset = prediction.gen_quiz_dataset(popn, 1, n_examples, rng)
        prediction.save_quiz_dataset(tmp_path / name, cfg.env, dataset)
        assert (tmp_path / name).read_bytes() == (desk / "benchmarks" / name).read_bytes()
    committed = pipeline.read_results(desk / "benchmarks" / "prediction_results.csv")
    methods = pipeline._prediction_methods(cfg)
    for method in ("random", "ignore_agent", "opt"):
        preds = prediction.baseline_predictions(
            method, dataset, popn,
            make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 12, 1, methods.index(method)))
        mean, stderr, _ = prediction.eval_prediction(
            preds, dataset.test_outcome, make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 11, 1))
        assert (method, "1", mean, stderr) in committed, method


def test_committed_desk_selection_dataset_regenerates_its_bytes(tmp_path):
    # eval-selection's dataset 0, drawn on the stage's stream: its 550-task MI table and
    # labels, and its success-rate tables, must write exactly the committed bytes.
    desk = REPO / "runs" / "multikeynav-desk"
    [cfg] = [c for c in map(cfgmod.load_config, SHIPPED_CONFIGS) if REPO / c.output_dir == desk]
    popn = dataclasses.replace(pop.load_population(desk / "population"), threads=2)
    b = cfg.benchmarks
    dataset = selection.gen_selection_dataset(
        popn, b.selection_examples, make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 20, 0),
        mi_reps_per_agent=b.selection_mi_reps, pos_reps_per_agent=b.selection_pos_reps,
        easy_pool_size=b.selection_pool)
    path = selection.save_selection_dataset(tmp_path / "selection_0.csv", cfg.env, dataset)
    assert path.read_bytes() == (desk / "benchmarks" / "selection_0.csv").read_bytes()


@pytest.mark.parametrize("run, size, suffix", [
    *(("multikeynav-desk", size, "") for size in range(1, 21)),
    ("multikeynav-bias-desk", 20, "_transfer"),
], ids=[*(f"size-{size}" for size in range(1, 21)), "transfer"])
def test_committed_quiz_files_give_the_committed_ours_row(run, size, suffix):
    # eval-prediction makes rollouts and is never rerun here; its soft-NN half is.
    # Every prediction must come out as when the committed row was written: the
    # stage's blocked scoring, one example at a time, and the folded accuracy.
    root = REPO / "runs" / run
    [cfg] = [c for c in map(cfgmod.load_config, SHIPPED_CONFIGS) if REPO / c.output_dir == root]
    model = emb.load_embedding_model(root / "embedding" / "model.txt")
    bench = root / "benchmarks"
    train = prediction.load_quiz_dataset(bench / f"quiz_size_{size}_train{suffix}.csv")
    test = prediction.load_quiz_dataset(bench / f"quiz_size_{size}_test{suffix}.csv")
    beta = prediction.tune_beta(model, train)
    preds = (prediction.softnn_scores(model, test, [beta])[0] > 0.5).astype(np.uint8)
    assert preds.tolist() == [prediction.predict_softnn(model, ex, beta) for ex in test]
    mean, stderr, _ = prediction.eval_prediction(
        preds, [ex.test_outcome for ex in test],
        make_rng(cfg.seeds.root, cfg.seeds.benchmarks, 11, size))
    committed = pipeline.read_results(bench / f"prediction_results{suffix}.csv")
    assert ("ours", str(size), mean, stderr) in committed


@pytest.mark.parametrize("method", ["ours", "ours_wonorm", "random", "state_sim",
                                    "trajectory_sim"])
def test_committed_selection_datasets_give_the_committed_rows(method):
    # eval-selection draws its datasets with rollouts and is never rerun here; its methods
    # that need no population are. Each must rank every committed dataset as when the
    # committed rows were written, with the stage's per-method stream.
    root = REPO / "runs" / "multikeynav-desk"
    [cfg] = [c for c in map(cfgmod.load_config, SHIPPED_CONFIGS) if REPO / c.output_dir == root]
    seeds = cfg.seeds
    res = selection.SelectionResources(
        env=cfg.env, model=emb.load_embedding_model(root / "embedding" / "model.txt"),
        model_wonorm=emb.load_embedding_model(root / "embedding" / "model_wonorm.txt"))
    accs = {(t, k): [] for t in (1, 2) for k in (1, 3)}
    for d in range(cfg.benchmarks.selection_datasets):
        dataset = selection.load_selection_dataset(root / "benchmarks" / f"selection_{d}.csv")
        rng = make_rng(seeds.root, seeds.benchmarks, 22, d,
                       pipeline._selection_methods(cfg).index(method))
        rankings, _ = selection.rank_options(method, dataset, res, rng)
        for (t, k), vals in accs.items():
            rows = [i for i, ex in enumerate(dataset) if ex.query_type == t]
            vals.append(selection.topk_accuracy(rankings[rows],
                                                [dataset[i].ground_truth for i in rows], k))
    committed = pipeline.read_results(root / "benchmarks" / "selection_results.csv")
    for (t, k), vals in accs.items():
        assert (method, f"type{t}_top{k}", *fold_mean_stderr(vals)) in committed


def _resave(src: Path, dst: Path) -> None:
    """Load a committed CSV with its loader and write it again the way its stage does."""
    if src.name == "pool.csv":
        save_tasks(dst, *load_tasks(src))
    elif src.name in ("train.csv", "val.csv", "test.csv"):
        sim.save_constraints(dst, sim.load_constraints(src, "multikeynav"))
    elif src.name.startswith("quiz_size_"):
        prediction.save_quiz_dataset(dst, "multikeynav", prediction.load_quiz_dataset(src))
    elif src.name.endswith("_results.csv"):
        nn.write_csv(dst, pipeline.RESULTS_HEADER, pipeline.read_results(src))
    else:
        selection.save_selection_dataset(dst, "multikeynav",
                                         selection.load_selection_dataset(src))


@pytest.mark.parametrize("rel", [
    *(f"multikeynav-desk/constraints/{n}.csv" for n in ("pool", "train", "val", "test")),
    *(f"multikeynav-desk/benchmarks/quiz_size_{size}_{split}.csv"
      for size in (1, 20) for split in ("train", "test")),
    *(f"multikeynav-desk/benchmarks/selection_{d}.csv" for d in range(4)),
    "multikeynav-desk/benchmarks/prediction_results.csv",
    "multikeynav-desk/benchmarks/selection_results.csv",
    "cartpolevar-desk/constraints/pool.csv",
])
def test_committed_csv_loads_and_saves_to_its_bytes(tmp_path, rel):
    # The stages that write these files make rollouts and are never rerun here, so
    # this is the check that their loaders and writers keep the committed bytes.
    src = REPO / "runs" / rel
    _resave(src, tmp_path / src.name)
    assert (tmp_path / src.name).read_bytes() == src.read_bytes()


def test_interrupted_stage_reruns_to_an_uninterrupted_runs_bytes(tmp_path, monkeypatch):
    # A stage that dies after its first output file gets no manifest record,
    # so the next run redoes it whole.
    cfg = cfgmod.load_config(REPO / "configs" / "tiny.cfg")
    cfg.output_dir = str(tmp_path / "whole")
    pipeline.run_stage("train-population", cfg)
    shutil.copytree(tmp_path / "whole", tmp_path / "cut")
    pipeline.run_stage("gen-constraints", cfg)

    save_tasks = pipeline.save_tasks

    def save_then_die(*args, **kwargs):  # gen-constraints writes pool.csv first
        save_tasks(*args, **kwargs)
        raise KeyboardInterrupt

    cfg.output_dir = str(tmp_path / "cut")
    monkeypatch.setattr(pipeline, "save_tasks", save_then_die)
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_stage("gen-constraints", cfg)
    monkeypatch.undo()
    cut = tmp_path / "cut" / "constraints"
    assert [p.name for p in cut.iterdir()] == ["pool.csv"]
    assert "gen-constraints" not in Manifest.load(tmp_path / "cut").stages

    pipeline.run_stage("gen-constraints", cfg)
    whole = tmp_path / "whole" / "constraints"
    assert sorted(p.name for p in cut.iterdir()) == sorted(p.name for p in whole.iterdir())
    for path in whole.iterdir():
        assert (cut / path.name).read_bytes() == path.read_bytes(), path.name
    assert (Manifest.load(tmp_path / "cut").stages["gen-constraints"].outputs
            == Manifest.load(tmp_path / "whole").stages["gen-constraints"].outputs)


class TestCliErrors:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nenv = atari\n")
        assert cli.main(["train-population", "--config", str(bad)]) == 2
        assert "valid options" in capsys.readouterr().err

    def test_missing_config_exits_2(self):
        assert cli.main(["train-population", "--config", "/nonexistent.cfg"]) == 2

    def test_missing_upstream_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[run]\nenv = multikeynav\noutput_dir = {tmp_path}/empty\n")
        assert cli.main(["gen-constraints", "--config", str(cfg)]) == 1
        assert "has not been run" in capsys.readouterr().err

    def test_truncated_manifest_exits_1_with_location(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.txt").write_text("stage train-population")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[run]\nenv = multikeynav\noutput_dir = {out}\n")
        assert cli.main(["gen-constraints", "--config", str(cfg)]) == 1
        assert f"{out / 'manifest.txt'}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("typo, message", [
        ("[population]\nbc_epoch = 3\n", "[population] unknown key 'bc_epoch'"),
        ("[benchmarks]\nselection_methods = ours,bogus\n", "unknown method 'bogus'"),
        ("[benchmarks]\nquiz_sizes = 1-x\n", "quiz sizes '1-x'"),
        ("threads = two\n", "[run] threads: invalid literal"),
        ("[benchmarks]\nselection_pool = 3\n", "[benchmarks] selection_pool must be at least 5"),
        ("[population]\nrecipe = mask\n", "[population] recipe: unknown recipe kind 'mask'"),
        ("env = pointmass\n", "[population] recipe: pointmass: no mask recipe defined"),
        ("thread = 2\n", "[run] unknown key 'thread'"),
        ("[embeding]\nepochs = 7\n[Population]\ntarget_size = 3\n",
         "unknown section [embeding]"),
        ("[Population]\ntarget_size = 3\n", "unknown section [Population]"),
    ], ids=["unknown-key", "selection-method", "quiz-size", "threads", "selection-pool",
            "recipe-kind", "env-without-masks", "run-unknown-key", "misspelled-section",
            "mis-cased-section"])
    def test_config_typo_exits_2_before_any_stage(self, tmp_path, capsys, monkeypatch, typo,
                                                   message):
        started = []  # a stand-in runner, so a missed typo cannot start a full-scale run
        monkeypatch.setattr(pipeline, "run_stage", lambda name, *a, **k: started.append(name))
        out = tmp_path / "run"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[run]\noutput_dir = {out}\n{typo}")
        assert cli.main(["run-all", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert started == []
        assert not (out / "manifest.txt").exists()

    def test_bad_threads_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[run]\nenv = multikeynav\n")
        assert cli.main(["train-population", "--config", str(cfg), "--threads", "0"]) == 2


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_truncated_results_give_first_rows_or_a_located_error(tmp_path, data):
    check_truncations(pipeline.read_results,
                      REPO / "runs/multikeynav-desk/benchmarks/prediction_results.csv",
                      tmp_path, data)


@pytest.mark.parametrize("header", ["method,quiz_size_or_type,stderr,mean",
                                    "method,quiz_size,mean,stderr"])
def test_result_csv_with_another_header_is_a_located_error(tmp_path, header):
    lines = (REPO / "runs/multikeynav-desk/benchmarks/selection_results.csv").read_text(
        ).splitlines(keepends=True)
    path = tmp_path / "selection_results.csv"
    path.write_text("".join([header + "\r\n", *lines[1:]]), newline="")
    with pytest.raises(nn.ArtifactFormatError, match=re.escape(
            f"{path}:1: header {header.split(',')} != {list(pipeline.RESULTS_HEADER)}")):
        pipeline.read_results(path)
