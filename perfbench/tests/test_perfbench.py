"""The benchmark's own checks: wrappers restore, counts repeat, tracing changes no output.

    python3 -m pytest -q perfbench/tests

Each workload runs its round 0 once untraced and twice traced (about a
minute in all on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.WORK / "tests" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bindings():
    """Every function-valued binding the tracer may touch, by (owner id, name)."""
    from taskemb.envs import core as envcore
    from taskemb import embedding, population

    owners = [m for n, m in sys.modules.items() if n == "taskemb" or n.startswith("taskemb.")]
    owners += [population.Policy, population.Population, embedding.EmbeddingNet]
    owners += [envcore.get_env(e) for e in run.ENVS]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_wrappers_restore_the_original_functions():
    from taskemb import population

    before = _bindings()
    tracer = Tracer().install()
    assert population.rollout_batch is not before[(id(population), "rollout_batch")]
    assert len(tracer.patched()) > 40
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_tracing_changes_no_output(name, work):
    wl = workloads.WORKLOADS[name](0, work)
    wl.setup()
    bench = run.Run(wl)
    bench.round(0)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        bench.round(0, tracer)
        metrics = run.layer_metrics(tracer)
        counts.append({k: metrics[k] for k in run.CLAIMABLE_COUNTS})
    assert bench.errors == []  # every traced round reproduced the untraced outputs
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"] for m in spec["per_layer"]}
    emitted = set(run.layer_metrics(Tracer())) | set(run.TRACE_METRICS)
    assert emitted == listed
    assert set(run.CLAIMABLE_COUNTS) <= listed
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_refuses_to_run_without_the_program(work):
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(BENCH_DIR, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rollouts_dyn",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=work, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
