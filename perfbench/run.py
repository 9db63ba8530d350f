#!/usr/bin/env python3
"""taskemb benchmark: run one workload from a seed, check its outputs, print metrics.

    python3 perfbench/run.py --workload pipeline_mkn --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it holds
details (per-round samples, stage seconds, output digests, machine and
environment metadata). `--trace 0` reports the end-to-end metrics with no
wrappers installed; `--trace 1` reports the per-layer metrics from one traced
round, plus the traced-vs-untraced wall difference. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import ENVS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
PER_CALL = ("nn.mlp_forward", "population.Policy.act", "envs.rollout_batch",
            *(f"envs.step_batch.{e}" for e in ENVS))
SELECT_METHODS = ("ours", "ours_wonorm", "random", "state_sim", "trajectory_sim", "opt50")
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_frac")
# Counts a later change may claim as counts: they repeat exactly for a seed.
CLAIMABLE_COUNTS = ("envs.rollout_batch.episodes", "envs.rollout_batch.steps",
                    *(f"envs.step_batch.{e}.rows" for e in ENVS),
                    "population.outcome_table.cells", "nn.mlp_forward.rows",
                    "population.Population.policy.calls", "embedding.EmbeddingNet.embed.calls",
                    "prediction.predict_softnn.calls", "stats.levenshtein.calls",
                    "io.read.bytes", "io.write.bytes")


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=non_negative, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the program, run the workload's set-up and exit")
    p.add_argument("--write-reference", action="store_true",
                   help="run round 0 and store its digests in perfbench/reference.json")
    return p.parse_args(argv)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    n = len(values)
    out = {"n": n, "median": quantile(values, 0.5), "p": None, "value": None,
           "samples": list(values)}
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        out.update(p=p, value=quantile(values, p / 100))
    return out


def metadata() -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(info.get(k, "")) for k in ("name", "version",
                                                       "openblas configuration")).strip()
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
            "platform": platform.platform(), "git_commit": commit or "unknown"}


class Run:
    """One benchmark run: rounds, their checks, and the failure count."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.errors: list[str] = []

    def round(self, i: int, tracer=None) -> tuple[float, float] | None:
        """Run and check round i; (wall, CPU) seconds of the program work, None if it raised."""
        self.attempted += self.wl.ops_per_round()
        if tracer is not None:
            tracer.install()
        out = times = None
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                c0, t0 = time.process_time(), time.perf_counter()
                out = self.wl.run_round(i)
                times = time.perf_counter() - t0, time.process_time() - c0
        except Exception:
            self.errors.append(f"round {i} raised:\n{traceback.format_exc()}")
        finally:
            if tracer is not None:
                patches = tracer.patched()
                tracer.uninstall()
                if any(owner.__dict__[attr] is not orig for owner, attr, orig in patches):
                    self.errors.append("tracer left a wrapper installed")
        if out is not None:
            found = self.wl.check_round(i, out)
            self.errors.extend(found[: self.wl.ops_per_round()])
        return times


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return walls


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round, by the names listed in BENCHMARK.json."""
    selfs = tracer.self_times()
    calls, rows, self_s, counts = {}, {}, {}, {}
    per_call: dict[str, list[tuple[float, int]]] = {k: [] for k in PER_CALL}
    busy = capacity = table_wall = 0.0
    children: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent >= 0:
            children[s.parent] = children.get(s.parent, 0.0) + (s.end - s.start)
    for i, (s, st) in enumerate(zip(tracer.spans, selfs)):
        calls[s.name] = calls.get(s.name, 0) + 1
        rows[s.name] = rows.get(s.name, 0) + s.rows
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        for key, n in (s.counts or {}).items():
            counts[(s.name, key)] = counts.get((s.name, key), 0) + n
        if s.name in per_call:
            per_call[s.name].append((s.end - s.start, s.rows))
        if s.name == "population.outcome_table":
            busy += children.get(i, 0.0)
            capacity += s.counts["threads"] * (s.end - s.start)
            table_wall += s.end - s.start

    def total(name):
        return sum(s.end - s.start for s in tracer.spans if s.name == name)

    m: dict[str, float] = {}
    for env in ENVS:
        key = f"envs.step_batch.{env}"
        m.update({f"{key}.calls": calls.get(key, 0), f"{key}.rows": rows.get(key, 0),
                  f"{key}.self_s": self_s.get(key, 0.0)})
    rb = "envs.rollout_batch"
    m.update({f"{rb}.calls": calls.get(rb, 0), f"{rb}.episodes": rows.get(rb, 0),
              f"{rb}.steps": counts.get((rb, "steps"), 0), f"{rb}.self_s": self_s.get(rb, 0.0),
              "envs.sample_tasks.self_s": self_s.get("envs.sample_tasks", 0.0)})
    for name, fields in (("nn.mlp_forward", ("calls", "rows", "self_s")),
                         ("nn.mlp_forward_cached", ("self_s",)),
                         ("nn.mlp_backward", ("self_s",)),
                         ("nn.adam_step", ("calls", "self_s")),
                         ("population.Policy.act", ("calls", "rows", "self_s")),
                         ("population.Population.policy", ("calls",)),
                         ("population.outcome_table", ("calls", "self_s")),
                         ("population.train_bc", ("self_s",)),
                         ("similarity.label_triplet", ("calls", "self_s")),
                         ("similarity.gen_constraint_splits", ("self_s",)),
                         ("embedding.train_embedding", ("self_s",)),
                         ("embedding.EmbeddingNet.embed", ("calls", "rows", "self_s")),
                         ("prediction.gen_quiz_dataset", ("self_s",)),
                         ("prediction.tune_beta", ("self_s",)),
                         ("prediction.baseline_predictions", ("self_s",)),
                         ("prediction.predict_softnn", ("calls",)),
                         ("selection.gen_selection_dataset", ("self_s",)),
                         ("stats.levenshtein", ("calls", "self_s")),
                         ("predmodel.train_predmodel", ("self_s",)),
                         ("clusters.silhouette_for_model", ("self_s",)),
                         ("io.write", ("self_s",)),
                         ("io.read", ("self_s",)),
                         ("manifest.file_hash", ("calls", "self_s"))):
        source = {"calls": calls, "rows": rows, "self_s": self_s}
        for f in fields:
            m[f"{name}.{f}"] = source[f].get(name, 0.0 if f == "self_s" else 0)
    cells = counts.get(("population.outcome_table", "cells"), 0)
    m["population.outcome_table.cells"] = cells
    m["population.outcome_table.busy_frac"] = busy / capacity if capacity else 0.0
    m["population.outcome_table.cells_per_s"] = cells / table_wall if table_wall else 0.0
    m["embedding.train_embedding.epochs"] = counts.get(("embedding.train_embedding", "epochs"), 0)
    for method in SELECT_METHODS:
        m[f"selection.select.{method}.self_s"] = self_s.get(f"selection.select.{method}", 0.0)
    rated = counts.get(("selection.gen_selection_dataset", "type2_rated"), 0)
    kept = counts.get(("selection.gen_selection_dataset", "type2_kept"), 0)
    m["selection.type2_accept_ratio"] = kept / rated if rated else 0.0
    for io_name in ("io.write", "io.read", "manifest.file_hash"):
        m[f"{io_name}.bytes"] = counts.get((io_name, "bytes"), 0)
    from workloads import RUN_ALL
    for stage in RUN_ALL:
        m[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")
    for name, samples in per_call.items():
        times = [t * 1e6 for t, _ in samples]
        sizes = [r for _, r in samples]
        m.update({f"{name}.call_p50_us": quantile(times, 0.5),
                  f"{name}.call_p90_us": quantile(times, 0.9),
                  f"{name}.rows_p50": quantile(sizes, 0.5),
                  f"{name}.rows_p90": quantile(sizes, 0.9)})
    return m


def run(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    if args.setup_only:
        wl.setup()
        return 0
    wl.setup()
    if args.write_reference:
        from workloads import REFERENCE, load_reference
        ref = load_reference()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            wl.make_reference(ref.setdefault(wl.name, {}))
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    setup_walls = measure_setup(args)
    bench = Run(wl)

    walls, cpus, traced_walls = [], [], []
    layer_tracer = None
    start = time.perf_counter()
    i = 0
    while True:
        if args.trace:
            # untraced and traced runs of the same round, alternating which goes first
            first_traced = i % 2 == 1
            for traced in (first_traced, not first_traced):
                tracer = Tracer() if traced else None
                times = bench.round(i, tracer)
                if times is not None:
                    (traced_walls if traced else walls).append(times[0])
                    if traced and layer_tracer is None:
                        layer_tracer = tracer
            step = walls[-1] + traced_walls[-1] if walls and traced_walls else 0.0
        else:
            times = bench.round(i)
            if times is not None:
                walls.append(times[0])
                cpus.append(times[1])
            step = statistics.median(walls) if walls else 0.0
        i += 1
        elapsed = time.perf_counter() - start
        if (i >= (1 if args.trace else wl.min_rounds) and elapsed + step > args.seconds
                or elapsed > 3 * args.seconds):
            break

    n_final, final_errors = wl.final_checks()
    bench.attempted += n_final
    bench.errors.extend(final_errors)
    failed = len(bench.errors)
    for err in bench.errors:
        print(f"perfbench: {err}", file=sys.stderr)
    if not walls or (args.trace and layer_tracer is None):
        print("perfbench: no round completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        metrics = {**layer_metrics(layer_tracer),
                   **dict(zip(TRACE_METRICS, (untraced, traced, traced / untraced - 1.0)))}
        layer_tracer.write_spans(out_dir / "spans.csv")
    else:
        metrics = dict(zip(END_TO_END, (
            statistics.median(walls), statistics.median(cpus), statistics.median(setup_walls),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)))
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(walls), "wall_s": tail(walls), "cpu_s": tail(cpus),
              "setup_s": setup_walls, "details": wl.details(walls), "meta": metadata()}
    (out_dir / "result.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1),
                                         encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "taskemb" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'taskemb'} not found; run the benchmark from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
