"""Span tracing from outside the program: wrap public functions, restore them after.

A `Tracer` replaces chosen functions of the `taskemb` package with wrappers
that record one span per call (name, start, end, parent span, rows) plus
named counts. Functions imported by value into other modules (for example
`population.rollout_batch`) are found by identity and wrapped at every
binding, so no call path escapes. Spans stay in memory until `write_spans`.

Self time of a span is its duration minus the part of its interval that its
child spans cover. Worker-thread spans whose own stack is empty take the
main thread's innermost open span as parent, so the per-agent rollouts of a
threaded `outcome_table` call are its children.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import types

import numpy as np

ENVS = ("multikeynav", "cartpolevar", "pointmass")


class Span:
    __slots__ = ("name", "start", "end", "parent", "rows", "counts")

    def __init__(self, name: str, start: float, parent: int, rows: int):
        self.name, self.start, self.end = name, start, start
        self.parent, self.rows, self.counts = parent, rows, None


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _set(owner, attr: str, value) -> None:
    # EnvOps is a frozen dataclass; its step_batch field is swapped in place.
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


def _file_size(path) -> int:
    return os.path.getsize(path)


def _dir_size(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """Installs wrappers around the program's layer functions and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, original)

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _open(self, name: str, rows: int = 0) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        span = Span(name, time.perf_counter(), parent, rows)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def innermost(self, name: str) -> Span | None:
        """The nearest open span with this name on the calling thread."""
        for idx in reversed(self._stack()):
            if self.spans[idx].name == name:
                return self.spans[idx]
        return None

    def add(self, span: Span, key: str, n: int) -> None:
        with self._lock:
            if span.counts is None:
                span.counts = {}
            span.counts[key] = span.counts.get(key, 0) + n

    # -- wrapping -------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        _set(owner, attr, new)

    def wrap_function(self, module, attr: str, name: str, rows=None, after=None,
                      span_name=None, skip_inside: str | None = None) -> None:
        """Wrap `module.attr` at every `taskemb` module binding of the same object.

        rows(args, kwargs) gives the span's row count; after(span, result, args,
        kwargs) adds counts once the call returns; span_name(args, kwargs)
        overrides the span name per call; a call made while the innermost open
        span is `skip_inside` is charged to that span and not recorded.
        """
        original = getattr(module, attr)
        wrapper = self._make_wrapper(original, name, rows, after, span_name, skip_inside)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "taskemb" or mod_name.startswith("taskemb."):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, binding, wrapper)

    def wrap_method(self, cls, attr: str, name: str, rows=None, after=None) -> None:
        self._replace(cls, attr, self._make_wrapper(cls.__dict__[attr], name, rows, after,
                                                    None, None))

    def wrap_env_step(self, ops) -> None:
        """Wrap one registered environment's `step_batch` (a field of a frozen EnvOps)."""
        original = ops.step_batch
        name = f"envs.step_batch.{ops.name}"

        def after(span, result, args, kwargs):
            rollout = self.innermost("envs.rollout_batch")
            if rollout is not None:
                self.add(rollout, "steps", span.rows)

        wrapper = self._make_wrapper(original, name, lambda a, k: _rows(a[0]), after,
                                     None, None)
        self._replace(ops, "step_batch", wrapper)

    def _make_wrapper(self, original, name, rows, after, span_name, skip_inside):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if skip_inside is not None:
                stack = tracer._stack()
                if stack and tracer.spans[stack[-1]].name == skip_inside:
                    return original(*args, **kwargs)
            label = span_name(args, kwargs) if span_name is not None else name
            idx = tracer._open(label, rows(args, kwargs) if rows is not None else 0)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer.spans[idx], result, args, kwargs)
            return result

        return wrapper

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            _set(owner, attr, original)
        self._patches.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- install the layer map ---------------------------------------------------

    def install(self) -> "Tracer":
        from taskemb import embedding, manifest, nn, pipeline, population, similarity, stats
        from taskemb.benchmarks import clusters, prediction, predmodel, selection
        from taskemb.envs import core as envcore

        def arg(i, key):
            return lambda a, k: a[i] if len(a) > i else k[key]

        def rows_of(i, key):
            get = arg(i, key)
            return lambda a, k: _rows(get(a, k))

        # envs
        for env in ENVS:
            self.wrap_env_step(envcore.get_env(env))
        self.wrap_function(envcore, "rollout_batch", "envs.rollout_batch",
                           rows=rows_of(1, "states0"))
        self.wrap_function(envcore, "sample_tasks", "envs.sample_tasks")

        # nn: a training forward called from inside mlp_forward is inference time
        self.wrap_function(nn, "mlp_forward", "nn.mlp_forward", rows=rows_of(1, "x"))
        self.wrap_function(nn, "mlp_forward_cached", "nn.mlp_forward_cached",
                           rows=rows_of(1, "x"), skip_inside="nn.mlp_forward")
        self.wrap_function(nn, "mlp_backward", "nn.mlp_backward")
        self.wrap_function(nn, "adam_step", "nn.adam_step")

        # population
        self.wrap_method(population.Policy, "act", "population.Policy.act",
                         rows=rows_of(2, "states"))
        self.wrap_method(population.Population, "policy", "population.Population.policy")

        def table_after(span, result, args, kwargs):
            threads = kwargs.get("threads", args[4] if len(args) > 4 else None)
            if threads is None:
                threads = args[0].threads
            self.add(span, "cells", int(result.size))
            self.add(span, "threads", int(threads))

        self.wrap_method(population.Population, "outcome_table", "population.outcome_table",
                         rows=rows_of(1, "states"), after=table_after)
        self.wrap_function(population, "train_bc", "population.train_bc")
        self.wrap_function(population, "success_rates", "population.success_rates",
                           rows=rows_of(1, "states"), after=self._rate_rows)

        # similarity and embedding
        self.wrap_function(similarity, "label_triplet", "similarity.label_triplet")
        self.wrap_function(similarity, "gen_constraint_splits",
                           "similarity.gen_constraint_splits")

        def epochs_after(span, result, args, kwargs):
            self.add(span, "epochs", len(result[1].epochs))

        self.wrap_function(embedding, "train_embedding", "embedding.train_embedding",
                           after=epochs_after)
        self.wrap_method(embedding.EmbeddingNet, "embed", "embedding.EmbeddingNet.embed",
                         rows=rows_of(1, "states"))

        # benchmarks
        self.wrap_function(prediction, "gen_quiz_dataset", "prediction.gen_quiz_dataset")
        self.wrap_function(prediction, "tune_beta", "prediction.tune_beta")
        self.wrap_function(prediction, "baseline_predictions",
                           "prediction.baseline_predictions")
        self.wrap_function(prediction, "predict_softnn", "prediction.predict_softnn")

        def dataset_after(span, result, args, kwargs):
            n_options = kwargs.get("n_options", 10)
            easy = kwargs.get("easy_pool_size", 500)
            rated = ((span.counts or {}).get("rated_rows", 0) - easy) // (1 + n_options)
            n_type2 = sum(1 for ex in result if ex.query_type == 2)
            self.add(span, "type2_kept", n_type2)
            self.add(span, "type2_rated", rated - (len(result) - n_type2))

        self.wrap_function(selection, "gen_selection_dataset",
                           "selection.gen_selection_dataset", after=dataset_after)
        self.wrap_function(selection, "select", "selection.select",
                           span_name=lambda a, k: f"selection.select.{a[0]}")
        self.wrap_function(stats, "levenshtein", "stats.levenshtein")
        self.wrap_function(predmodel, "train_predmodel", "predmodel.train_predmodel")
        self.wrap_function(clusters, "silhouette_for_model", "clusters.silhouette_for_model")

        # artifact I/O and hashing
        writes = [(population, "save_population", None),
                  (similarity, "save_constraints", 0),
                  (prediction, "save_quiz_dataset", 0),
                  (selection, "save_selection_dataset", 0),
                  (embedding, "save_embedding_model", 1)]
        for module, attr, path_arg in writes:
            self.wrap_function(module, attr, "io.write", after=self._bytes_after(path_arg))
        reads = [(population, "load_population", 0, True),
                 (similarity, "load_constraints", 0, False),
                 (envcore, "load_tasks", 0, False),
                 (prediction, "load_quiz_dataset", 0, False),
                 (selection, "load_selection_dataset", 0, False),
                 (embedding, "load_embedding_model", 0, False),
                 (predmodel, "load_predmodel", 0, False)]
        for module, attr, path_arg, is_dir in reads:
            self.wrap_function(module, attr, "io.read",
                               after=self._bytes_after(path_arg, is_dir))
        self.wrap_function(manifest, "file_hash", "manifest.file_hash",
                           after=self._bytes_after(0))

        self.wrap_function(pipeline, "run_stage", "pipeline.run_stage",
                           span_name=lambda a, k: f"pipeline.{a[0]}")
        return self

    def _rate_rows(self, span, result, args, kwargs):
        owner = self.innermost("selection.gen_selection_dataset")
        if owner is not None:
            self.add(owner, "rated_rows", span.rows)

    def _bytes_after(self, path_arg, is_dir=False):
        def after(span, result, args, kwargs):
            if path_arg is None:  # save_population returns the files it wrote
                n = sum(_file_size(p) for p in result)
            else:
                path = args[path_arg]
                n = _dir_size(path) if is_dir else _file_size(path)
            self.add(span, "bytes", n)
        return after

    # -- results ---------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Self seconds per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = np.empty(len(self.spans))
        for i, s in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[i] = (s.end - s.start) - covered
        return out

    def write_spans(self, path) -> None:
        """CSV `index,name,start,end,parent,rows` with times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("index,name,start,end,parent,rows\n")
            for i, s in enumerate(self.spans):
                fp.write(f"{i},{s.name},{s.start - t0!r},{s.end - t0!r},{s.parent},{s.rows}\n")
