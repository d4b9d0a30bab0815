"""Spans and counters around vecfuse's public functions, installed from
outside the program by replacing module and class attributes.

Each wrapped call is a span. A span's self time is its duration minus
the durations of the spans it directly encloses, so the self times of
all spans sum to the duration of the root span (`pipeline.run`).

Wiring traps, each of which would make a wrapper silently read zero:
- `vecfuse.pipeline` binds `assemble_problem` and `retrofit` with
  `from .retrofit import ...`, so those are patched on `vecfuse.pipeline`.
- `vecfuse.retrofit` as an attribute of the package is the function, not
  the module; `retrofit_step` is patched on `sys.modules["vecfuse.retrofit"]`.
- `Standardizer.uri` calls `Standardizer.standardize`; only the latter is
  wrapped, so no call is counted twice.

Hooks that run inside a span do only cheap bookkeeping (counters, stats
of single files, references to arrays). Work that reads whole files or
arrays, such as counting edge lines or the last retrofit displacement,
is deferred to `report`, which runs after the pipeline has returned, so
the tracer's own work does not count toward any span.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

STAGES = ("ingest", "merge", "fuse", "graph", "retrofit", "evaluate", "write")
ROOT = "pipeline.run"


def _count_lines(path) -> int:
    count = 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            count += block.count(b"\n")
    return count


class Tracer:
    """Collects spans and counters in memory; `report` summarises them."""

    def __init__(self):
        self.stack = []  # frames: [child time, enclosed stage time, stage]
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.stage_time = defaultdict(float)
        self.maxrss_mb = {}
        self.counts = defaultdict(float)
        self.step_times = []
        self.last_step = None  # (w before, w after) of the latest retrofit step
        self.edge_files = []
        self.distinct = set()

    def wrap(self, owner, attr, name, stage=None, before=None, after=None):
        """Replace `owner.attr` with a span named `name`.

        `stage` names the pipeline stage the call is; the string "write"
        marks the call a stage only when run_pipeline makes it directly.
        `before(args)` runs ahead of the span and `after(result, args,
        seconds)` after it.
        """
        fn = getattr(owner, attr)
        stack = self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before:
                before(args)
            this_stage = stage
            if stage == "write" and len(stack) != 1:
                this_stage = None
            frame = [0.0, 0.0, this_stage]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._close(name, frame, dt)
            if after:
                after(result, args, dt)
            return result

        setattr(owner, attr, span)

    def _close(self, name, frame, dt):
        stack = self.stack
        if stack:
            stack[-1][0] += dt
        self.inclusive[name] += dt
        self.self_time[name] += dt - frame[0]
        self.calls[name] += 1
        stage = frame[2]
        if stage:
            self.stage_time[stage] += dt - frame[1]
            for outer in reversed(stack):
                if outer[2]:
                    outer[1] += dt
                    break
            self.maxrss_mb[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def install(self):
        """Wrap every traced function of the imported vecfuse package."""
        pipeline = importlib.import_module("vecfuse.pipeline")
        matrixio = importlib.import_module("vecfuse.matrixio")
        labels = importlib.import_module("vecfuse.labels")
        rowmerge = importlib.import_module("vecfuse.rowmerge")
        interpolate = importlib.import_module("vecfuse.interpolate")
        kgraph = importlib.import_module("vecfuse.kgraph")
        retrofit = importlib.import_module("vecfuse.retrofit")
        evaluation = importlib.import_module("vecfuse.evaluation")
        counts = self.counts

        def add(key, value):
            counts[key] += value

        # pipeline: one span per stage, and the stage cache.
        self.wrap(pipeline, "run_pipeline", ROOT)
        for attr, stage in (("ingest_source", "ingest"), ("prepare_source", "merge"),
                            ("fuse_sources", "fuse"), ("load_graphs", "graph"),
                            ("retrofit_matrix", "retrofit"),
                            ("evaluate_matrix", "evaluate")):
            self.wrap(pipeline, attr, "pipeline." + stage, stage=stage)

        def cache_lookup(result, args, _dt):
            if args[0].directory:
                add("pipeline.cache_hits" if result is not None
                    else "pipeline.cache_misses", 1)

        def stored_matrix(_result, args, _dt):
            if args[0].directory:
                add("pipeline.cache_bytes_written",
                    sum(os.path.getsize(p) for p in args[0]._paths(args[1])))

        def stored_assertions(_result, args, _dt):
            if args[0].directory:
                add("pipeline.cache_bytes_written",
                    os.path.getsize(os.path.join(args[0].directory, args[1] + ".tsv")))

        for attr in ("load_matrix", "load_assertions"):
            self.wrap(pipeline.StageCache, attr, "pipeline.cache_load", after=cache_lookup)
        self.wrap(pipeline.StageCache, "store_matrix", "pipeline.cache_store",
                  after=stored_matrix)
        self.wrap(pipeline.StageCache, "store_assertions", "pipeline.cache_store",
                  after=stored_assertions)

        # matrixio: readers count the bytes of the files they were given.
        def read_one(_result, args, _dt):
            add("matrixio.bytes_read", os.path.getsize(args[0]))

        def read_pair(_result, args, _dt):
            add("matrixio.bytes_read", os.path.getsize(args[0]) + os.path.getsize(args[1]))

        self.wrap(matrixio, "read_text_embeddings", "matrixio.read_text", after=read_one)
        self.wrap(matrixio, "read_word2vec_binary", "matrixio.read_w2v_binary",
                  after=read_one)
        self.wrap(matrixio, "read_native", "matrixio.read_native", after=read_pair)
        self.wrap(matrixio, "write_native", "matrixio.write_native", stage="write")

        # labels: Standardizer.standardize only (uri calls it).
        self.wrap(labels.Standardizer, "standardize", "labels.standardize",
                  before=lambda args: self.distinct.add(args[1:3]))

        # rowmerge
        self.wrap(rowmerge, "build_merge_plan", "rowmerge.build_merge_plan",
                  after=lambda r, a, dt: add("rowmerge.rows_in", len(a[0])))
        self.wrap(rowmerge, "merge_standardized", "rowmerge.merge_standardized",
                  after=lambda r, a, dt: add("rowmerge.rows_out", len(r)))
        for attr in ("l1_normalize_columns", "l2_normalize_columns", "l2_normalize_rows"):
            self.wrap(rowmerge, attr, "rowmerge.normalize")

        # interpolate: fuse's self time is the neighbour inference loop.
        def overlap(index, _args, _dt):
            shared = len(index.shared)
            add("interpolate.shared_rows", shared)
            add("interpolate.inferred_rows", len(index.only_a) + len(index.only_b))
            add("interpolate.infer_gflop_computed", 2e-9 * shared * (
                len(index.only_b) * index.a.dims + len(index.only_a) * index.b.dims))

        self.wrap(interpolate, "fuse", "interpolate.fuse")
        self.wrap(interpolate, "build_overlap", "interpolate.build_overlap", after=overlap)
        self.wrap(interpolate, "svd_discount", "interpolate.svd_discount")

        # kgraph: edge lines are counted in report, outside every span.
        def loaded(result, args, _dt):
            self.edge_files.append(args[0])
            add("kgraph.assertions_loaded", len(result))

        self.wrap(kgraph, "load_assertions", "kgraph.load_assertions", after=loaded)
        self.wrap(kgraph, "rescale_by_source", "kgraph.rescale")
        self.wrap(kgraph, "filter_terms", "kgraph.filter_terms",
                  after=lambda r, a, dt: add("kgraph.assertions_kept", len(r)))
        self.wrap(kgraph, "build_association", "kgraph.build_association",
                  after=lambda r, a, dt: add("kgraph.assoc_nnz", len(r.data)))

        # retrofit
        def problem(p, _args, _dt):
            add("retrofit.nnz", len(p.data))
            add("retrofit.vocab", p.size)
            add("retrofit.graph_only_rows", p.size - int(p.anchored.sum()))
            add("retrofit.prod_bytes_computed", 8 * len(p.data) * p.dims)

        def step(w_next, args, dt):
            self.step_times.append(dt)
            self.last_step = (args[1], w_next)

        self.wrap(pipeline, "assemble_problem", "retrofit.assemble_problem", after=problem)
        self.wrap(pipeline, "retrofit", "retrofit.retrofit")
        self.wrap(retrofit, "retrofit_step", "retrofit.step", after=step)

        # evaluation
        def evaluated(report, _args, _dt):
            add("evaluation.pairs", report.n)
            add("evaluation.oov_pairs", report.oov_fraction * report.n)

        self.wrap(evaluation, "evaluate", "evaluation.evaluate", after=evaluated)

    def report(self) -> dict:
        """Per-layer metrics, plus raw span totals for checking the wiring."""
        t, c = self.inclusive, self.counts
        c["kgraph.edge_lines"] = sum(_count_lines(path) for path in self.edge_files)
        if self.last_step is not None:
            w, w_next = self.last_step
            moved = w_next.astype(np.float64) - w
            c["retrofit.max_displacement_last"] = float(
                np.sqrt((moved * moved).sum(axis=1)).max())
        m = {f"pipeline.{s}_s": self.stage_time[s] for s in STAGES}
        m["pipeline.other_s"] = t[ROOT] - sum(self.stage_time[s] for s in STAGES)
        for key in ("cache_hits", "cache_misses", "cache_bytes_written"):
            m["pipeline." + key] = c["pipeline." + key]
        m["pipeline.cache_load_s"] = t["pipeline.cache_load"]
        m["pipeline.cache_store_s"] = t["pipeline.cache_store"]
        for s in STAGES:
            m[f"pipeline.{s}_maxrss_mb"] = self.maxrss_mb.get(s, 0.0)

        reads = ("matrixio.read_text", "matrixio.read_w2v_binary", "matrixio.read_native")
        for name in reads + ("matrixio.write_native",):
            m[name + "_s"] = t[name]
        read_s = sum(t[name] for name in reads)
        m["matrixio.bytes_read"] = c["matrixio.bytes_read"]
        m["matrixio.read_mb_per_s"] = c["matrixio.bytes_read"] / 1e6 / read_s if read_s else 0.0

        calls = self.calls["labels.standardize"]
        m["labels.standardize_calls"] = calls
        m["labels.standardize_distinct"] = len(self.distinct)
        m["labels.distinct_ratio"] = len(self.distinct) / calls if calls else 0.0
        m["labels.standardize_s"] = t["labels.standardize"]

        for name in ("rowmerge.build_merge_plan", "rowmerge.merge_standardized",
                     "rowmerge.normalize", "interpolate.fuse",
                     "interpolate.build_overlap", "interpolate.svd_discount",
                     "kgraph.load_assertions", "kgraph.rescale", "kgraph.filter_terms",
                     "kgraph.build_association", "retrofit.assemble_problem",
                     "evaluation.evaluate"):
            m[name + "_s"] = t[name]
        m["interpolate.infer_s"] = self.self_time["interpolate.fuse"]
        m["retrofit.step_s"] = statistics.median(self.step_times) if self.step_times else 0.0
        m["retrofit.steps"] = len(self.step_times)
        for key in ("rowmerge.rows_in", "rowmerge.rows_out", "interpolate.shared_rows",
                    "interpolate.inferred_rows", "interpolate.infer_gflop_computed",
                    "kgraph.edge_lines", "kgraph.assertions_loaded",
                    "kgraph.assertions_kept", "kgraph.assoc_nnz", "retrofit.nnz",
                    "retrofit.vocab", "retrofit.graph_only_rows",
                    "retrofit.prod_bytes_computed", "retrofit.max_displacement_last",
                    "evaluation.pairs"):
            m[key] = c[key]
        pairs = c["evaluation.pairs"]
        m["evaluation.oov_fraction"] = c["evaluation.oov_pairs"] / pairs if pairs else 0.0
        return {"metrics": m,
                "spans": {name: {"calls": self.calls[name], "inclusive_s": t[name],
                                 "self_s": self.self_time[name]}
                          for name in self.calls}}
