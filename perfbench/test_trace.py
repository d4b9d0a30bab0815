"""Tests of the benchmark itself: the trace wiring, the metric names,
the per-run checks and the seeded corpus. Run with
`python -m pytest perfbench`.

The tests run the workloads on corpora a tenth of the benchmark's size,
each with its own rho_all reference (the median over seeds 1-8)."""

import dataclasses
import json
import os
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from corpus import ITERATIONS, Shape, generate  # noqa: E402
from tracer import ROOT as ROOT_SPAN, STAGES, Tracer  # noqa: E402

SEED = 5
SMALL = {
    "fuse_two_source": run.Workload(
        Shape(glove_words=500, w2v_words=500, shared_words=300, graph_only_words=20,
              graph_emb_words=100, fr_words=10, edges=500, gold_pairs=200, clusters=15,
              embedding_noise=1.2, dims=50, fusion_out_dims=75),
        stage_cache=False, rho_reference=0.794),
    "graph_retrofit": run.Workload(
        Shape(glove_words=350, w2v_words=0, shared_words=0, graph_only_words=350,
              graph_emb_words=350, fr_words=70, edges=2500, gold_pairs=200, clusters=8,
              embedding_noise=3.0),
        stage_cache=True, rho_reference=0.805),
}

# Spans both workloads fire; fuse_two_source fires the interpolate ones
# too. No workload reads a primed stage cache, so `matrixio.read_native`
# never fires.
ALWAYS = {ROOT_SPAN, "pipeline.ingest", "pipeline.merge", "pipeline.fuse",
          "pipeline.graph", "pipeline.retrofit", "pipeline.evaluate",
          "pipeline.cache_load", "pipeline.cache_store", "matrixio.read_text",
          "matrixio.write_native", "labels.standardize", "rowmerge.build_merge_plan",
          "rowmerge.merge_standardized", "rowmerge.normalize", "kgraph.load_assertions",
          "kgraph.rescale", "kgraph.filter_terms", "kgraph.build_association",
          "retrofit.assemble_problem", "retrofit.retrofit", "retrofit.step",
          "evaluation.evaluate"}
FIRES = {
    "fuse_two_source": ALWAYS | {
        "matrixio.read_w2v_binary", "interpolate.fuse", "interpolate.build_overlap",
        "interpolate.svd_discount"},
    "graph_retrofit": ALWAYS,
}
# Stages whose time must be positive on each workload.
STAGE_RUNS = {
    "fuse_two_source": ("ingest", "merge", "fuse", "graph", "retrofit", "evaluate", "write"),
    "graph_retrofit": ("ingest", "merge", "graph", "retrofit", "evaluate", "write"),
}


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_child(corpus, result_path, cache_dir=None, trace=True):
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--config", corpus.config_path, "--result", str(result_path)]
    if cache_dir:
        argv += ["--cache-dir", str(cache_dir)]
    if trace:
        argv.append("--trace")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def test_metric_names_match_benchmark_json():
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == \
        list(Tracer().report()["metrics"]) + ["trace.overhead_frac"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_span_fires_and_self_times_sum_to_wall(workload, tmp_path):
    spec = SMALL[workload]
    corpus = generate(str(tmp_path / "corpus"), spec.shape, SEED)
    cache_dir = tmp_path / "cache" if spec.stage_cache else None
    trace = run_child(corpus, tmp_path / "result.json", cache_dir)["trace"]

    spans = trace["spans"]
    fired = {name for name, span in spans.items() if span["calls"]}
    assert fired == FIRES[workload]
    wall = spans[ROOT_SPAN]["inclusive_s"]
    assert sum(span["self_s"] for span in spans.values()) == pytest.approx(wall, abs=1e-6)

    metrics = trace["metrics"]
    for stage in STAGE_RUNS[workload]:
        assert metrics[f"pipeline.{stage}_s"] > 0, stage
        assert metrics[f"pipeline.{stage}_maxrss_mb"] > 0, stage
    stages = sum(metrics[f"pipeline.{s}_s"] for s in STAGES)
    assert stages + metrics["pipeline.other_s"] == pytest.approx(wall, abs=1e-6)
    if workload == "graph_retrofit":
        assert metrics["pipeline.cache_hits"] == 0 and metrics["pipeline.cache_misses"] == 4
        cache_files = sum(path.stat().st_size for path in (tmp_path / "cache").iterdir())
        assert metrics["pipeline.cache_bytes_written"] == cache_files > 0
        assert metrics["retrofit.steps"] == ITERATIONS
        # The step hook only keeps references, so the retrofit loop spends
        # next to no time outside its steps.
        loop = spans["retrofit.retrofit"]
        assert loop["self_s"] < 0.05 * loop["inclusive_s"]
        edges = (tmp_path / "corpus" / "edges.tsv").read_bytes()
        assert metrics["kgraph.edge_lines"] == edges.count(b"\n")


@pytest.fixture
def run_main(monkeypatch, capsys):
    """Calls run.main() in this process on the small workloads; returns
    its exit code and the JSON line it printed last."""
    monkeypatch.setattr(run, "WORKLOADS", dict(SMALL))
    monkeypatch.chdir(ROOT)
    sigterm = signal.getsignal(signal.SIGTERM)

    def call(workload, trace=0, **change):
        run.WORKLOADS[workload] = dataclasses.replace(SMALL[workload], **change)
        monkeypatch.setattr(sys, "argv", [
            "run.py", "--blas-threads", "1", "--workload", workload, "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace)])
        try:
            code = run.main()
        finally:
            signal.signal(signal.SIGTERM, sigterm)
        return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return call


@pytest.mark.parametrize("workload,trace", [("fuse_two_source", 0), ("graph_retrofit", 1)])
def test_run_checks_outputs_and_prints_every_metric(run_main, workload, trace):
    code, result = run_main(workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    section = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in benchmark_json()[section]}


def test_rho_all_outside_the_tolerance_fails_every_run(run_main):
    reference = SMALL["graph_retrofit"].rho_reference + 2 * run.RHO_TOLERANCE
    code, result = run_main("graph_retrofit", rho_reference=reference)
    assert code == 0
    assert not result["correct"] and result["failed"] == result["attempted"] >= 3


def test_corpus_depends_only_on_seed(tmp_path):
    shape = SMALL["fuse_two_source"].shape

    def files(directory, seed):
        corpus = generate(str(tmp_path / directory), shape, seed)
        names = ("glove.txt", "w2v.bin", "edges.tsv", "gold.txt")
        return corpus.expected_labels, [(tmp_path / directory / n).read_bytes()
                                        for n in names]

    assert files("a", 1) == files("b", 1)
    assert files("c", 2) != files("a", 1)
