"""vecfuse benchmark: seeded synthetic corpora through `vecfuse pipeline`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one repetition runs the whole pipeline in
a fresh child process (perfbench/child.py), waits for it, checks its
output, and starts the next, until --seconds have passed. BLAS threads
are pinned in every child to --blas-threads, which BENCHMARK.json's
command sets.

--trace 0 reports the end-to-end metrics, medians over the repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracer.py) plus the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

A repetition fails on a non-zero exit, an output-labels hash different
from the one the generator predicts, a non-finite output matrix, an
output matrix that differs from the other repetitions of the run, or a
rho_all more than RHO_TOLERANCE from the workload's reference. A matrix
hash that differs from the one recorded in baseline.json for this
workload and seed is reported as `output_bits_changed`, not as a failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import signal
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from corpus import Shape, generate, labels_digest  # noqa: E402

CHILD_TIMEOUT_S = 120
MIN_REPS = 3
RHO_TOLERANCE = 0.05


@dataclasses.dataclass(frozen=True)
class Workload:
    shape: Shape
    stage_cache: bool     # a stage cache directory, emptied before each repetition
    rho_reference: float  # median rho_all of seeds 1-8 when the benchmark was added


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "fuse_two_source": Workload(
        Shape(glove_words=5000, w2v_words=5000, shared_words=3000,
              graph_only_words=200, graph_emb_words=1000, fr_words=100,
              edges=5000, gold_pairs=2000, clusters=150, embedding_noise=1.2,
              dims=50, fusion_out_dims=75),
        stage_cache=False, rho_reference=0.827),
    "graph_retrofit": Workload(
        Shape(glove_words=3500, w2v_words=0, shared_words=0, graph_only_words=3500,
              graph_emb_words=3500, fr_words=700, edges=25000, gold_pairs=2000,
              clusters=75, embedding_noise=3.0),
        stage_cache=True, rho_reference=0.833),
}


def metric_units(section) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics of BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def spawn(argv, env, log_path):
    """Run a child to completion; returns (start, exit code, peak RSS MB).

    The start time is taken just before the fork, on the monotonic clock
    the child also reads. Peak RSS is the child's own, from wait4. A child
    still running after CHILD_TIMEOUT_S is killed.
    """
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, usage.ru_maxrss / 1024.0


def read_rho_all(report_path) -> float:
    with open(report_path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            if row["split"] == "all":
                return float(row["rho"])
    raise ValueError(f"{report_path}: no 'all' split")


def check_matrix(path) -> str:
    """sha256 of a native matrix file, which must hold only finite values."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"EMB1":
        raise ValueError("output matrix has no EMB1 magic")
    rows, dims = np.frombuffer(raw[4:12], dtype="<u4")
    data = np.frombuffer(raw[12:], dtype="<f4")
    if data.size != int(rows) * int(dims):
        raise ValueError("output matrix payload has the wrong length")
    if not np.isfinite(data).all():
        raise ValueError("output matrix holds non-finite values")
    return hashlib.sha256(raw).hexdigest()


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.root = root
        self.work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(args.blas_threads)
        self.cache_dir = os.path.join(self.work, "cache")
        self.reps = []

    def child(self, trace=False):
        """One repetition; returns its record."""
        out = self.corpus.output_dir
        shutil.rmtree(out, ignore_errors=True)
        if self.workload.stage_cache:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        result_path = os.path.join(self.work, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "--config", self.corpus.config_path, "--result", result_path]
        if self.workload.stage_cache:
            argv += ["--cache-dir", self.cache_dir]
        if trace:
            argv.append("--trace")
        start, code, rss_mb = spawn(argv, self.env, os.path.join(self.work, "child.log"))
        rep = {"trace": trace, "code": code, "peak_rss_mb": rss_mb, "problems": []}
        try:
            with open(result_path, encoding="utf-8") as f:
                result = json.load(f)
        except (OSError, ValueError):
            result = {}
        if code != 0 or "exit" not in result:
            with open(os.path.join(self.work, "child.log"), encoding="utf-8",
                      errors="replace") as f:
                rep["problems"].append(f"exit code {code}: {f.read()[-500:]}")
            return rep
        if not result["package"].startswith(os.path.join(self.root, "src") + os.sep):
            rep["problems"].append(f"ran vecfuse from {result['package']}")
        rep["setup_s"] = result["entry"] - start
        rep["pipeline_s"] = result["exit"] - result["entry"]
        rep["layers"] = result.get("trace", {}).get("metrics")
        try:
            with open(os.path.join(out, "ensemble.labels"), "rb") as f:
                if hashlib.sha256(f.read()).hexdigest() != self.labels_sha:
                    rep["problems"].append("output labels differ from the prediction")
            rep["matrix_sha"] = check_matrix(os.path.join(out, "ensemble.emb1"))
            rep["rho_all"] = read_rho_all(os.path.join(out, "report.tsv"))
        except (OSError, ValueError) as exc:
            rep["problems"].append(str(exc))
            return rep
        if abs(rep["rho_all"] - self.workload.rho_reference) > RHO_TOLERANCE:
            rep["problems"].append(f"rho_all {rep['rho_all']:.4f} is outside "
                                   f"{self.workload.rho_reference} +- {RHO_TOLERANCE}")
        return rep

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.corpus = generate(os.path.join(self.work, "corpus"), self.workload.shape,
                               self.args.seed)
        self.labels_sha = labels_digest(self.corpus.expected_labels)
        # Compile and page in the package before anything is timed.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                        "import vecfuse.cli"], env=self.env, check=True)

    def measure(self):
        deadline = time.monotonic() + self.args.seconds
        while len(self.reps) < MIN_REPS * (2 if self.args.trace else 1) \
                or time.monotonic() < deadline:
            traced = bool(self.args.trace) and len(self.reps) % 2 == 1
            self.reps.append(self.child(trace=traced))
        hashes = [r.get("matrix_sha") for r in self.reps if "matrix_sha" in r]
        if hashes:
            majority = statistics.mode(hashes)
            for rep in self.reps:
                if rep.get("matrix_sha", majority) != majority:
                    rep["problems"].append("output matrix differs between repetitions")
            self.matrix_sha = majority
        else:
            self.matrix_sha = None

    def end_to_end(self, reps) -> dict:
        def med(key):
            values = [r[key] for r in reps if key in r]
            return statistics.median(values) if values else 0.0
        ok = sum(1 for r in self.reps if not r["problems"])
        return {"pipeline_s": med("pipeline_s"), "setup_s": med("setup_s"),
                "peak_rss_mb": med("peak_rss_mb"), "rho_all": med("rho_all"),
                "ok_frac": ok / len(self.reps)}

    def report(self):
        plain = [r for r in self.reps if not r["trace"]]
        traced = [r for r in self.reps if r["trace"]]
        if self.args.trace:
            units = metric_units("per_layer")
            values = {}
            for name in units:
                samples = [r["layers"][name] for r in traced
                           if r.get("layers") and name in r["layers"]]
                values[name] = statistics.median(samples) if samples else 0.0
            untraced_s = self.end_to_end(plain)["pipeline_s"]
            traced_s = self.end_to_end(traced)["pipeline_s"]
            values["trace.overhead_frac"] = traced_s / untraced_s - 1.0 \
                if untraced_s and traced_s else 0.0
        else:
            units = metric_units("end_to_end")
            values = self.end_to_end(plain)
        for name in units:
            print(f"{name:40s} {values[name]:>16.6g} {units[name]}")
        samples = sorted(r["pipeline_s"] for r in plain if "pipeline_s" in r)
        if len(samples) >= 4:
            q1, q2, q3 = statistics.quantiles(samples, n=4)
            print(f"pipeline_s over {len(samples)} untraced runs: "
                  f"q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f}")
        print(f"output rows {len(self.corpus.expected_labels)}")
        print(f"labels_sha256 {self.labels_sha}")
        print(f"matrix_sha256 {self.matrix_sha}")
        recorded = self.recorded_matrix_sha()
        if recorded and self.matrix_sha and recorded != self.matrix_sha:
            print(f"output_bits_changed: matrix sha256 differs from baseline.json: "
                  f"{recorded}")
        failed = [r for r in self.reps if r["problems"]]
        for rep in failed:
            print("failed run: " + "; ".join(rep["problems"]), file=sys.stderr)
        print(json.dumps({
            "correct": not failed, "attempted": len(self.reps), "failed": len(failed),
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}))

    def recorded_matrix_sha(self):
        try:
            with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as f:
                baseline = json.load(f)
        except OSError:
            return None
        workload = baseline.get("workloads", {}).get(self.args.workload, {})
        return workload.get("matrix_sha256", {}).get(str(self.args.seed))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, required=True)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vecfuse", "__init__.py")):
        print("error: run from the root of a vecfuse checkout (no src/vecfuse here)",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into an exception, so a running child is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Bench(args, root)
    try:
        bench.setup()
        bench.measure()
        bench.report()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        parent = os.path.dirname(bench.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
