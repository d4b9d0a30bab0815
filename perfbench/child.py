"""One repetition: `vecfuse pipeline --config CONFIG` in this process.

Runs the package from `src/` under the current directory through the
same entry point as the command line, records when `run_pipeline` was
entered and left (time.monotonic, which the parent shares) and, with
--trace, the per-layer trace. Writes them as JSON to --result and exits
with the pipeline's exit code.

Usage: python3 perfbench/child.py --config C --result R [--cache-dir D] [--trace]
"""

import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import vecfuse
    from vecfuse import cli, pipeline

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    result = {"package": os.path.abspath(vecfuse.__file__)}
    inner = pipeline.run_pipeline

    def timed(*a, **kw):
        result["entry"] = time.monotonic()
        try:
            return inner(*a, **kw)
        finally:
            result["exit"] = time.monotonic()

    pipeline.run_pipeline = timed
    argv = ["pipeline", "--config", args.config]
    if args.cache_dir:
        argv += ["--stage-cache-dir", args.cache_dir]
    result["code"] = cli.main(argv)
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return result["code"]


if __name__ == "__main__":
    sys.exit(main())
