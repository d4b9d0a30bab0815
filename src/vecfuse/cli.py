"""Command-line interface.

Subcommands mirror the pipeline stages (ingest, merge, graph, fuse,
retrofit, evaluate) plus the full `pipeline` run. Exit codes: 0 success,
1 configuration error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import evaluation, kgraph, matrixio, pipeline
from .config import load_config
from .errors import ConfigError, DataError, NumericalError, StageError

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _common_flags(parser):
    parser.add_argument("--config", required=True, help="pipeline config (JSON)")
    parser.add_argument("--stage-cache-dir", default=None,
                        help="directory for cached stage outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecfuse",
        description="Fuse word embeddings with knowledge-graph edges and "
                    "evaluate word similarity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read one embedding source, write native")
    _common_flags(p)
    p.add_argument("--source", required=True, help="embedding source id")
    p.add_argument("--out-matrix", required=True)
    p.add_argument("--out-labels", required=True)

    p = sub.add_parser("merge", help="standardize+merge+normalize one source")
    _common_flags(p)
    p.add_argument("--source", required=True, help="embedding source id")
    p.add_argument("--out-matrix", required=True)
    p.add_argument("--out-labels", required=True)

    p = sub.add_parser("graph", help="load, rescale and filter edge lists")
    _common_flags(p)
    p.add_argument("--out", required=True, help="filtered edge-list TSV")

    p = sub.add_parser("fuse", help="align and fuse the two enabled sources")
    _common_flags(p)
    p.add_argument("--out-matrix", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--singular-values", default=None,
                   help="dump the SVD spectrum, one value per line")

    p = sub.add_parser("retrofit", help="run the full path through retrofitting")
    _common_flags(p)
    p.add_argument("--out-matrix", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--checkpoint-dir", default=None,
                   help="write every intermediate iterate here in native format")

    p = sub.add_parser("evaluate", help="evaluate an existing native matrix")
    _common_flags(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--report", default=None, help="report TSV path")

    p = sub.add_parser("pipeline", help="run every configured stage")
    _common_flags(p)
    return parser


def _find_source(config, source_id):
    for source in config.enabled_embeddings():
        if source.id == source_id:
            return source
    raise ConfigError(f"no enabled embedding source with id {source_id!r}")


def run(args) -> int:
    config = load_config(args.config)
    cache = pipeline.StageCache(args.stage_cache_dir)

    if args.command == "ingest":
        matrix = pipeline.ingest_source(_find_source(config, args.source), cache)
        matrixio.write_native(matrix, args.out_matrix, args.out_labels)
    elif args.command == "merge":
        matrix = pipeline.prepare_source(config, _find_source(config, args.source),
                                         cache)
        matrixio.write_native(matrix, args.out_matrix, args.out_labels)
    elif args.command == "graph":
        matrix = pipeline.fuse_sources(config, cache)
        kgraph.write_assertions(args.out, pipeline.load_graphs(config, matrix, cache))
    elif args.command == "fuse":
        matrix = pipeline.fuse_sources(config, cache,
                                       singular_values_path=args.singular_values)
        matrixio.write_native(matrix, args.out_matrix, args.out_labels)
    elif args.command == "retrofit":
        matrix = pipeline.ensemble_matrix(config, cache,
                                          checkpoint_dir=args.checkpoint_dir)
        matrixio.write_native(matrix, args.out_matrix, args.out_labels)
    elif args.command == "evaluate":
        matrix = matrixio.read_native(args.matrix, args.labels)
        reports = pipeline.evaluate_matrix(config, matrix, cache)
        print(evaluation.format_report_table(reports))
        if args.report:
            evaluation.write_report(reports, args.report)
    elif args.command == "pipeline":
        reports = pipeline.run_pipeline(config, cache_dir=args.stage_cache_dir)["reports"]
        if config.evaluations:
            print(evaluation.format_report_table(reports))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc.cause)
    except (ConfigError, DataError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _exit_code(exc) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, NumericalError):
        return EXIT_NUMERICAL
    return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
