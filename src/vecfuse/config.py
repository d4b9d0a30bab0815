"""Declarative pipeline configuration.

Configs are JSON with a schema_version field; see the README for the full
schema. Validation failures raise ConfigError (CLI exit code 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidLanguage
from .evaluation import GOLD_FORMATS
from .kgraph import DEFAULT_MAX_WORDS, DEFAULT_MIN_COUNT
from .labels import validate_language
from .rowmerge import MERGE_STRATEGIES

SCHEMA_VERSION = 1

EMBEDDING_FORMATS = ("glove_text", "word2vec_text", "word2vec_binary", "native")
COLUMN_NORMS = ("l1", "l2", "none")
SPLIT_IDS = ("dev", "test", "all")


@dataclass
class EmbeddingSource:
    id: str
    path: str
    format: str
    enabled: bool = True
    language: str = "en"
    labels_path: str | None = None  # native format only
    on_duplicate: str = "error"


@dataclass
class GraphSource:
    id: str
    path: str
    enabled: bool = True
    apply_term_filter: bool = True


@dataclass
class EvalDataset:
    id: str
    path: str | None = None
    dev_path: str | None = None
    test_path: str | None = None
    format: str = "generic"
    language: str = "en"
    splits: tuple = ("all",)
    num_chunks: int = 3
    test_chunk: int = 3
    drop_oov: bool = False


@dataclass
class PipelineConfig:
    embeddings: list = field(default_factory=list)
    graphs: list = field(default_factory=list)
    standardize_enabled: bool = True
    stopwords_path: str | None = None
    exceptions_path: str | None = None
    vocab_check: bool = True
    merge_strategy: str = "zipf"
    column_norm: str = "l1"
    fusion_k: int = 10
    fusion_out_dims: int | None = None
    fusion_discount: bool = True
    retrofit_iterations: int = 10
    retrofit_self_loops: bool = True
    excluded_graph_sources: tuple = ()
    filter_min_count: dict = field(default_factory=lambda: dict(DEFAULT_MIN_COUNT))
    filter_max_words: int = DEFAULT_MAX_WORDS
    evaluations: list = field(default_factory=list)
    output_dir: str = "out"
    output_matrix: str = "ensemble.emb1"
    output_labels: str = "ensemble.labels"
    output_report: str = "report.tsv"

    def enabled_embeddings(self) -> list:
        return [s for s in self.embeddings if s.enabled]

    def enabled_graphs(self) -> list:
        return [g for g in self.graphs if g.enabled]


def _expect(condition, message):
    if not condition:
        raise ConfigError(message)


def _expect_language(code, owner):
    try:
        validate_language(code)
    except InvalidLanguage as exc:
        raise ConfigError(f"{owner}: {exc}") from None


def config_from_dict(raw: dict) -> PipelineConfig:
    _expect(isinstance(raw, dict), "config root must be an object")
    _expect(raw.get("schema_version") == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION}")

    embeddings = []
    for entry in raw.get("embeddings", []):
        src = EmbeddingSource(
            id=entry.get("id", ""), path=entry.get("path", ""),
            format=entry.get("format", ""), enabled=entry.get("enabled", True),
            language=entry.get("language", "en"),
            labels_path=entry.get("labels_path"),
            on_duplicate=entry.get("on_duplicate", "error"))
        _expect(src.id, "embedding source needs an id")
        _expect(src.path, f"embedding source {src.id}: needs a path")
        _expect(src.format in EMBEDDING_FORMATS,
                f"embedding source {src.id}: format must be one of {EMBEDDING_FORMATS}")
        _expect(src.format != "native" or src.labels_path,
                f"embedding source {src.id}: native format needs labels_path")
        _expect(src.on_duplicate in ("error", "first"),
                f"embedding source {src.id}: on_duplicate must be error|first")
        _expect_language(src.language, f"embedding source {src.id}")
        embeddings.append(src)
    ids = [s.id for s in embeddings]
    _expect(len(set(ids)) == len(ids), "embedding source ids must be unique")

    graphs = []
    for entry in raw.get("graphs", []):
        g = GraphSource(id=entry.get("id", ""), path=entry.get("path", ""),
                        enabled=entry.get("enabled", True),
                        apply_term_filter=entry.get("apply_term_filter", True))
        _expect(g.id, "graph source needs an id")
        _expect(g.path, f"graph source {g.id}: needs a path")
        graphs.append(g)
    gids = [g.id for g in graphs]
    _expect(len(set(gids)) == len(gids), "graph source ids must be unique")

    std = raw.get("standardize", {})
    merge = raw.get("merge", {})
    norm = raw.get("normalize", {})
    fusion = raw.get("fusion", {})
    retro = raw.get("retrofit", {})
    term_filter = raw.get("term_filter", {})
    output = raw.get("output", {})

    evaluations = []
    for entry in raw.get("evaluations", []):
        ds = EvalDataset(
            id=entry.get("id", ""), path=entry.get("path"),
            dev_path=entry.get("dev_path"), test_path=entry.get("test_path"),
            format=entry.get("format", "generic"),
            language=entry.get("language", "en"),
            splits=tuple(entry.get("splits", ["all"])),
            num_chunks=entry.get("num_chunks", 3),
            test_chunk=entry.get("test_chunk", 3),
            drop_oov=entry.get("drop_oov", False))
        _expect(ds.id, "evaluation dataset needs an id")
        _expect(ds.path or ds.dev_path or ds.test_path,
                f"dataset {ds.id}: needs path or dev_path/test_path")
        _expect(ds.format in GOLD_FORMATS,
                f"dataset {ds.id}: format must be one of {GOLD_FORMATS}")
        _expect(all(s in SPLIT_IDS for s in ds.splits),
                f"dataset {ds.id}: splits must be among {SPLIT_IDS}")
        _expect(1 <= ds.test_chunk <= ds.num_chunks,
                f"dataset {ds.id}: test_chunk outside [1, num_chunks]")
        _expect_language(ds.language, f"dataset {ds.id}")
        evaluations.append(ds)

    config = PipelineConfig(
        embeddings=embeddings,
        graphs=graphs,
        standardize_enabled=std.get("enabled", True),
        stopwords_path=std.get("stopwords"),
        exceptions_path=std.get("exceptions"),
        vocab_check=std.get("vocab_check", True),
        merge_strategy=merge.get("strategy", "zipf"),
        column_norm=norm.get("columns", "l1"),
        fusion_k=fusion.get("k", 10),
        fusion_out_dims=fusion.get("out_dims"),
        fusion_discount=fusion.get("discount", True),
        retrofit_iterations=retro.get("iterations", 10),
        retrofit_self_loops=retro.get("self_loops", True),
        excluded_graph_sources=tuple(retro.get("excluded_sources", [])),
        filter_min_count=term_filter.get("min_count", dict(DEFAULT_MIN_COUNT)),
        filter_max_words=term_filter.get("max_words", DEFAULT_MAX_WORDS),
        evaluations=evaluations,
        output_dir=output.get("dir", "out"),
        output_matrix=output.get("matrix", "ensemble.emb1"),
        output_labels=output.get("labels", "ensemble.labels"),
        output_report=output.get("report", "report.tsv"),
    )
    _expect(config.enabled_embeddings(), "at least one embedding source must be enabled")
    _expect(config.standardize_enabled or not config.enabled_graphs(),
            "graph sources require standardized labels; disable them or "
            "enable standardization")
    _expect(config.merge_strategy in MERGE_STRATEGIES,
            f"merge strategy must be one of {MERGE_STRATEGIES}")
    _expect(config.column_norm in COLUMN_NORMS,
            f"column norm must be one of {COLUMN_NORMS}")
    _expect(config.retrofit_iterations >= 1, "retrofit iterations must be >= 1")
    _expect(config.fusion_k >= 1, "fusion k must be >= 1")
    _expect(config.fusion_out_dims is None or config.fusion_out_dims >= 1,
            "fusion out_dims must be >= 1")
    return config


def load_config(path) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return config_from_dict(raw)
