"""Declarative pipeline configuration.

Configs are JSON with a schema_version field; see the README for the full
schema. Validation failures raise ConfigError (CLI exit code 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidLanguage
from .evaluation import GOLD_FORMATS
from .interpolate import DEFAULT_NEIGHBORS
from .kgraph import DEFAULT_MAX_WORDS, DEFAULT_MIN_COUNT
from .labels import validate_language
from .matrixio import ON_DUPLICATE
from .retrofit import DEFAULT_ITERATIONS
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
    fusion_k: int = DEFAULT_NEIGHBORS
    fusion_out_dims: int | None = None
    fusion_discount: bool = True
    retrofit_iterations: int = DEFAULT_ITERATIONS
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


_JSON_TYPES = {bool: "boolean", int: "integer", str: "string", list: "list",
               dict: "object"}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


class _Section:
    """One JSON object of the config. `section(key, default, kind[, item])`
    is `section[key]`, or `default` when absent. A value that is not of
    JSON type `kind` (a bool is not an integer; null only where the
    default is None), or a list or object with a member not of type
    `item`, is a ConfigError naming the setting. `close()` is a
    ConfigError naming the first key that was never read."""

    def __init__(self, section: dict, owner: str):
        self.section, self.owner, self.read = section, owner, set()

    def __call__(self, key, default, kind, item=None):
        self.read.add(key)
        value = self.section.get(key, default)
        if value is None and default is None:
            return None
        members = value.values() if isinstance(value, dict) else value
        _expect(_is(value, kind) and (item is None or all(_is(v, item) for v in members)),
                f"{self.owner}{key} must be a JSON {_JSON_TYPES[kind]}"
                + (f" of {_JSON_TYPES[item]} values" if item else "") + f", got {value!r}")
        return value

    def close(self):
        for key in self.section:
            _expect(key in self.read, f"unknown setting {self.owner}{key}")


def config_from_dict(raw: dict) -> PipelineConfig:
    _expect(isinstance(raw, dict), "config root must be an object")
    get = _Section(raw, "")
    _expect(get("schema_version", None, int) == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION}")
    embedding_entries = get("embeddings", [], list, dict)
    graph_entries = get("graphs", [], list, dict)
    std, merge, norm, fusion, retro, term_filter, output = (
        _Section(get(name, {}, dict), name + ".") for name in (
            "standardize", "merge", "normalize", "fusion", "retrofit", "term_filter",
            "output"))
    evaluation_entries = get("evaluations", [], list, dict)
    get.close()

    embeddings = []
    for i, entry in enumerate(embedding_entries):
        e = _Section(entry, f"embeddings[{i}].")
        src = EmbeddingSource(
            id=e("id", "", str), path=e("path", "", str), format=e("format", "", str),
            enabled=e("enabled", True, bool), language=e("language", "en", str),
            labels_path=e("labels_path", None, str),
            on_duplicate=e("on_duplicate", "error", str))
        e.close()
        _expect(src.id, "embedding source needs an id")
        _expect(src.path, f"embedding source {src.id}: needs a path")
        _expect(src.format in EMBEDDING_FORMATS,
                f"embedding source {src.id}: format must be one of {EMBEDDING_FORMATS}")
        _expect(src.format != "native" or src.labels_path,
                f"embedding source {src.id}: native format needs labels_path")
        _expect(src.on_duplicate in ON_DUPLICATE,
                f"embedding source {src.id}: on_duplicate must be one of {ON_DUPLICATE}")
        _expect_language(src.language, f"embedding source {src.id}")
        embeddings.append(src)
    ids = [s.id for s in embeddings]
    _expect(len(set(ids)) == len(ids), "embedding source ids must be unique")

    graphs = []
    for i, entry in enumerate(graph_entries):
        e = _Section(entry, f"graphs[{i}].")
        g = GraphSource(id=e("id", "", str), path=e("path", "", str),
                        enabled=e("enabled", True, bool),
                        apply_term_filter=e("apply_term_filter", True, bool))
        e.close()
        _expect(g.id, "graph source needs an id")
        _expect(g.path, f"graph source {g.id}: needs a path")
        graphs.append(g)
    gids = [g.id for g in graphs]
    _expect(len(set(gids)) == len(gids), "graph source ids must be unique")

    evaluations = []
    for i, entry in enumerate(evaluation_entries):
        e = _Section(entry, f"evaluations[{i}].")
        ds = EvalDataset(
            id=e("id", "", str), path=e("path", None, str),
            dev_path=e("dev_path", None, str), test_path=e("test_path", None, str),
            format=e("format", "generic", str), language=e("language", "en", str),
            splits=tuple(e("splits", ["all"], list, str)),
            num_chunks=e("num_chunks", 3, int), test_chunk=e("test_chunk", 3, int),
            drop_oov=e("drop_oov", False, bool))
        e.close()
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
        standardize_enabled=std("enabled", True, bool),
        stopwords_path=std("stopwords", None, str),
        exceptions_path=std("exceptions", None, str),
        vocab_check=std("vocab_check", True, bool),
        merge_strategy=merge("strategy", "zipf", str),
        column_norm=norm("columns", "l1", str),
        fusion_k=fusion("k", DEFAULT_NEIGHBORS, int),
        fusion_out_dims=fusion("out_dims", None, int),
        fusion_discount=fusion("discount", True, bool),
        retrofit_iterations=retro("iterations", DEFAULT_ITERATIONS, int),
        retrofit_self_loops=retro("self_loops", True, bool),
        excluded_graph_sources=tuple(retro("excluded_sources", [], list, str)),
        filter_min_count=term_filter("min_count", dict(DEFAULT_MIN_COUNT), dict, int),
        filter_max_words=term_filter("max_words", DEFAULT_MAX_WORDS, int),
        evaluations=evaluations,
        output_dir=output("dir", "out", str),
        output_matrix=output("matrix", "ensemble.emb1", str),
        output_labels=output("labels", "ensemble.labels", str),
        output_report=output("report", "report.tsv", str),
    )
    for section in (std, merge, norm, fusion, retro, term_filter, output):
        section.close()
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
    _expect(config.filter_max_words >= 1, "term_filter.max_words must be >= 1")
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
