"""End-to-end pipeline orchestration.

Stage order: per embedding source, read, standardize and merge rows, then
column-normalize; fuse when two sources are enabled; load, rescale and
filter the graph edges; build the association matrix; retrofit; evaluate.
This module is the only one that knows that order: `ensemble_matrix`
builds the output matrix for both `run_pipeline` and the CLI.
Each stage function only computes: `StageCache.artifact`, the one place
that loads and stores a stage's output, skips a stage cached on disk;
cached and straight-through runs produce identical bits.

Each stage that standardizes (merge, graph and evaluate) builds its own
standardizer from the config, with `stage_standardizer`: it reads the
configured stopword and exception files itself, and its memo and lemma
vocabulary are freed with the stage. A vocabulary is a `LazyVocabulary`
of that stage's labels, built only when a label needs one.
"""

from __future__ import annotations

import functools
import os

from . import evaluation, interpolate, kgraph, matrixio, rowmerge
from .config import EmbeddingSource, EvalDataset, PipelineConfig
from .errors import ConfigError, DegenerateInput, StageError, VecfuseError
from .labels import LemmaRuleSet, DEFAULT_RULES, Standardizer, \
    load_exceptions, load_stopwords, split_uri, tokenize
from .matrixio import LabeledMatrix
from .retrofit import assemble_problem, retrofit


def _stage(name):
    """Decorator attaching the stage name to a data, I/O or numerical
    failure; any other exception is a bug and propagates unchanged."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except (VecfuseError, OSError, ValueError) as exc:
                raise StageError(name, exc) from exc
        return run
    return wrap


class StageCache:
    """Optional on-disk cache of intermediate artifacts, named by stage.
    With no directory nothing is stored and every load misses."""

    def __init__(self, directory=None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _paths(self, name):
        return (os.path.join(self.directory, name + ".emb1"),
                os.path.join(self.directory, name + ".labels"))

    def load_matrix(self, name):
        if not self.directory:
            return None
        matrix_path, labels_path = self._paths(name)
        if os.path.exists(matrix_path) and os.path.exists(labels_path):
            return matrixio.read_native(matrix_path, labels_path)
        return None

    def store_matrix(self, name, matrix):
        if self.directory:
            matrix_path, labels_path = self._paths(name)
            matrixio.write_native(matrix, matrix_path, labels_path)

    def load_assertions(self, name):
        """The cached edge table. Its labels were standardized when it was
        stored, so they are checked but not standardized again."""
        if not self.directory:
            return None
        path = os.path.join(self.directory, name + ".tsv")
        if os.path.exists(path):
            return kgraph.read_assertions(path)
        return None

    def store_assertions(self, name, assertions):
        if self.directory:
            kgraph.write_assertions(os.path.join(self.directory, name + ".tsv"),
                                    assertions)

    def artifact(self, name, build, edges=False, use=True):
        """The artifact `name`, an edge table if `edges` else a matrix: the
        cached one on a hit, else `build()`, stored. `use=False` skips the load."""
        load, store = (self.load_assertions, self.store_assertions) if edges \
            else (self.load_matrix, self.store_matrix)
        cached = load(name) if use else None
        if cached is not None:
            return cached
        result = build()
        store(name, result)
        return result


def token_vocabulary(labels) -> set:
    """All single tokens occurring in a label list, for lemma validation."""
    vocab = set()
    for label in labels:
        vocab.update(tokenize(label))
    return vocab


class LazyVocabulary:
    """The lemma vocabulary of a label list, `token_vocabulary(texts)`,
    built on its first membership test, which drops `texts`."""

    def __init__(self, texts):
        self.texts = texts
        self.words = None

    def __contains__(self, word) -> bool:
        return word in self.build()

    def build(self) -> set:
        if self.words is None:
            self.words, self.texts = token_vocabulary(self.texts), None
        return self.words


def stage_standardizer(config: PipelineConfig, texts) -> Standardizer:
    """A stage's Standardizer: the stopwords and lemma exceptions of the
    files `config` names (else the bundled ones), an empty memo and, with
    `vocab_check` on, the lemma vocabulary `LazyVocabulary(texts)`."""
    stopwords = load_stopwords(config.stopwords_path) if config.stopwords_path else None
    rules = LemmaRuleSet(rules=DEFAULT_RULES,
                         exceptions=load_exceptions(config.exceptions_path)) \
        if config.exceptions_path else None
    return Standardizer(rules=rules, stopwords=stopwords,
                        vocab=LazyVocabulary(texts) if config.vocab_check else None)


def output_standardizer(config: PipelineConfig, labels) -> Standardizer:
    """`stage_standardizer` for the graph and evaluate stages, whose lemma
    vocabulary is that of the standardized `labels`. Every label is split
    as a URI here, which raises on one that is not."""
    return stage_standardizer(config, [split_uri(label)[1] for label in labels])


@_stage("ingest")
def ingest_source(source: EmbeddingSource, cache: StageCache) -> LabeledMatrix:
    def build():
        if source.format in ("glove_text", "word2vec_text"):
            return matrixio.read_text_embeddings(
                source.path, header=source.format == "word2vec_text",
                on_duplicate=source.on_duplicate)
        if source.format == "word2vec_binary":
            return matrixio.read_word2vec_binary(source.path)
        if source.format == "native":
            return matrixio.read_native(source.path, source.labels_path)
        raise ConfigError(f"unknown embedding format {source.format!r}")
    return cache.artifact(f"ingest_{source.id}", build)


@_stage("merge")
def prepare_source(config: PipelineConfig, source: EmbeddingSource,
                   cache: StageCache) -> LabeledMatrix:
    """Standardize, merge and column-normalize one embedding source."""
    def build():
        matrix = ingest_source(source, cache)
        if config.standardize_enabled:
            standardizer = stage_standardizer(config, matrix.labels)
            plan = rowmerge.build_merge_plan(matrix, standardizer, language=source.language)
            matrix = rowmerge.merge_standardized(matrix, plan,
                                                 strategy=config.merge_strategy)
        if config.column_norm == "l1":
            return rowmerge.l1_normalize_columns(matrix)
        if config.column_norm == "l2":
            return rowmerge.l2_normalize_columns(matrix)
        return matrix
    return cache.artifact(f"prepared_{source.id}", build)


@_stage("fuse")
def fuse_sources(config: PipelineConfig, cache: StageCache,
                 singular_values_path=None) -> LabeledMatrix:
    """Prepare every enabled source and fuse them when there are two. A
    cached fused matrix is used without preparing the sources."""
    sources = config.enabled_embeddings()
    if len(sources) == 1:
        matrix = prepare_source(config, sources[0], cache)
        if singular_values_path is not None:  # one source has no spectrum
            open(singular_values_path, "w", encoding="utf-8").close()
        return matrix
    if len(sources) != 2:
        raise ConfigError(f"fusion needs exactly 2 enabled sources, got {len(sources)}")
    def build():
        a, b = (rowmerge.l2_normalize_rows(prepare_source(config, source, cache))
                for source in sources)
        out_dims = config.fusion_out_dims
        if config.fusion_discount and out_dims is not None and out_dims > a.dims + b.dims:
            raise ConfigError(f"out_dims {out_dims} exceeds {a.dims + b.dims} "
                              "concatenated dimensions")
        result = interpolate.fuse(a, b, k=config.fusion_k, out_dims=out_dims,
                                  discount=config.fusion_discount)
        if singular_values_path is not None:
            with open(singular_values_path, "w", encoding="utf-8", newline="\n") as f:
                for value in result.singular_values:
                    f.write(f"{float(value)!r}\n")
        return result.matrix
    return cache.artifact("fused", build, use=singular_values_path is None)


@_stage("graph")
def load_graphs(config: PipelineConfig, matrix: LabeledMatrix,
                cache: StageCache) -> kgraph.EdgeTable:
    """Load, prune, rescale and term-filter all enabled edge lists,
    standardizing their labels against the vocabulary of `matrix`. A
    cached table is used without building a Standardizer; with no graph
    enabled the table is empty and the cache is not read."""
    if not config.enabled_graphs():
        return kgraph.EdgeTable.concat([])
    def build():
        standardizer = output_standardizer(config, matrix.labels)
        excluded = set(config.excluded_graph_sources)
        filtered, unfiltered = [], []
        for graph in config.enabled_graphs():
            table = kgraph.load_assertions(graph.path, standardizer=standardizer)
            if excluded:
                table = table.without_sources(excluded)
            (filtered if graph.apply_term_filter else unfiltered).append(table)
        kept = kgraph.EdgeTable.concat(filtered + unfiltered)
        if not kept:
            return kept
        kept = kgraph.rescale_by_source(kept)
        n_filtered = sum(len(table) for table in filtered)
        return kgraph.EdgeTable.concat([
            kgraph.filter_terms(kept.take(slice(None, n_filtered)),
                                min_count=config.filter_min_count,
                                max_words=config.filter_max_words),
            kept.take(slice(n_filtered, None))])
    return cache.artifact("graph_filtered", build, edges=True)


@_stage("retrofit")
def retrofit_matrix(config: PipelineConfig, matrix: LabeledMatrix,
                    assertions: kgraph.EdgeTable, cache: StageCache,
                    checkpoint_dir=None) -> LabeledMatrix:
    def build():
        # assemble_problem adds the embedding terms to the graph's vocabulary;
        # it copies the normalized rows, which are not held past it
        problem = assemble_problem(rowmerge.l2_normalize_rows(matrix),
                                   kgraph.build_association(assertions),
                                   self_loops=config.retrofit_self_loops)
        return retrofit(problem, iterations=config.retrofit_iterations,
                        checkpoint_dir=checkpoint_dir)
    return cache.artifact("retrofitted", build, use=checkpoint_dir is None)


def dataset_splits(ds: EvalDataset) -> list:
    """[(split, pairs), ...] of one dataset, each gold file read once: the
    `splits` of its `path` in config order, or ("dev", ...) and then
    ("test", ...) for the partition files it names."""
    def load(path):
        pairs = evaluation.load_gold(path, format=ds.format, language=ds.language)
        if not pairs:
            raise DegenerateInput("empty dataset")
        return pairs
    if ds.path:
        pairs = load(ds.path)
        return [(split, evaluation.select_split(pairs, split, ds.num_chunks, ds.test_chunk))
                for split in ds.splits]
    return [(split, load(path))
            for split, path in (("dev", ds.dev_path), ("test", ds.test_path)) if path]


@_stage("evaluate")
def evaluate_matrix(config: PipelineConfig, matrix: LabeledMatrix) -> list:
    """One EvalReport per configured dataset and split, in config order,
    all through one lookup of `matrix`."""
    standardizer = output_standardizer(config, matrix.labels) \
        if config.standardize_enabled else None
    lookup = evaluation.MatrixLookup(
        matrix, standardizer,
        digit_fallback=any(s.format.startswith("word2vec")
                           for s in config.enabled_embeddings()))
    return [evaluation.evaluate(lookup, pairs, ds.id, split, drop_oov=ds.drop_oov)
            for ds in config.evaluations for split, pairs in dataset_splits(ds)]


def ensemble_matrix(config: PipelineConfig, cache: StageCache,
                    checkpoint_dir=None) -> LabeledMatrix:
    """The output matrix: the fused matrix, retrofitted onto the graph
    when any edge survives filtering."""
    matrix = fuse_sources(config, cache)
    assertions = load_graphs(config, matrix, cache)
    if not assertions:
        return matrix
    return retrofit_matrix(config, matrix, assertions, cache,
                           checkpoint_dir=checkpoint_dir)


def run_pipeline(config: PipelineConfig, cache_dir=None) -> dict:
    """Run every configured stage; returns the output artifact paths,
    the final matrix and the evaluation reports."""
    matrix = ensemble_matrix(config, StageCache(cache_dir))

    os.makedirs(config.output_dir, exist_ok=True)
    matrix_path = os.path.join(config.output_dir, config.output_matrix)
    labels_path = os.path.join(config.output_dir, config.output_labels)
    matrixio.write_native(matrix, matrix_path, labels_path)

    reports = []
    report_path = None
    if config.evaluations:
        reports = evaluate_matrix(config, matrix)
        report_path = os.path.join(config.output_dir, config.output_report)
        evaluation.write_report(reports, report_path)
    return {"matrix": matrix, "reports": reports,
            "matrix_path": matrix_path, "labels_path": labels_path,
            "report_path": report_path}
