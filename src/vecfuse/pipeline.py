"""End-to-end pipeline orchestration.

Stage order: per embedding source, read, standardize and merge rows, then
column-normalize; fuse when two sources are enabled; load, rescale and
filter the graph edges; build the association matrix; retrofit; evaluate.
This module is the only one that knows that order: `ensemble_matrix`
builds the output matrix for both `run_pipeline` and the CLI.
Each stage's output can be cached to disk and a cached stage is skipped
on the next run; cached and straight-through runs produce identical bits.

A run reads the configured stopword and exception files once and keeps
one label memo for all its stages (on `StageCache`): merge, graph and
evaluate standardize a label that no lemma vocabulary decides once per
run. Each stage's lemma vocabulary is a `LazyVocabulary`, built only when
a label needs one; evaluate's extends graph's, so each output label is
tokenized at most once per run.
"""

from __future__ import annotations

import functools
import os

from . import evaluation, interpolate, kgraph, matrixio, rowmerge
from .config import EmbeddingSource, PipelineConfig
from .errors import ConfigError, StageError, VecfuseError
from .labels import LemmaRuleSet, DEFAULT_RULES, Standardizer, \
    default_rules, load_exceptions, load_stopwords, split_uri, tokenize
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
    """Optional on-disk cache of intermediate artifacts, plus what the
    stages of a run share in memory: the configured label rules with their
    memo, and the last label list given to `output_standardizer` with its
    lemma vocabulary."""

    def __init__(self, directory=None):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._label_rules = {}
        self.output_labels = []
        self.output_vocabulary = None

    def label_rules(self, config: PipelineConfig) -> Standardizer:
        """The Standardizer of the configured rule files, read on first use;
        each stage's standardizer is made from it and shares its memo.
        Other rule files get a Standardizer, and a memo, of their own."""
        files = (config.stopwords_path, config.exceptions_path)
        rules = self._label_rules.get(files)
        if rules is None:
            rules = self._label_rules[files] = rule_standardizer(config)
        return rules

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


def token_vocabulary(labels) -> set:
    """All single tokens occurring in a label list, for lemma validation."""
    vocab = set()
    for label in labels:
        vocab.update(tokenize(label))
    return vocab


def rule_standardizer(config: PipelineConfig) -> Standardizer:
    """A Standardizer with the configured stopwords and lemma exceptions,
    read from their files, and no vocabulary."""
    stopwords = load_stopwords(config.stopwords_path) \
        if config.stopwords_path else None
    if config.exceptions_path:
        rules = LemmaRuleSet(rules=DEFAULT_RULES,
                             exceptions=load_exceptions(config.exceptions_path))
    else:
        rules = default_rules()
    return Standardizer(rules=rules, stopwords=stopwords)


class LazyVocabulary:
    """The lemma vocabulary of a label list: `token_vocabulary(texts)`
    joined with the words of `base`, the LazyVocabulary of a list that
    this one extends. It is built on its first membership test, which
    drops `texts` and `base`."""

    def __init__(self, texts, base=None):
        self.texts = texts
        self.base = base
        self.words = None

    def __contains__(self, word) -> bool:
        return word in self.build()

    def build(self) -> set:
        if self.words is None:
            words = token_vocabulary(self.texts)
            if self.base is not None:
                words |= self.base.build()
            self.words, self.texts, self.base = words, None, None
        return self.words


def build_standardizer(config: PipelineConfig, texts, cache: StageCache,
                       base: LazyVocabulary | None = None) -> Standardizer:
    """The configured Standardizer, sharing the rules and memo of `cache`'s
    run. With `vocab_check` on, lemma candidates are checked against
    `LazyVocabulary(texts, base)`."""
    return cache.label_rules(config).with_vocab(
        LazyVocabulary(texts, base) if config.vocab_check else None)


def output_standardizer(config: PipelineConfig, labels, cache: StageCache) -> Standardizer:
    """`build_standardizer` for the graph and evaluate stages, whose lemma
    vocabulary is that of the standardized `labels`. With `vocab_check` on,
    the labels are split as URIs here, which raises on one that is not. The
    output matrix lists the fused matrix's labels first: a list that starts
    with the list of the previous call has only the labels it adds split,
    and extends that call's vocabulary, so each label is tokenized once."""
    if not config.vocab_check:
        return build_standardizer(config, (), cache)
    seen, base = cache.output_labels, cache.output_vocabulary
    if labels[:len(seen)] != seen:
        seen, base = [], None
    standardizer = build_standardizer(
        config, [split_uri(label)[1] for label in labels[len(seen):]], cache, base)
    cache.output_labels, cache.output_vocabulary = list(labels), standardizer.vocab
    return standardizer


@_stage("ingest")
def ingest_source(source: EmbeddingSource, cache: StageCache) -> LabeledMatrix:
    cached = cache.load_matrix(f"ingest_{source.id}")
    if cached is not None:
        return cached
    if source.format == "glove_text":
        matrix = matrixio.read_text_embeddings(source.path, header=False,
                                               on_duplicate=source.on_duplicate)
    elif source.format == "word2vec_text":
        matrix = matrixio.read_text_embeddings(source.path, header=True,
                                               on_duplicate=source.on_duplicate)
    elif source.format == "word2vec_binary":
        matrix = matrixio.read_word2vec_binary(source.path)
    elif source.format == "native":
        matrix = matrixio.read_native(source.path, source.labels_path)
    else:
        raise ConfigError(f"unknown embedding format {source.format!r}")
    cache.store_matrix(f"ingest_{source.id}", matrix)
    return matrix


@_stage("merge")
def prepare_source(config: PipelineConfig, source: EmbeddingSource,
                   cache: StageCache) -> LabeledMatrix:
    """Standardize, merge and column-normalize one embedding source."""
    cached = cache.load_matrix(f"prepared_{source.id}")
    if cached is not None:
        return cached
    matrix = ingest_source(source, cache)
    if config.standardize_enabled:
        standardizer = build_standardizer(config, matrix.labels, cache)
        plan, kept = rowmerge.build_merge_plan(matrix, standardizer,
                                               language=source.language)
        if len(kept) != len(matrix):
            matrix = matrix.take(kept)
        matrix = rowmerge.merge_standardized(matrix, plan,
                                             strategy=config.merge_strategy)
    if config.column_norm == "l1":
        matrix = rowmerge.l1_normalize_columns(matrix)
    elif config.column_norm == "l2":
        matrix = rowmerge.l2_normalize_columns(matrix)
    cache.store_matrix(f"prepared_{source.id}", matrix)
    return matrix


@_stage("fuse")
def fuse_sources(config: PipelineConfig, cache: StageCache,
                 singular_values_path=None) -> LabeledMatrix:
    """Prepare every enabled source and fuse them when there are two. A
    cached fused matrix is used without preparing the sources."""
    sources = config.enabled_embeddings()
    if len(sources) == 1:
        return prepare_source(config, sources[0], cache)
    if len(sources) != 2:
        raise ConfigError(f"fusion needs exactly 2 enabled sources, got {len(sources)}")
    cached = cache.load_matrix("fused")
    if cached is not None and singular_values_path is None:
        return cached
    a, b = (rowmerge.l2_normalize_rows(prepare_source(config, source, cache))
            for source in sources)
    out_dims = config.fusion_out_dims
    if out_dims is not None and out_dims > a.dims + b.dims:
        raise ConfigError(f"out_dims {out_dims} exceeds {a.dims + b.dims} "
                          "concatenated dimensions")
    result = interpolate.fuse(a, b, k=config.fusion_k, out_dims=out_dims,
                              discount=config.fusion_discount)
    if singular_values_path is not None:
        with open(singular_values_path, "w", encoding="utf-8", newline="\n") as f:
            for value in result.singular_values:
                f.write(f"{float(value)!r}\n")
    cache.store_matrix("fused", result.matrix)
    return result.matrix


@_stage("graph")
def load_graphs(config: PipelineConfig, matrix: LabeledMatrix,
                cache: StageCache) -> kgraph.EdgeTable:
    """Load, prune, rescale and term-filter all enabled edge lists,
    standardizing their labels against the vocabulary of `matrix`. A
    cached table is used without building a Standardizer; with no graph
    enabled the table is empty and the cache is not read."""
    if not config.enabled_graphs():
        return kgraph.EdgeTable.concat([])
    cached = cache.load_assertions("graph_filtered")
    if cached is not None:
        return cached
    standardizer = output_standardizer(config, matrix.labels, cache)
    excluded = set(config.excluded_graph_sources)
    filtered, unfiltered = [], []
    for graph in config.enabled_graphs():
        table = kgraph.load_assertions(graph.path, standardizer=standardizer)
        if excluded:
            table = table.without_sources(excluded)
        (filtered if graph.apply_term_filter else unfiltered).append(table)
    kept = kgraph.EdgeTable.concat(filtered + unfiltered)
    if kept:
        kept = kgraph.rescale_by_source(kept)
        n_filtered = sum(len(table) for table in filtered)
        kept = kgraph.EdgeTable.concat([
            kgraph.filter_terms(kept[:n_filtered], min_count=config.filter_min_count,
                                max_words=config.filter_max_words),
            kept[n_filtered:]])
    cache.store_assertions("graph_filtered", kept)
    return kept


@_stage("retrofit")
def retrofit_matrix(config: PipelineConfig, matrix: LabeledMatrix,
                    assertions: kgraph.EdgeTable, cache: StageCache,
                    checkpoint_dir=None) -> LabeledMatrix:
    cached = cache.load_matrix("retrofitted")
    if cached is not None and checkpoint_dir is None:
        return cached
    # assemble_problem adds the embedding terms to the graph's vocabulary;
    # it copies the normalized rows, which are not held past it
    problem = assemble_problem(rowmerge.l2_normalize_rows(matrix),
                               kgraph.build_association(assertions),
                               self_loops=config.retrofit_self_loops)
    result = retrofit(problem, iterations=config.retrofit_iterations,
                      checkpoint_dir=checkpoint_dir)
    cache.store_matrix("retrofitted", result)
    return result


@_stage("evaluate")
def evaluate_matrix(config: PipelineConfig, matrix: LabeledMatrix,
                    cache: StageCache) -> list:
    """One EvalReport per configured dataset and split. `cache` holds the
    run's label rules and memo, and may hold the vocabulary of a prefix of
    the labels."""
    digit_fallback = any(s.format.startswith("word2vec")
                         for s in config.enabled_embeddings())
    standardizer = output_standardizer(config, matrix.labels, cache) \
        if config.standardize_enabled else None
    reports = []
    for ds in config.evaluations:
        if ds.path:
            pairs = evaluation.load_gold(ds.path, format=ds.format,
                                         language=ds.language)
            for split in ds.splits:
                reports.append(_run_eval(config, matrix, pairs, ds, split,
                                         standardizer, digit_fallback))
        for split, path in (("dev", ds.dev_path), ("test", ds.test_path)):
            if path:
                pairs = evaluation.load_gold(path, format=ds.format,
                                             language=ds.language)
                reports.append(_run_eval(config, matrix, pairs, ds, "all",
                                         standardizer, digit_fallback,
                                         split_label=split))
    return reports


def _run_eval(config, matrix, pairs, ds, split, standardizer, digit_fallback,
              split_label=None):
    report = evaluation.evaluate(
        matrix, pairs, split=split, dataset_id=ds.id,
        num_chunks=ds.num_chunks, test_chunk=ds.test_chunk,
        standardizer=standardizer, drop_oov=ds.drop_oov,
        digit_fallback=digit_fallback,
        standardize=config.standardize_enabled)
    if split_label is not None:
        report.split = split_label
    return report


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
    cache = StageCache(cache_dir)
    matrix = ensemble_matrix(config, cache)

    os.makedirs(config.output_dir, exist_ok=True)
    matrix_path = os.path.join(config.output_dir, config.output_matrix)
    labels_path = os.path.join(config.output_dir, config.output_labels)
    matrixio.write_native(matrix, matrix_path, labels_path)

    reports = []
    report_path = None
    if config.evaluations:
        reports = evaluate_matrix(config, matrix, cache)
        report_path = os.path.join(config.output_dir, config.output_report)
        evaluation.write_report(reports, report_path)
    return {"matrix": matrix, "reports": reports,
            "matrix_path": matrix_path, "labels_path": labels_path,
            "report_path": report_path}
