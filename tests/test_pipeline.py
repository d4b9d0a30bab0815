import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import bits_equal
from vecfuse import cli, kgraph, labels, matrixio, pipeline, rowmerge
from vecfuse.config import config_from_dict
from vecfuse.evaluation import format_report_table
from vecfuse.interpolate import svd_factors
from vecfuse.labels import Standardizer, split_uri
from vecfuse.matrixio import read_native, read_text_embeddings
from vecfuse.pipeline import run_pipeline, token_vocabulary
from vecfuse.rowmerge import build_merge_plan, l1_normalize_columns, merge_standardized

ALPHA_TEXT = """\
the 0.9 0.1 0.05
cat 0.8 0.2 0.1
Cat 0.7 0.3 0.1
dog 0.6 0.4 0.2
fish 0.5 0.5 0.3
stone 0.4 0.6 0.4
run 0.3 0.7 0.5
running 0.2 0.8 0.6
"""

BETA_TEXT = """\
6 2
cat 0.9 0.1
dog 0.8 0.3
fish 0.7 0.5
bird 0.6 0.7
stone 0.5 0.9
tree 0.4 1.0
"""

GRAPH_TSV = """\
# toy edges
/c/en/cat\t/c/en/dog\t2.0\tomcs
/c/en/cat\t/c/en/fish\t1.0\tomcs
/c/en/dog\t/c/en/stone\t0.5\tomcs
/c/fr/chat\t/c/en/cat\t1.0\twikt
/c/fr/chien\t/c/en/dog\t1.0\twikt
"""

PPDB_TSV = """\
/c/en/stone\t/c/en/rock\t\tppdb
/c/en/run\t/c/en/sprint\t\tppdb
"""

GOLD_TEXT = """\
cat dog 6.0
dog fish 5.0
cat fish 4.0
fish stone 3.0
dog stone 2.0
cat stone 1.0
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "alpha.txt").write_text(ALPHA_TEXT, encoding="utf-8")
    (tmp_path / "beta.txt").write_text(BETA_TEXT, encoding="utf-8")
    (tmp_path / "edges.tsv").write_text(GRAPH_TSV, encoding="utf-8")
    (tmp_path / "ppdb.tsv").write_text(PPDB_TSV, encoding="utf-8")
    (tmp_path / "gold.txt").write_text(GOLD_TEXT, encoding="utf-8")
    return tmp_path


def toy_raw(root, out="out", **overrides):
    raw = {
        "schema_version": 1,
        "embeddings": [
            {"id": "alpha", "path": str(root / "alpha.txt"), "format": "glove_text"},
            {"id": "beta", "path": str(root / "beta.txt"), "format": "word2vec_text"},
        ],
        "graphs": [
            {"id": "toy", "path": str(root / "edges.tsv")},
            {"id": "ppdb", "path": str(root / "ppdb.tsv")},
        ],
        "term_filter": {"min_count": {"en": 1, "other": 1}, "max_words": 3},
        "fusion": {"k": 2, "out_dims": 4, "discount": True},
        "retrofit": {"iterations": 10, "self_loops": True},
        "evaluations": [
            {"id": "toy_gold", "path": str(root / "gold.txt"),
             "splits": ["all", "test"]},
        ],
        "output": {"dir": str(root / out)},
    }
    raw.update(overrides)
    return raw


def toy_config(root, out="out", **overrides):
    return config_from_dict(toy_raw(root, out, **overrides))


class TestMinimalPath:
    def test_single_source_no_graph_matches_manual_chain(self, workspace):
        config = toy_config(
            workspace,
            embeddings=[{"id": "alpha", "path": str(workspace / "alpha.txt"),
                         "format": "glove_text"}],
            graphs=[], evaluations=[])
        result = run_pipeline(config)

        raw = read_text_embeddings(workspace / "alpha.txt", header=False)
        vocab = token_vocabulary(raw.labels)
        plan, kept = build_merge_plan(raw, Standardizer(vocab=vocab))
        manual = l1_normalize_columns(merge_standardized(raw, plan))

        assert result["matrix"].labels == manual.labels
        assert bits_equal(result["matrix"].data, manual.data)
        # merging collapsed both the case pair and the inflection pair
        assert "/c/en/cat" in manual.labels
        assert "running" not in " ".join(manual.labels)
        assert len(manual) == len(raw) - 2

    def test_written_artifacts_round_trip(self, workspace):
        config = toy_config(workspace, graphs=[], evaluations=[])
        result = run_pipeline(config)
        back = read_native(result["matrix_path"], result["labels_path"])
        assert back.labels == result["matrix"].labels
        assert bits_equal(back.data, result["matrix"].data)


class TestFullPipeline:
    def test_end_to_end(self, workspace, capsys):
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps(toy_raw(workspace)), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(config_path)]) == 0
        out = workspace / "out"
        matrix = read_native(out / "ensemble.emb1", out / "ensemble.labels")
        # graph-only terms acquired vectors through retrofitting
        assert "/c/fr/chat" in matrix.labels
        assert "/c/en/rock" in matrix.labels
        assert matrix.dims == 4  # fused and reduced
        chat = matrix.data[matrix.labels.index("/c/fr/chat")]
        assert np.abs(chat).sum() > 0
        # reports: two splits for one dataset, printed and written
        report = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[:2] for line in report[1:]] == \
            [["toy_gold", "all"], ["toy_gold", "test"]]
        reports = run_pipeline(toy_config(workspace, out="again"))["reports"]
        assert capsys.readouterr().out == format_report_table(reports) + "\n"

    def test_bilingual_term_near_anchor(self, workspace):
        config = toy_config(workspace)
        matrix = run_pipeline(config)["matrix"]
        idx = {lab: i for i, lab in enumerate(matrix.labels)}
        chat = matrix.data[idx["/c/fr/chat"]].astype(np.float64)
        cat = matrix.data[idx["/c/en/cat"]].astype(np.float64)
        cos = chat @ cat / np.sqrt((chat @ chat) * (cat @ cat))
        assert cos > 0.9

    def test_determinism_bit_identical_outputs(self, workspace):
        config1 = toy_config(workspace, out="out1")
        config2 = toy_config(workspace, out="out2")
        r1 = run_pipeline(config1)
        r2 = run_pipeline(config2)
        b1 = Path(r1["matrix_path"]).read_bytes()
        b2 = Path(r2["matrix_path"]).read_bytes()
        assert b1 == b2
        assert Path(r1["labels_path"]).read_bytes() == Path(r2["labels_path"]).read_bytes()
        assert Path(r1["report_path"]).read_bytes() == Path(r2["report_path"]).read_bytes()

    def test_cache_path_matches_straight_path(self, workspace):
        plain = run_pipeline(toy_config(workspace, out="plain"))
        cache_dir = str(workspace / "cache")
        first = run_pipeline(toy_config(workspace, out="warm"),
                             cache_dir=cache_dir)
        # second run consumes every cached stage
        second = run_pipeline(toy_config(workspace, out="cached"),
                              cache_dir=cache_dir)
        for result in (first, second):
            assert bits_equal(result["matrix"].data, plain["matrix"].data)
            assert result["matrix"].labels == plain["matrix"].labels
        assert (workspace / "cache" / "retrofitted.emb1").exists()
        assert (workspace / "cache" / "graph_filtered.tsv").exists()

    def test_warm_graph_cache_calls_no_standardizer(self, workspace, monkeypatch):
        cache_dir = workspace / "cache"
        first = run_pipeline(toy_config(workspace, out="warm"), cache_dir=str(cache_dir))
        # retrofit again, from the cached fused matrix and edge table
        (cache_dir / "retrofitted.emb1").unlink()
        calls = {"standardize": 0, "build_standardizer": 0}
        in_graph = dict(calls)

        def counting(owner, name):
            inner = getattr(owner, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        def graph_stage(load_graphs):
            def call(*args, **kwargs):
                before = dict(calls)
                try:
                    return load_graphs(*args, **kwargs)
                finally:
                    for name in calls:
                        in_graph[name] += calls[name] - before[name]
            return call

        counting(Standardizer, "standardize")
        counting(pipeline, "build_standardizer")
        monkeypatch.setattr(pipeline, "load_graphs", graph_stage(pipeline.load_graphs))
        second = run_pipeline(toy_config(workspace, out="cached"), cache_dir=str(cache_dir))
        assert in_graph == {"standardize": 0, "build_standardizer": 0}
        assert calls["standardize"] > 0  # evaluation still standardizes
        assert bits_equal(second["matrix"].data, first["matrix"].data)
        assert second["matrix"].labels == first["matrix"].labels
        assert Path(second["matrix_path"]).read_bytes() == \
            Path(first["matrix_path"]).read_bytes()

    @pytest.mark.parametrize("edges, retrofit", [
        ("/c/en/cat\t/c/en/dog\t1.0\tomcs\n", {"excluded_sources": ["omcs"]}),
        ("/c/en/cat\t/c/en/Cat\t1.0\tomcs\n", {}),
    ], ids=["source_excluded", "self_edge"])
    def test_emptied_graph_is_cached(self, workspace, monkeypatch, edges, retrofit):
        """A graph that source exclusion or standardization leaves empty is
        stored like any other: a warm run reads no edge file."""
        (workspace / "one.tsv").write_text(edges, encoding="utf-8")
        cache_dir = str(workspace / "cache")

        def run(out):
            return run_pipeline(toy_config(
                workspace, out=out, retrofit=retrofit,
                graphs=[{"id": "one", "path": str(workspace / "one.tsv")}]),
                cache_dir=cache_dir)

        cold = run("cold")
        assert (workspace / "cache" / "graph_filtered.tsv").read_bytes() == b""
        loaded = []
        monkeypatch.setattr(kgraph, "load_assertions", lambda *args, **kwargs:
                            loaded.append(args))
        warm = run("warm")
        assert loaded == []
        for key in ("matrix_path", "labels_path", "report_path"):
            assert Path(warm[key]).read_bytes() == Path(cold[key]).read_bytes()

    def test_warm_fused_cache_skips_source_preparation(self, workspace, monkeypatch):
        cache_dir = str(workspace / "cache")
        run_pipeline(toy_config(workspace, out="warm"), cache_dir=cache_dir)
        read = []

        def recording_read_native(matrix_path, labels_path):
            read.append(os.path.basename(matrix_path))
            return read_native(matrix_path, labels_path)

        monkeypatch.setattr(matrixio, "read_native", recording_read_native)
        run_pipeline(toy_config(workspace, out="cached"), cache_dir=cache_dir)
        assert read == ["fused.emb1", "retrofitted.emb1"]

    def test_source_exclusion_equals_manual_prefilter(self, workspace):
        excluded = toy_config(workspace, out="excl",
                              retrofit={"iterations": 10, "self_loops": True,
                                        "excluded_sources": ["wikt"]})
        kept_lines = [line for line in GRAPH_TSV.splitlines()
                      if not line.endswith("\twikt")]
        (workspace / "edges_nowikt.tsv").write_text(
            "\n".join(kept_lines) + "\n", encoding="utf-8")
        manual = toy_config(workspace, out="manual",
                            graphs=[{"id": "toy",
                                     "path": str(workspace / "edges_nowikt.tsv")},
                                    {"id": "ppdb",
                                     "path": str(workspace / "ppdb.tsv")}])
        r_excluded = run_pipeline(excluded)
        r_manual = run_pipeline(manual)
        assert r_excluded["matrix"].labels == r_manual["matrix"].labels
        assert bits_equal(r_excluded["matrix"].data, r_manual["matrix"].data)

    def test_no_self_loops_changes_result(self, workspace):
        base = run_pipeline(toy_config(workspace, out="with"))
        ablated = run_pipeline(
            toy_config(workspace, out="without",
                       retrofit={"iterations": 10, "self_loops": False}))
        assert base["matrix"].labels == ablated["matrix"].labels
        assert not bits_equal(base["matrix"].data, ablated["matrix"].data)

    def test_word2vec_binary_source(self, workspace):
        import struct
        blob = b"3 2\n"
        for token, vec in [("cat", (0.9, 0.1)), ("dog", (0.8, 0.3)),
                           ("area51", (0.1, 0.9))]:
            blob += token.encode() + b" " + struct.pack("<2f", *vec) + b"\n"
        (workspace / "news.bin").write_bytes(blob)
        config = toy_config(
            workspace, graphs=[],
            embeddings=[{"id": "news", "path": str(workspace / "news.bin"),
                         "format": "word2vec_binary"}],
            evaluations=[{"id": "toy_gold", "path": str(workspace / "gold.txt")}])
        result = run_pipeline(config)
        assert "/c/en/cat" in result["matrix"].labels
        assert result["reports"][0].n == 6

    def test_published_partition_files(self, workspace):
        # datasets that ship their own dev/test files bypass the round robin
        (workspace / "gold_dev.txt").write_text(
            "cat dog 6.0\ndog fish 5.0\ncat fish 4.0\nfish stone 3.0\n",
            encoding="utf-8")
        (workspace / "gold_test.txt").write_text(
            "dog stone 2.0\ncat stone 1.0\ncat dog 6.0\ndog fish 5.0\n",
            encoding="utf-8")
        config = toy_config(
            workspace, graphs=[],
            evaluations=[{"id": "men_like",
                          "dev_path": str(workspace / "gold_dev.txt"),
                          "test_path": str(workspace / "gold_test.txt")}])
        reports = run_pipeline(config)["reports"]
        assert [(r.dataset, r.split, r.n) for r in reports] == \
            [("men_like", "dev", 4), ("men_like", "test", 4)]

    def test_standardization_disabled_keeps_raw_labels(self, workspace):
        config = toy_config(workspace, graphs=[],
                            standardize={"enabled": False},
                            embeddings=[{"id": "alpha",
                                         "path": str(workspace / "alpha.txt"),
                                         "format": "glove_text"}])
        result = run_pipeline(config)
        assert "Cat" in result["matrix"].labels  # no case folding, no merging
        assert len(result["matrix"]) == 8
        report = result["reports"][0]
        assert report.n == 6


class TestSlashInLabelText:
    def test_inflected_edge_term_lands_on_embedding_row(self, workspace):
        """The lemma vocabulary of the graph stage holds a label's whole
        text, '/' included, so `ac/dcs` lemmatizes onto the `ac/dc` row."""
        (workspace / "alpha.txt").write_text(ALPHA_TEXT + "AC/DC 0.1 0.9 0.7\n",
                                             encoding="utf-8")
        (workspace / "slash.tsv").write_text(
            "/c/en/ac/dcs\t/c/en/cat\t1.0\tomcs\n"
            "/c/en/ac/dcs\t/c/en/dog\t1.0\tomcs\n", encoding="utf-8")
        config = toy_config(
            workspace,
            embeddings=[{"id": "alpha", "path": str(workspace / "alpha.txt"),
                         "format": "glove_text"}],
            graphs=[{"id": "slash", "path": str(workspace / "slash.tsv")}])
        assert config.vocab_check
        cache = pipeline.StageCache()
        matrix = pipeline.fuse_sources(config, cache)
        assert "/c/en/ac/dc" in matrix.labels
        edges = pipeline.load_graphs(config, matrix, cache)
        assert [(a.start, a.end) for a in edges] == [
            ("/c/en/ac/dc", "/c/en/cat"), ("/c/en/ac/dc", "/c/en/dog")]


def text_vocabulary(labels):
    """token_vocabulary of the texts of standardized labels, from scratch."""
    return token_vocabulary(split_uri(label)[1] for label in labels)


# Inflected words: merge folds `walked` into the `walk` row, the beta
# source (which has no `run`) keeps `runs` as its own row, and the graph
# and evaluate stages, whose vocabularies hold `run`, fold `runs` into it.
SUFFIXED = {"alpha.txt": "walk 0.1 0.2 0.3\nwalked 0.2 0.1 0.4\n",
            "beta.txt": "runs 0.3 0.6\n",
            "edges.tsv": "/c/en/runs\t/c/en/fish\t1.0\tomcs\n"
                         "/c/en/cats\t/c/en/dog\t1.0\tomcs\n"
                         "/c/en/walked\t/c/en/run\t1.0\tomcs\n",
            "gold.txt": "cats fish 3.5\nwalked run 2.5\nruns dog 1.5\n"}


def add_suffixed_words(workspace):
    for name, extra in SUFFIXED.items():
        text = (workspace / name).read_text(encoding="utf-8") + extra
        if name == "beta.txt":
            text = text.replace("6 2\n", "7 2\n", 1)
        (workspace / name).write_text(text, encoding="utf-8")


def per_stage_labels(m):
    """As before labels were standardized once per run: each stage reads
    the rule files, starts its own memo and builds its lemma vocabulary up
    front, tokenizing every label from scratch."""
    def standardizer(config, texts):
        return pipeline.rule_standardizer(config).with_vocab(
            frozenset(token_vocabulary(texts)) if config.vocab_check else None)

    m.setattr(pipeline, "build_standardizer",
              lambda config, texts, cache, base=None: standardizer(config, texts))
    m.setattr(pipeline, "output_standardizer",
              lambda config, labels, cache: standardizer(
                  config, [split_uri(label)[1] for label in labels]))


class TestLabelsTokenizedOnce:
    """The graph and evaluate stages of one run share a token vocabulary,
    built only when a label reaches a lemma rule: each label is tokenized
    at most once, a vocabulary, when built, holds the tokens of exactly
    the labels of its stage, and the output bytes are those of tokenizing
    from scratch in every stage."""

    RAW_LABELS = 8 + 6  # lines of alpha.txt and beta.txt, tokenized by merge
    RAW_SUFFIXED = RAW_LABELS + 3

    def run(self, monkeypatch, config, cache_dir=None, from_scratch=False):
        texts, vocabs = [], []
        tokenize = pipeline.tokenize

        def counting(text):
            texts.append(text)
            return tokenize(text)

        class Recording(Standardizer):
            def __init__(self, *args, vocab=None, **kwargs):
                if vocab is not None:
                    vocabs.append(vocab)
                super().__init__(*args, vocab=vocab, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(pipeline, "tokenize", counting)
            m.setattr(pipeline, "Standardizer", Recording)
            if from_scratch:
                per_stage_labels(m)
            result = run_pipeline(config, cache_dir=cache_dir)
        return result, len(texts), vocabs

    def output_bytes(self, result):
        return [Path(result[key]).read_bytes()
                for key in ("matrix_path", "labels_path", "report_path")]

    @pytest.mark.parametrize("graphs, suffixed", [
        (None, False), ([], False), (None, True), ([], True)],
        ids=["graph", "no_graph", "graph_suffixed", "no_graph_suffixed"])
    def test_each_output_label_tokenized_once(self, workspace, monkeypatch, graphs,
                                              suffixed):
        if suffixed:
            add_suffixed_words(workspace)
        overrides = {} if graphs is None else {"graphs": graphs}
        want, _, _ = self.run(monkeypatch, toy_config(workspace, out="scratch", **overrides),
                              from_scratch=True)
        got, calls, vocabs = self.run(monkeypatch,
                                      toy_config(workspace, out="once", **overrides))
        labels = got["matrix"].labels
        built = [v.words for v in vocabs if v.words is not None]
        if suffixed:
            # every stage's vocabulary is needed, and each label tokenized once
            assert len(built) == len(vocabs) == 3 + (graphs is None)
            assert calls == self.RAW_SUFFIXED + len(labels)
        else:
            # no word reaches a lemma rule (`running` has an exception entry)
            assert built == [] and calls == 0
        if vocabs[-1].words is not None:
            assert vocabs[-1].words == text_vocabulary(labels)
        assert self.output_bytes(got) == self.output_bytes(want)

    def test_warm_cache_tokenizes_output_labels_once(self, workspace, monkeypatch):
        self.check_warm_cache(workspace, monkeypatch, suffixed=False)

    def test_warm_cache_tokenizes_suffixed_output_labels_once(self, workspace, monkeypatch):
        self.check_warm_cache(workspace, monkeypatch, suffixed=True)

    def check_warm_cache(self, workspace, monkeypatch, suffixed):
        if suffixed:
            add_suffixed_words(workspace)
        cache_dir = str(workspace / "cache")
        want, _, _ = self.run(monkeypatch, toy_config(workspace, out="warm"),
                              cache_dir=cache_dir)
        # every stage, the graph stage included, is read from the cache
        got, calls, vocabs = self.run(monkeypatch, toy_config(workspace, out="cached"),
                                      cache_dir=cache_dir)
        labels = got["matrix"].labels
        assert len(vocabs) == 1
        if suffixed:
            assert calls == len(labels)
            assert vocabs[0].words == text_vocabulary(labels)
        else:
            assert calls == 0 and vocabs[0].words is None
        assert self.output_bytes(got) == self.output_bytes(want)

    def test_evaluate_subcommand_matches_pipeline_report(self, workspace, monkeypatch):
        self.check_evaluate_subcommand(workspace, monkeypatch, suffixed=False)

    def test_evaluate_subcommand_matches_pipeline_report_suffixed(self, workspace,
                                                                  monkeypatch):
        self.check_evaluate_subcommand(workspace, monkeypatch, suffixed=True)

    def check_evaluate_subcommand(self, workspace, monkeypatch, suffixed):
        if suffixed:
            add_suffixed_words(workspace)
        result, _, _ = self.run(monkeypatch, toy_config(workspace))
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps({
            "schema_version": 1,
            "embeddings": [{"id": "alpha", "path": str(workspace / "alpha.txt"),
                            "format": "glove_text"},
                           {"id": "beta", "path": str(workspace / "beta.txt"),
                            "format": "word2vec_text"}],
            "evaluations": [{"id": "toy_gold", "path": str(workspace / "gold.txt"),
                             "splits": ["all", "test"]}],
            "output": {"dir": str(workspace / "unused")}}), encoding="utf-8")
        texts = []
        tokenize = pipeline.tokenize
        monkeypatch.setattr(pipeline, "tokenize",
                            lambda text: texts.append(text) or tokenize(text))
        assert cli.main(["evaluate", "--config", str(config_path),
                         "--matrix", result["matrix_path"],
                         "--labels", result["labels_path"],
                         "--report", str(workspace / "r.tsv")]) == 0
        assert len(texts) == (len(result["matrix"].labels) if suffixed else 0)
        assert (workspace / "r.tsv").read_bytes() == Path(result["report_path"]).read_bytes()

    def test_evaluate_subcommand_rejects_labels_that_are_not_uris(self, workspace, capsys):
        """The labels are checked when the lemma vocabulary is set up, not
        when a gold word first needs it (no gold word here does)."""
        matrixio.write_native(
            matrixio.LabeledMatrix(["cat", "dog", "fish", "stone"],
                                   np.eye(4, dtype=np.float32)),
            str(workspace / "m.emb1"), str(workspace / "m.labels"))
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps({
            "schema_version": 1,
            "embeddings": [{"id": "alpha", "path": str(workspace / "alpha.txt"),
                            "format": "glove_text"}],
            "evaluations": [{"id": "toy_gold", "path": str(workspace / "gold.txt")}],
            "output": {"dir": str(workspace / "unused")}}), encoding="utf-8")
        assert cli.main(["evaluate", "--config", str(config_path),
                         "--matrix", str(workspace / "m.emb1"),
                         "--labels", str(workspace / "m.labels")]) == 2
        assert "not a /c/<language>/<text> uri: 'cat'" in capsys.readouterr().err

    def test_suffixed_gold_word_only(self, workspace, monkeypatch):
        """Only evaluate reaches a lemma rule. Building its vocabulary
        builds graph's, which it extends: each output label is tokenized
        once, and graph's vocabulary keeps the fused labels' tokens."""
        with open(workspace / "gold.txt", "a", encoding="utf-8") as f:
            f.write("cats dog 2.0\n")
        want, _, _ = self.run(monkeypatch, toy_config(workspace, out="scratch"),
                              from_scratch=True)
        got, calls, vocabs = self.run(monkeypatch, toy_config(workspace, out="once"))
        labels = got["matrix"].labels
        fused = pipeline.fuse_sources(toy_config(workspace), pipeline.StageCache()).labels
        assert len(fused) < len(labels)
        merge, graph, evaluate = vocabs[:2], vocabs[2], vocabs[3]
        assert [v.words for v in merge] == [None, None]
        assert calls == len(labels)
        assert graph.words == text_vocabulary(fused)
        assert evaluate.words == text_vocabulary(labels)
        assert self.output_bytes(got) == self.output_bytes(want)

    def test_output_vocabulary_extends_or_restarts(self, workspace, monkeypatch):
        """A list that starts with the list before it tokenizes only the
        labels it adds; any other list starts over. A vocabulary holds the
        tokens of its own list, before and after a later one extends it."""
        config = toy_config(workspace)
        runs = [["/c/en/cat", "/c/en/big_dog"],
                ["/c/en/cat", "/c/en/big_dog", "/c/fr/chat_noir"],
                ["/c/en/cat", "/c/en/big_dog", "/c/fr/chat_noir"],
                ["/c/en/dog", "/c/en/cat"],
                []]
        words = [text_vocabulary(labels) for labels in runs]
        texts = []
        tokenize = pipeline.tokenize
        monkeypatch.setattr(pipeline, "tokenize",
                            lambda text: texts.append(text) or tokenize(text))
        # each vocabulary built as soon as it is made
        cache, built = pipeline.StageCache(), []
        for labels in runs:
            vocab = pipeline.output_standardizer(config, labels, cache).vocab
            assert vocab.words is None
            assert "x" not in vocab
            built.append(vocab)
            assert [v.words for v in built] == words[:len(built)]
        assert texts == ["cat", "big_dog", "chat_noir", "dog", "cat"]
        # an extending vocabulary built first builds the one it extends
        cache, texts[:] = pipeline.StageCache(), []
        graph = pipeline.output_standardizer(config, runs[0], cache).vocab
        evaluate = pipeline.output_standardizer(config, runs[1], cache).vocab
        assert "x" not in evaluate
        assert (graph.words, evaluate.words) == (words[0], words[1])
        assert sorted(texts) == ["big_dog", "cat", "chat_noir"]


@pytest.mark.parametrize("standardize", [False, True])
def test_label_with_a_line_break_fails_cold_and_warm_alike(workspace, capsys, standardize):
    """A word2vec token holding "\\r" could not be stored in the stage
    cache or the output: the reader rejects it, so a run fails the same
    way with a cache or without one, and leaves nothing for a warm run."""
    vector = struct.pack("<2f", 1.0, 2.0)
    (workspace / "v.bin").write_bytes(b"2 2\ncat " + vector + b"a\rb " + vector)
    config_path = workspace / "config.json"
    config_path.write_text(json.dumps({
        "schema_version": 1,
        "embeddings": [{"id": "w2v", "path": str(workspace / "v.bin"),
                        "format": "word2vec_binary"}],
        "standardize": {"enabled": standardize},
        "output": {"dir": str(workspace / "out")}}), encoding="utf-8")
    argv = ["pipeline", "--config", str(config_path)]
    cached = argv + ["--stage-cache-dir", str(workspace / "cache")]
    for run, args in (("uncached", argv), ("cold", cached), ("warm", cached)):
        assert cli.main(args) == 2, run
        assert "v.bin: token of vector 2 holds a line break: b'a\\rb'" \
            in capsys.readouterr().err, run
    assert os.listdir(workspace / "cache") == []


# Non-ASCII words in every input: accented Latin, Cyrillic and Greek, the
# titlecase digraph U+01C5, an NFD spelling that NFC composes into a row
# of its own file (cafe + U+0301), and `cafés`, which a lemma rule folds
# into `café` in each stage.
NON_ASCII = {"alpha.txt": "café 0.3 0.1 0.2\ncafe\u0301 0.1 0.3 0.2\ncafés 0.2 0.2 0.1\n"
                          "\u01c5emal 0.5 0.1 0.4\nкошка 0.7 0.2 0.3\n",
             "beta.txt": "Café 0.2 0.8\nкошки 0.6 0.1\n",
             "edges.tsv": "/c/en/\u01c5emal\t/c/en/dog\t1.0\tomcs\n"
                          "/c/en/cafe\u0301s\t/c/en/fish\t1.0\tomcs\n"
                          "/c/el/Γάτα\t/c/en/кошка\t1.0\twikt\n"
                          "/c/en/Naïveté\t/c/en/café\t1.0\tomcs\n",
             "gold.txt": "\u01c6emal dog 4.5\nCAFÉS fish 3.5\nкошка cat 5.5\n"
                         "naïveté stone 0.5\n"}


class TestRunWideLabelMemo:
    """One run reads its rule files once and shares one label memo across
    merge, graph and evaluate; its output bytes are those of reading the
    files, keeping a memo and building a vocabulary per stage."""

    def run_both(self, monkeypatch, config_of):
        with monkeypatch.context() as m:
            per_stage_labels(m)
            want = run_pipeline(config_of("per_stage"))
        got = run_pipeline(config_of("run_wide"))
        for key in ("matrix_path", "labels_path", "report_path"):
            assert Path(got[key]).read_bytes() == Path(want[key]).read_bytes()
        return got

    def test_vocabulary_boundary_in_a_run(self, workspace, monkeypatch):
        add_suffixed_words(workspace)
        config = toy_config(workspace)
        assert config.vocab_check
        got = self.run_both(monkeypatch, lambda out: toy_config(workspace, out=out))
        labels = got["matrix"].labels
        # beta's vocabulary has no `run`, so merge keeps its `runs` row;
        # the graph stage's has, so the `runs` edge lands on the `run` row
        assert "/c/en/runs" in labels and "/c/en/walked" not in labels
        cache = pipeline.StageCache()
        edges = pipeline.load_graphs(config, pipeline.fuse_sources(config, cache), cache)
        assert ("/c/en/run", "/c/en/fish") in [(a.start, a.end) for a in edges]

    def test_non_ascii_labels(self, workspace, monkeypatch):
        for name, extra in NON_ASCII.items():
            text = (workspace / name).read_text(encoding="utf-8") + extra
            (workspace / name).write_text(text.replace("6 2\n", "8 2\n", 1),
                                          encoding="utf-8")
        got = self.run_both(monkeypatch, lambda out: toy_config(workspace, out=out))
        labels = [label for label in got["matrix"].labels if not label.isascii()]
        assert labels == ["/c/en/café", "/c/en/\u01c6emal", "/c/en/кошка", "/c/en/кошки",
                          "/c/el/γάτα", "/c/en/naïveté"]
        assert [r.oov_fraction for r in got["reports"]] == [0.0, 0.0]
        cache_dir = str(workspace / "cache")
        for out in ("cold", "warm"):
            run = run_pipeline(toy_config(workspace, out=out), cache_dir=cache_dir)
            for key in ("matrix_path", "labels_path", "report_path"):
                assert Path(run[key]).read_bytes() == Path(got[key]).read_bytes(), out

    def test_memo_scoped_to_its_rule_files(self, workspace):
        (workspace / "stop.txt").write_text("big\n", encoding="utf-8")
        plain = toy_config(workspace)
        custom = toy_config(workspace, standardize={"stopwords": str(workspace / "stop.txt")})
        cache = pipeline.StageCache()
        rules = cache.label_rules(plain)
        assert cache.label_rules(plain) is rules
        assert cache.label_rules(custom) is not rules
        assert cache.label_rules(custom).uri("big dog", "en") == "/c/en/dog"
        assert rules.uri("big dog", "en") == "/c/en/big_dog"
        assert pipeline.StageCache().label_rules(plain) is not rules

    def test_rule_files_read_once_per_run(self, workspace, monkeypatch):
        (workspace / "alpha.txt").write_text(ALPHA_TEXT + "big_dog 0.1 0.2 0.3\n",
                                             encoding="utf-8")
        stop, exc = workspace / "stop.txt", workspace / "exc.txt"
        stop.write_text("big\n", encoding="utf-8")
        exc.write_text("stones\tstone\n", encoding="utf-8")
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(labels, "open", counting_open, raising=False)

        def config(out):
            return toy_config(workspace, out=out, standardize={
                "stopwords": str(stop), "exceptions": str(exc)})

        got = self.run_both(monkeypatch, config)
        # merge twice, graph and evaluate: each per-stage run read both 4 times
        assert opened.count(str(stop)) == opened.count(str(exc)) == 5
        assert "/c/en/big_dog" not in got["matrix"].labels


class TestCli:
    def write_config(self, workspace, config_dict):
        path = workspace / "config.json"
        path.write_text(json.dumps(config_dict), encoding="utf-8")
        return str(path)

    def raw_toy_dict(self, root, **overrides):
        raw = {
            "schema_version": 1,
            "embeddings": [
                {"id": "alpha", "path": str(root / "alpha.txt"),
                 "format": "glove_text"},
                {"id": "beta", "path": str(root / "beta.txt"),
                 "format": "word2vec_text"},
            ],
            "graphs": [{"id": "toy", "path": str(root / "edges.tsv")}],
            "term_filter": {"min_count": {"en": 1, "other": 1}, "max_words": 3},
            "fusion": {"k": 2, "out_dims": 4, "discount": True},
            "evaluations": [{"id": "toy_gold", "path": str(root / "gold.txt")}],
            "output": {"dir": str(root / "cli_out")},
        }
        raw.update(overrides)
        return raw

    def test_pipeline_subcommand(self, workspace, capsys):
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        assert cli.main(["pipeline", "--config", config]) == 0
        assert (workspace / "cli_out" / "ensemble.emb1").exists()
        assert "toy_gold" in capsys.readouterr().out

    def test_ingest_and_merge_subcommands(self, workspace):
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        assert cli.main(["ingest", "--config", config, "--source", "alpha",
                         "--out-matrix", str(workspace / "raw.emb1"),
                         "--out-labels", str(workspace / "raw.labels")]) == 0
        raw = read_native(workspace / "raw.emb1", workspace / "raw.labels")
        assert len(raw) == 8
        assert cli.main(["merge", "--config", config, "--source", "alpha",
                         "--out-matrix", str(workspace / "merged.emb1"),
                         "--out-labels", str(workspace / "merged.labels")]) == 0
        merged = read_native(workspace / "merged.emb1", workspace / "merged.labels")
        assert "/c/en/cat" in merged.labels

    def test_graph_subcommand(self, workspace):
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        out = workspace / "filtered.tsv"
        assert cli.main(["graph", "--config", config, "--out", str(out)]) == 0
        assert "/c/fr/chat" in out.read_text(encoding="utf-8")

    def test_fuse_retrofit_evaluate_subcommands(self, workspace, capsys):
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        assert cli.main(["fuse", "--config", config,
                         "--out-matrix", str(workspace / "fused.emb1"),
                         "--out-labels", str(workspace / "fused.labels"),
                         "--singular-values", str(workspace / "sv.txt")]) == 0
        spectrum = [float(line) for line in
                    (workspace / "sv.txt").read_text().split()]
        assert spectrum == sorted(spectrum, reverse=True) and len(spectrum) > 0
        assert cli.main(["retrofit", "--config", config,
                         "--out-matrix", str(workspace / "retro.emb1"),
                         "--out-labels", str(workspace / "retro.labels"),
                         "--checkpoint-dir", str(workspace / "ckpt")]) == 0
        assert (workspace / "ckpt" / "iterate_01.emb1").exists()
        assert (workspace / "ckpt" / "iterate_10.emb1").exists()
        assert cli.main(["evaluate", "--config", config,
                         "--matrix", str(workspace / "retro.emb1"),
                         "--labels", str(workspace / "retro.labels"),
                         "--report", str(workspace / "r.tsv")]) == 0
        assert (workspace / "r.tsv").exists()
        assert "toy_gold" in capsys.readouterr().out

    def test_singular_values_file_matches_svd_of_concatenation(self, workspace):
        """The --singular-values file holds sqrt of the Gram eigenvalues; the
        raw concatenation, written by the same command with the discount off,
        gives the SVD spectrum to compare against."""
        paths = {name: str(workspace / name) for name in
                 ("sv.txt", "fused.emb1", "fused.labels", "cat.emb1", "cat.labels")}
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        assert cli.main(["fuse", "--config", config, "--out-matrix", paths["fused.emb1"],
                         "--out-labels", paths["fused.labels"],
                         "--singular-values", paths["sv.txt"]]) == 0
        spectrum = np.array([float(line) for line in
                             (workspace / "sv.txt").read_text().split()])
        config = self.write_config(workspace, self.raw_toy_dict(
            workspace, fusion={"k": 2, "discount": False}))
        assert cli.main(["fuse", "--config", config, "--out-matrix", paths["cat.emb1"],
                         "--out-labels", paths["cat.labels"]]) == 0
        concat = read_native(paths["cat.emb1"], paths["cat.labels"]).data
        _u, s, _vt = svd_factors(concat)
        assert len(spectrum) == len(s) == min(concat.shape)
        # eigenvalues agree to rounding; a direction at or below the null
        # threshold (eigenvalue <= lambda_max * c * eps) is written as 0
        null = np.sqrt(concat.shape[1] * np.finfo(np.float64).eps) * s[0]
        assert np.abs(spectrum - s).max() <= max(1e-12 * s[0], null)
        assert np.all((spectrum > 0) | (s <= null))

    @pytest.mark.parametrize("overrides", [
        {},
        {"graphs": []},
        {"term_filter": {"min_count": {"en": 100, "other": 100}}},
    ], ids=["edges", "no_graph", "all_edges_filtered"])
    def test_retrofit_subcommand_matches_pipeline(self, workspace, capsys, overrides):
        config = self.write_config(workspace, self.raw_toy_dict(workspace, **overrides))
        assert cli.main(["retrofit", "--config", config,
                         "--out-matrix", str(workspace / "sub.emb1"),
                         "--out-labels", str(workspace / "sub.labels")]) == 0
        assert cli.main(["pipeline", "--config", config]) == 0
        sub = read_native(workspace / "sub.emb1", workspace / "sub.labels")
        full = read_native(workspace / "cli_out" / "ensemble.emb1",
                           workspace / "cli_out" / "ensemble.labels")
        assert sub.labels == full.labels
        assert bits_equal(sub.data, full.data)
        capsys.readouterr()

    def test_exit_code_config_error(self, workspace, capsys):
        missing = str(workspace / "nope.json")
        assert cli.main(["pipeline", "--config", missing]) == 1
        bad = self.raw_toy_dict(workspace, merge={"strategy": "median"})
        config = self.write_config(workspace, bad)
        assert cli.main(["pipeline", "--config", config]) == 1
        bad = self.raw_toy_dict(workspace)
        bad["embeddings"][0]["language"] = "english"
        config = self.write_config(workspace, bad)
        assert cli.main(["pipeline", "--config", config]) == 1
        capsys.readouterr()

    def test_exit_code_wrong_json_type(self, workspace, capsys):
        bad = self.raw_toy_dict(workspace, retrofit={"iterations": "10"})
        config = self.write_config(workspace, bad)
        assert cli.main(["pipeline", "--config", config]) == 1
        assert "retrofit.iterations must be a JSON integer" in capsys.readouterr().err

    def test_exit_code_data_error(self, workspace, capsys):
        raw = self.raw_toy_dict(workspace)
        raw["embeddings"][0]["path"] = str(workspace / "missing.txt")
        config = self.write_config(workspace, raw)
        assert cli.main(["pipeline", "--config", config]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_exit_code_non_finite_input(self, workspace, capsys, value):
        (workspace / "alpha.txt").write_text(
            ALPHA_TEXT.replace("dog 0.6 0.4 0.2", f"dog 0.6 {value} 0.2"), encoding="utf-8")
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        assert cli.main(["pipeline", "--config", config]) == 2
        assert "alpha.txt:4: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_exit_code_non_finite_edge_weight(self, workspace, capsys, value):
        (workspace / "edges.tsv").write_text(
            GRAPH_TSV.replace("dog\t/c/en/stone\t0.5", f"dog\t/c/en/stone\t{value}"),
            encoding="utf-8")
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        assert cli.main(["pipeline", "--config", config]) == 2
        assert "edges.tsv:4: non-finite weight" in capsys.readouterr().err
        assert not (workspace / "cli_out" / "ensemble.emb1").exists()

    def test_exit_code_inconsistent_word2vec_header(self, workspace, capsys):
        (workspace / "beta.txt").write_text(BETA_TEXT.replace("6 2", "7 2", 1),
                                            encoding="utf-8")
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        assert cli.main(["pipeline", "--config", config]) == 2
        assert "beta.txt:1: header declares 7 rows, file has 6" in capsys.readouterr().err

    def test_exit_code_zero_dimension_vectors(self, workspace, capsys):
        bare = "".join(line.split(" ")[0] + "\n" for line in ALPHA_TEXT.splitlines())
        (workspace / "alpha.txt").write_text(bare, encoding="utf-8")
        raw = self.raw_toy_dict(
            workspace, embeddings=[{"id": "alpha", "path": str(workspace / "alpha.txt"),
                                    "format": "glove_text"}],
            evaluations=[])
        config = self.write_config(workspace, raw)
        assert cli.main(["pipeline", "--config", config]) == 2
        assert "alpha.txt:1: vector line has no values" in capsys.readouterr().err
        assert not (workspace / "cli_out" / "ensemble.emb1").exists()

    def test_bug_in_stage_propagates(self, workspace, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(rowmerge, "merge_standardized", broken)
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        with pytest.raises(TypeError, match="bug"):
            cli.main(["pipeline", "--config", config])

    def test_exit_code_numerical_error(self, workspace, capsys):
        (workspace / "oov_gold.txt").write_text(
            "zzz yyy 3.0\nxxx www 2.0\n", encoding="utf-8")
        raw = self.raw_toy_dict(
            workspace, graphs=[],
            evaluations=[{"id": "oov", "path": str(workspace / "oov_gold.txt")}])
        config = self.write_config(workspace, raw)
        assert cli.main(["pipeline", "--config", config]) == 3
        capsys.readouterr()
