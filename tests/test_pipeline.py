import dataclasses
import gc
import json
import os
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import bits_equal, edge_rows
from test_interpolate import svd_factors
from test_rowmerge import reference_merge
from vecfuse import cli, kgraph, labels, matrixio, pipeline, rowmerge
from vecfuse.config import config_from_dict
from vecfuse.errors import ConfigError, StageError
from vecfuse.evaluation import format_report_table
from vecfuse.labels import StandardLabel, Standardizer, split_uri
from vecfuse.matrixio import read_native, read_text_embeddings
from vecfuse.pipeline import LazyVocabulary, run_pipeline, token_vocabulary
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
        plan = build_merge_plan(raw, Standardizer(vocab=vocab))
        manual = l1_normalize_columns(merge_standardized(raw, plan))

        assert result["matrix"].labels == manual.labels
        assert bits_equal(result["matrix"].data, manual.data)
        # merging collapsed both the case pair and the inflection pair
        assert "/c/en/cat" in manual.labels
        assert "running" not in " ".join(manual.labels)
        assert len(manual) == len(raw) - 2

    @pytest.mark.parametrize("strategy", rowmerge.MERGE_STRATEGIES)
    def test_rows_that_standardize_to_nothing_are_dropped(self, workspace, strategy):
        # `...`, `!!` and `--` standardize to nothing, before and between
        # the rows of the `cat` group; the other rows keep their raw ranks,
        # 3 and 5, whose Zipf weights differ in ratio from those of 1 and 2
        (workspace / "punct.txt").write_text(
            "... 9 9\n!! 8 8\nCat 0.3 0.7\n-- 7 7\ncat 0.9 0.1\ndog 0.5 0.25\n",
            encoding="utf-8")
        config = toy_config(
            workspace, embeddings=[{"id": "punct", "path": str(workspace / "punct.txt"),
                                    "format": "glove_text"}],
            merge={"strategy": strategy}, normalize={"columns": "none"})
        merged = pipeline.prepare_source(config, config.enabled_embeddings()[0],
                                         pipeline.StageCache())
        raw = read_text_embeddings(workspace / "punct.txt")
        plan = [None, None, "/c/en/cat", None, "/c/en/cat", "/c/en/dog"]
        labels, data = reference_merge(raw, plan, strategy)
        assert merged.labels == labels == ["/c/en/cat", "/c/en/dog"]
        assert bits_equal(merged.data, data)

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
        calls = {"standardize": 0, "uris": 0, "stage_standardizer": 0}
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
        counting(Standardizer, "uris")
        counting(pipeline, "stage_standardizer")
        monkeypatch.setattr(pipeline, "load_graphs", graph_stage(pipeline.load_graphs))
        second = run_pipeline(toy_config(workspace, out="cached"), cache_dir=str(cache_dir))
        assert in_graph == {"standardize": 0, "uris": 0, "stage_standardizer": 0}
        assert calls["uris"] > 0  # evaluation still standardizes
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

    def test_both_dataset_forms_share_one_lookup(self, workspace, monkeypatch):
        (workspace / "gold_dev.txt").write_text("cat dog 6.0\ndog fish 5.0\n",
                                                encoding="utf-8")
        (workspace / "gold_test.txt").write_text("fish stone 3.0\ndog stone 2.0\n"
                                                 "cat stone 1.0\n", encoding="utf-8")
        config = toy_config(workspace, evaluations=[
            {"id": "men_like", "test_path": str(workspace / "gold_test.txt"),
             "dev_path": str(workspace / "gold_dev.txt")},
            {"id": "toy_gold", "path": str(workspace / "gold.txt"),
             "splits": ["test", "all", "dev"]}])
        matrix = pipeline.ensemble_matrix(config, pipeline.StageCache())
        indexed = []
        label_index = matrixio.LabeledMatrix.label_index
        monkeypatch.setattr(matrixio.LabeledMatrix, "label_index",
                            lambda self: indexed.append(self) or label_index(self))
        reports = pipeline.evaluate_matrix(config, matrix)
        assert [(r.dataset, r.split, r.n) for r in reports] == [
            ("men_like", "dev", 2), ("men_like", "test", 3),
            ("toy_gold", "test", 2), ("toy_gold", "all", 6), ("toy_gold", "dev", 4)]
        assert len(indexed) == 1 and indexed[0] is matrix

    def test_empty_gold_file_is_numerical_error(self, workspace, capsys):
        (workspace / "empty.txt").write_text("# no pairs\n", encoding="utf-8")
        raw = toy_raw(workspace, graphs=[],
                      evaluations=[{"id": "empty", "path": str(workspace / "empty.txt")}])
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(config_path)]) == cli.EXIT_NUMERICAL
        assert "stage 'evaluate' failed: empty dataset" in capsys.readouterr().err

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


def single_source(root, out="out", **overrides):
    return toy_config(root, out, embeddings=[
        {"id": "alpha", "path": str(root / "alpha.txt"), "format": "glove_text"}],
        **overrides)


def same_artifacts(first, second):
    return all(Path(first[key]).read_bytes() == Path(second[key]).read_bytes()
               for key in ("matrix_path", "labels_path", "report_path"))


class TestStageBranches:
    """Cache hits, source formats and settings that the other tests do
    not reach; each compares its bytes with a run that takes another way."""

    def test_warm_prepared_cache_of_one_source(self, workspace, monkeypatch):
        plain = run_pipeline(single_source(workspace, out="plain", graphs=[]))
        cache_dir = str(workspace / "cache")
        run_pipeline(single_source(workspace, out="cold", graphs=[]), cache_dir=cache_dir)
        read = []

        def recording_read_native(matrix_path, labels_path):
            read.append(os.path.basename(matrix_path))
            return read_native(matrix_path, labels_path)

        monkeypatch.setattr(matrixio, "read_native", recording_read_native)
        monkeypatch.setattr(rowmerge, "build_merge_plan", None)  # never called
        warm = run_pipeline(single_source(workspace, out="warm", graphs=[]),
                            cache_dir=cache_dir)
        assert read == ["prepared_alpha.emb1"]
        assert same_artifacts(warm, plain)

    def test_warm_ingest_cache_after_the_ingest_subcommand(self, workspace, monkeypatch):
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps(toy_raw(workspace)), encoding="utf-8")
        config, cache = str(config_path), str(workspace / "cache")

        def merge(name, *flags):
            assert cli.main(["merge", "--config", config, "--source", "alpha", *flags,
                             "--out-matrix", str(workspace / f"{name}.emb1"),
                             "--out-labels", str(workspace / f"{name}.labels")]) == 0
            return [(workspace / f"{name}.{ext}").read_bytes() for ext in ("emb1", "labels")]

        plain = merge("plain")
        assert cli.main(["ingest", "--config", config, "--source", "alpha",
                         "--stage-cache-dir", cache,
                         "--out-matrix", str(workspace / "raw.emb1"),
                         "--out-labels", str(workspace / "raw.labels")]) == 0
        assert sorted(os.listdir(cache)) == ["ingest_alpha.emb1", "ingest_alpha.labels"]
        monkeypatch.setattr(matrixio, "read_text_embeddings", None)  # never called
        assert merge("warm", "--stage-cache-dir", cache) == plain

    def test_native_source_matches_its_text_source(self, workspace):
        matrixio.write_native(read_text_embeddings(workspace / "alpha.txt"),
                              workspace / "alpha.emb1", workspace / "alpha.labels")
        raw = toy_raw(workspace, out="native")
        raw["embeddings"][0] = {"id": "alpha", "path": str(workspace / "alpha.emb1"),
                                "format": "native",
                                "labels_path": str(workspace / "alpha.labels")}
        native = run_pipeline(config_from_dict(raw))
        assert same_artifacts(native, run_pipeline(toy_config(workspace, out="text")))

    def test_unknown_source_format_is_an_ingest_config_error(self, workspace):
        """The config rejects an unknown format, so only a source built by
        hand reaches ingest's own check."""
        source = dataclasses.replace(single_source(workspace).enabled_embeddings()[0],
                                     format="fasttext")
        with pytest.raises(StageError, match="unknown embedding format 'fasttext'") as exc:
            pipeline.ingest_source(source, pipeline.StageCache())
        assert exc.value.stage == "ingest" and isinstance(exc.value.cause, ConfigError)

    def test_l2_columns(self, workspace):
        def run(out, columns):
            return run_pipeline(single_source(workspace, out, graphs=[], evaluations=[],
                                              normalize={"columns": columns}))["matrix"]

        l2 = run("l2", "l2")
        want = rowmerge.l2_normalize_columns(run("none", "none"))
        assert l2.labels == want.labels
        assert bits_equal(l2.data, want.data)
        norms = np.sqrt((l2.data.astype(np.float64) ** 2).sum(axis=0))
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_vocab_check_off_with_graph_and_evaluation(self, workspace, monkeypatch):
        built = []
        stage_standardizer = pipeline.stage_standardizer

        def recording(config, texts):
            built.append(stage_standardizer(config, texts))
            return built[-1]

        monkeypatch.setattr(pipeline, "stage_standardizer", recording)
        config = dict(standardize={"vocab_check": False})
        straight = run_pipeline(toy_config(workspace, out="straight", **config))
        # merge (two sources), graph and evaluate: none checks a vocabulary
        assert len(built) == 4 and all(s.vocab is None for s in built)
        assert straight["reports"] and "/c/fr/chat" in straight["matrix"].labels
        cache_dir = str(workspace / "cache")
        for out in ("cold", "warm"):
            cached = run_pipeline(toy_config(workspace, out=out, **config),
                                  cache_dir=cache_dir)
            assert same_artifacts(cached, straight)

    def test_three_enabled_sources_exit_1(self, workspace, capsys):
        raw = toy_raw(workspace)
        raw["embeddings"].append({"id": "gamma", "path": str(workspace / "alpha.txt"),
                                  "format": "glove_text"})
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(config_path)]) == cli.EXIT_CONFIG
        assert "fusion needs exactly 2 enabled sources, got 3" in capsys.readouterr().err
        assert not (workspace / "out").exists()


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
        assert [(a.start, a.end) for a in edge_rows(edges)] == [
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
    """Each stage builds its lemma vocabulary up front, tokenizing every
    label from scratch, as before vocabularies were built lazily."""
    m.setattr(pipeline, "LazyVocabulary", lambda texts: frozenset(token_vocabulary(texts)))


class TestLabelsTokenizedOnce:
    """Each stage's token vocabulary is its own, built only when a label
    reaches a lemma rule: a stage tokenizes each of its labels at most
    once, a vocabulary, when built, holds the tokens of exactly the labels
    of its stage, and the output bytes are those of tokenizing from
    scratch in every stage."""

    RAW_LABELS = 8 + 6  # lines of alpha.txt and beta.txt, tokenized by merge
    RAW_SUFFIXED = RAW_LABELS + 3

    def run(self, monkeypatch, config, cache_dir=None, from_scratch=False):
        """The run's result, its number of tokenized texts, and its
        vocabularies, each with `given`: the texts it was made with."""
        texts, vocabs = [], []
        tokenize = pipeline.tokenize

        def counting(text):
            texts.append(text)
            return tokenize(text)

        class Recording(Standardizer):
            def __init__(self, *args, vocab=None, **kwargs):
                if vocab is not None:
                    if isinstance(vocab, LazyVocabulary):
                        vocab.given = list(vocab.texts)
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
            # every stage's vocabulary is needed: merge tokenizes the raw
            # labels, graph the fused ones and evaluate the output ones
            assert len(built) == len(vocabs) == 3 + (graphs is None)
            fused = vocabs[2].given if graphs is None else []
            assert calls == self.RAW_SUFFIXED + len(fused) + len(labels)
            if graphs is None:
                assert len(fused) < len(labels)
                assert vocabs[2].words == token_vocabulary(fused)
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
        want, _, cold = self.run(monkeypatch, toy_config(workspace, out="warm"),
                                 cache_dir=cache_dir)
        # every stage, the graph stage included, is read from the cache
        got, calls, vocabs = self.run(monkeypatch, toy_config(workspace, out="cached"),
                                      cache_dir=cache_dir)
        labels = got["matrix"].labels
        assert len(vocabs) == 1
        # evaluate is given the same texts with a cold and a warm cache
        assert cold[-1].given == vocabs[0].given == [split_uri(label)[1]
                                                     for label in labels]
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

    @pytest.mark.parametrize("command", ["graph", "evaluate"])
    def test_label_that_is_not_a_uri_with_vocab_check_off(self, workspace, capsys,
                                                          command):
        """With `vocab_check` off as well, graph and evaluate split every
        label as a URI: a stale fused cache or an outside matrix with one
        that is not is a data error that names it."""
        cache = workspace / "cache"
        cache.mkdir()
        fused = [str(cache / "fused.emb1"), str(cache / "fused.labels")]
        matrixio.write_native(
            matrixio.LabeledMatrix(["/c/en/cat", "plainword"], np.eye(2, dtype=np.float32)),
            *fused)
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps(toy_raw(workspace, standardize={
            "vocab_check": False})), encoding="utf-8")
        argv = {"graph": ["--stage-cache-dir", str(cache), "--out", str(workspace / "g.tsv")],
                "evaluate": ["--matrix", fused[0], "--labels", fused[1]]}[command]
        assert cli.main([command, "--config", str(config_path)] + argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"stage '{command}' failed" in err
        assert "not a /c/<language>/<text> uri: 'plainword'" in err

    def test_suffixed_gold_word_only(self, workspace, monkeypatch):
        """Only evaluate reaches a lemma rule, so only its vocabulary is
        built: each output label is tokenized once, and no fused one."""
        with open(workspace / "gold.txt", "a", encoding="utf-8") as f:
            f.write("cats dog 2.0\n")
        want, _, _ = self.run(monkeypatch, toy_config(workspace, out="scratch"),
                              from_scratch=True)
        got, calls, vocabs = self.run(monkeypatch, toy_config(workspace, out="once"))
        labels = got["matrix"].labels
        config = toy_config(workspace)
        fused = pipeline.fuse_sources(config, pipeline.StageCache()).labels
        assert len(fused) < len(labels)
        merge, graph, evaluate = vocabs[:2], vocabs[2], vocabs[3]
        assert [v.words for v in merge] == [None, None]
        assert graph.given == [split_uri(label)[1] for label in fused]
        assert graph.words is None
        assert calls == len(labels)
        assert evaluate.words == text_vocabulary(labels)
        assert self.output_bytes(got) == self.output_bytes(want)


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


def test_empty_headerless_source_fails_cold_and_warm_alike(workspace, capsys):
    """An empty GloVe file declares no dimension: a data error on every
    run, with a stage cache or without one, and no output is written."""
    (workspace / "empty.txt").write_text("", encoding="utf-8")
    config_path = workspace / "config.json"
    config_path.write_text(json.dumps({
        "schema_version": 1,
        "embeddings": [{"id": "g", "path": str(workspace / "empty.txt"),
                        "format": "glove_text"}],
        "output": {"dir": str(workspace / "out")}}), encoding="utf-8")
    argv = ["pipeline", "--config", str(config_path)]
    cached = argv + ["--stage-cache-dir", str(workspace / "cache")]
    for run, args in (("uncached", argv), ("cold", cached), ("warm", cached)):
        assert cli.main(args) == 2, run
        assert "empty.txt: no header and no vector line" in capsys.readouterr().err, run
    assert os.listdir(workspace / "cache") == []
    assert not (workspace / "out" / "ensemble.emb1").exists()


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


class TestLazyStageVocabularies:
    """A run builds each stage's lemma vocabulary only when a label needs
    it; its output bytes are those of building every stage's vocabulary
    up front."""

    def run_both(self, monkeypatch, config_of):
        with monkeypatch.context() as m:
            per_stage_labels(m)
            want = run_pipeline(config_of("eager"))
        got = run_pipeline(config_of("lazy"))
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
        matrix = pipeline.fuse_sources(config, cache)
        edges = pipeline.load_graphs(config, matrix, cache)
        assert ("/c/en/run", "/c/en/fish") in [(a.start, a.end) for a in edge_rows(edges)]

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

    def test_each_config_gets_its_own_label_rules(self, workspace):
        """A stage's standardizer has the rules of the files its config
        names, else the bundled ones, and a memo of its own."""
        (workspace / "stop.txt").write_text("big\n", encoding="utf-8")
        (workspace / "exc.txt").write_text("wugs\twug\n", encoding="utf-8")
        plain = toy_config(workspace)
        custom = toy_config(workspace, standardize={
            "stopwords": str(workspace / "stop.txt"),
            "exceptions": str(workspace / "exc.txt")})
        bundled = pipeline.stage_standardizer(plain, ["big dog"])
        assert bundled.rules is labels.default_rules()
        assert bundled.stopwords is labels.default_stopwords()
        assert pipeline.stage_standardizer(plain, ["big dog"])._memo is not bundled._memo
        for standardize in (lambda config: pipeline.stage_standardizer(config, ["big dog"]),
                            lambda config: pipeline.output_standardizer(
                                config, ["/c/en/big_dog"])):
            assert standardize(custom).uri("big dog", "en") == "/c/en/dog"
            assert standardize(plain).uri("big dog", "en") == "/c/en/big_dog"
            assert standardize(custom).uri("wugs", "en") == "/c/en/wug"
            assert standardize(plain).uri("wugs", "en") == "/c/en/wugs"

    def test_rule_files_read_by_each_standardizing_stage(self, workspace, monkeypatch):
        """Merge (once per source), graph and evaluate each read both rule
        files, so a run reads each at most four times; a warm cache leaves
        only evaluate to read them."""
        (workspace / "alpha.txt").write_text(ALPHA_TEXT + "big_dog 0.1 0.2 0.3\n",
                                             encoding="utf-8")
        stop, exc = workspace / "stop.txt", workspace / "exc.txt"
        stop.write_text("big\n", encoding="utf-8")
        exc.write_text("stones\tstone\n", encoding="utf-8")

        def config(out):
            return toy_config(workspace, out=out, standardize={
                "stopwords": str(stop), "exceptions": str(exc)})

        got = self.run_both(monkeypatch, config)
        assert "/c/en/big_dog" not in got["matrix"].labels
        opened = []
        real_open = labels.open_utf8

        def counting_open(path):
            opened.append(str(path))
            return real_open(path)

        monkeypatch.setattr(labels, "open_utf8", counting_open)
        cache_dir = str(workspace / "cache")
        for out, reads in (("cold", 4), ("warm", 1)):
            opened.clear()
            run = run_pipeline(config(out), cache_dir=cache_dir)
            assert opened.count(str(stop)) == opened.count(str(exc)) == reads, out
            for key in ("matrix_path", "labels_path", "report_path"):
                assert Path(run[key]).read_bytes() == Path(got[key]).read_bytes(), out


def alive(kind):
    """The live objects of exactly type `kind`, after a collection."""
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is kind]


class TestNoLabelMemoOutlivesItsStage:
    """Each stage standardizes with a memo and a vocabulary of its own,
    freed with the stage: no label a stage computed, no standardizer and
    no vocabulary a stage built is alive after it."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """The texts standardized so far, and a check that none of their
        labels is alive. A label is known by its id and URI, not held."""
        seen, made = [], set()
        real = labels.standardize

        def counting(text, language, **kwargs):
            label = real(text, language, **kwargs)
            seen.append(text)
            made.add((id(label), label.uri))
            return label

        def none_alive():
            return [label for label in alive(StandardLabel)
                    if (id(label), label.uri) in made] == []

        monkeypatch.setattr(labels, "standardize", counting)
        return seen, none_alive

    @pytest.fixture
    def standardizers(self, monkeypatch):
        """The type of the standardizers the stages build from here on."""
        class Recorded(Standardizer):
            pass

        monkeypatch.setattr(pipeline, "Standardizer", Recorded)
        return Recorded

    def test_after_prepare_source(self, workspace, computed, standardizers):
        config = toy_config(workspace)
        matrix = pipeline.prepare_source(config, config.enabled_embeddings()[0],
                                         pipeline.StageCache())
        texts, none_alive = computed
        # `Cat` and `running` reach the memo; no lemma vocabulary decides either
        assert {"Cat", "running"} <= set(texts)
        assert "/c/en/run" in matrix.labels
        assert none_alive()
        assert alive(standardizers) == []

    def test_after_a_run(self, workspace, computed, standardizers):
        add_suffixed_words(workspace)
        result = run_pipeline(toy_config(workspace))
        texts, none_alive = computed
        assert result["reports"]
        # merge, graph and evaluate each computed labels
        assert {"Cat", "walked", "cats", "runs"} <= set(texts)
        assert none_alive()
        assert alive(standardizers) == []

    def test_no_vocabulary_after_a_run(self, workspace, monkeypatch):
        """Every stage builds its lemma vocabulary; none is alive after
        the run."""
        add_suffixed_words(workspace)
        built = []
        token_vocabulary = pipeline.token_vocabulary

        class Recorded(LazyVocabulary):
            pass

        def recording(texts):
            words = token_vocabulary(texts)
            built.append(weakref.ref(words))
            return words

        monkeypatch.setattr(pipeline, "LazyVocabulary", Recorded)
        monkeypatch.setattr(pipeline, "token_vocabulary", recording)
        result = run_pipeline(toy_config(workspace))
        assert result["reports"]
        # merge (two sources), graph and evaluate
        assert len(built) == 4
        assert alive(Recorded) == []
        assert [ref for ref in built if ref() is not None] == []


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

    def test_merge_of_an_unknown_source_exits_1(self, workspace, capsys):
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        assert cli.main(["merge", "--config", config, "--source", "gamma",
                         "--out-matrix", str(workspace / "merged.emb1"),
                         "--out-labels", str(workspace / "merged.labels")]) == cli.EXIT_CONFIG
        assert "no enabled embedding source with id 'gamma'" in capsys.readouterr().err
        assert not (workspace / "merged.emb1").exists()

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

    def test_spectrum_and_iterates_rebuild_their_stage_on_a_warm_cache(self, workspace,
                                                                       monkeypatch):
        """On a warm cache, `fuse --singular-values` and `retrofit
        --checkpoint-dir` build their stage again, without reading its cached
        artifact: they write the cold run's spectrum, iterates and bits."""
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        cache = str(workspace / "cache")

        def run(run_name, command, flag, extra):
            out = workspace / run_name
            out.mkdir()
            assert cli.main([command, "--config", config, "--stage-cache-dir", cache,
                             "--out-matrix", str(out / "m.emb1"),
                             "--out-labels", str(out / "m.labels"),
                             flag, str(out / extra)]) == 0
            return {path.relative_to(out): path.read_bytes()
                    for path in sorted(out.rglob("*")) if path.is_file()}

        def runs(run_name):
            return (run(run_name + "_fuse", "fuse", "--singular-values", "sv.txt"),
                    run(run_name + "_retrofit", "retrofit", "--checkpoint-dir", "ckpt"))

        cold_fuse, cold_retrofit = runs("cold")
        assert len(cold_fuse[Path("sv.txt")].split()) > 0
        assert {path for path in cold_retrofit if path.parts[0] == "ckpt"} == \
            {Path("ckpt", f"iterate_{step:02d}.{ext}")
             for step in range(1, 11) for ext in ("emb1", "labels")}
        read = []

        def recording_read_native(matrix_path, labels_path):
            read.append(os.path.basename(matrix_path))
            return read_native(matrix_path, labels_path)

        monkeypatch.setattr(matrixio, "read_native", recording_read_native)
        assert runs("warm") == (cold_fuse, cold_retrofit)
        assert read == ["prepared_alpha.emb1", "prepared_beta.emb1", "fused.emb1"]

    def test_evaluate_takes_no_stage_cache(self, workspace, capsys):
        """`evaluate` reads and writes no artifact: its parser rejects
        --stage-cache-dir, and a run leaves no directory behind."""
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        matrix, labels = str(workspace / "m.emb1"), str(workspace / "m.labels")
        assert cli.main(["fuse", "--config", config, "--out-matrix", matrix,
                         "--out-labels", labels]) == 0
        argv = ["evaluate", "--config", config, "--matrix", matrix, "--labels", labels]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--stage-cache-dir", str(workspace / "cache")])
        assert exc.value.code == 1
        assert "unrecognized arguments: --stage-cache-dir" in capsys.readouterr().err
        before = sorted(workspace.rglob("*"))
        assert cli.main(argv) == 0
        assert sorted(workspace.rglob("*")) == before
        capsys.readouterr()

    def test_usage_error_exits_as_a_configuration_error(self, workspace, capsys):
        """A command-line usage error exits 1, as a configuration error
        does, so that a script can tell it from a corrupt input, which
        still exits 2; --help exits 0."""
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        for argv, message in ((["ingest", "--config", config, "--source", "alpha",
                                "--out-labels", "x.labels"],
                               "the following arguments are required: --out-matrix"),
                              ([], "the following arguments are required: command"),
                              (["fuse", "--config", config, "--out-matrix", "m",
                                "--out-labels", "l", "--iterations", "3"],
                               "unrecognized arguments: --iterations 3")):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == cli.EXIT_CONFIG == 1
            assert message in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["retrofit", "--help"])
        assert exc.value.code == 0
        assert "--checkpoint-dir" in capsys.readouterr().out
        (workspace / "m.emb1").write_bytes(b"EMB1 not a matrix")
        (workspace / "m.labels").write_text("/c/en/cat\n", encoding="utf-8")
        assert cli.main(["evaluate", "--config", config, "--matrix", str(workspace / "m.emb1"),
                         "--labels", str(workspace / "m.labels")]) == cli.EXIT_DATA == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, stores, standardizers", [
        (["pipeline"], 1, 4),
        (["retrofit", "--out-matrix", "r.emb1", "--out-labels", "r.labels"], 1, 3),
        (["evaluate", "--matrix", "r.emb1", "--labels", "r.labels"], 0, 1)],
        ids=["pipeline", "retrofit", "evaluate"])
    def test_one_standardizer_per_standardizing_stage(self, workspace, monkeypatch,
                                                       capsys, command, stores,
                                                       standardizers):
        """A command builds one standardizer per stage that standardizes
        (merge once per source, graph and evaluate), and a stage store only
        when it reads or writes artifacts: `pipeline` through `run_pipeline`."""
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        monkeypatch.chdir(workspace)
        assert cli.main(["retrofit", "--config", config, "--out-matrix", "r.emb1",
                         "--out-labels", "r.labels"]) == 0
        built = []

        def counting(cls):
            class Counted(cls):
                def __init__(self, *args, **kwargs):
                    built.append(cls.__name__)
                    super().__init__(*args, **kwargs)
            monkeypatch.setattr(pipeline, cls.__name__, Counted)

        counting(pipeline.StageCache)
        counting(pipeline.Standardizer)
        assert cli.main([command[0], "--config", config] + command[1:]) == 0
        assert sorted(built) == ["StageCache"] * stores + ["Standardizer"] * standardizers
        capsys.readouterr()

    def test_fuse_exits_3_when_the_svd_does_not_converge(self, workspace, monkeypatch,
                                                         capsys):
        def failing(gram):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        config = self.write_config(workspace, self.raw_toy_dict(workspace))
        out = [str(workspace / "f.emb1"), str(workspace / "f.labels")]
        assert cli.main(["fuse", "--config", config, "--out-matrix", out[0],
                         "--out-labels", out[1]]) == cli.EXIT_NUMERICAL == 3
        assert "stage 'fuse' failed: SVD did not converge: Eigenvalues did not converge" \
            in capsys.readouterr().err
        assert not any(os.path.exists(path) for path in out)

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

    @pytest.mark.parametrize("one_source", [True, False],
                             ids=["one_source", "no_discount"])
    def test_singular_values_file_is_empty_without_a_spectrum(self, workspace,
                                                              one_source):
        """One enabled source, or two with the discount off, have no
        spectrum: `fuse --singular-values` writes an empty file."""
        raw = self.raw_toy_dict(workspace, fusion={"k": 2, "discount": False})
        if one_source:
            raw["embeddings"] = raw["embeddings"][:1]
        sv = workspace / "sv.txt"
        assert cli.main(["fuse", "--config", self.write_config(workspace, raw),
                         "--out-matrix", str(workspace / "m.emb1"),
                         "--out-labels", str(workspace / "m.labels"),
                         "--singular-values", str(sv)]) == 0
        assert sv.read_bytes() == b""

    def test_out_dims_unchecked_without_discount(self, workspace, capsys):
        """With the discount off, an out_dims wider than the 5 concatenated
        dimensions has no effect: the raw concatenation is written."""
        written = {}
        for name, fusion in (("plain", {"k": 2, "discount": False}),
                             ("wide", {"k": 2, "out_dims": 6, "discount": False})):
            config = self.write_config(workspace,
                                       self.raw_toy_dict(workspace, fusion=fusion))
            paths = [str(workspace / f"{name}.emb1"), str(workspace / f"{name}.labels")]
            assert cli.main(["fuse", "--config", config, "--out-matrix", paths[0],
                             "--out-labels", paths[1]]) == 0
            written[name] = [Path(p).read_bytes() for p in paths]
        assert written["wide"] == written["plain"]
        assert read_native(workspace / "wide.emb1", workspace / "wide.labels").dims == 5
        config = self.write_config(workspace, self.raw_toy_dict(
            workspace, fusion={"k": 2, "out_dims": 6, "discount": True}))
        assert cli.main(["fuse", "--config", config, "--out-matrix", paths[0],
                         "--out-labels", paths[1]]) == cli.EXIT_CONFIG
        assert "out_dims 6 exceeds 5" in capsys.readouterr().err

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

    def test_empty_dev_split_exits_1_before_any_stage(self, workspace, capsys):
        raw = self.raw_toy_dict(workspace)
        raw["evaluations"][0].update(splits=["all", "dev"], num_chunks=1, test_chunk=1)
        config = self.write_config(workspace, raw)
        assert cli.main(["pipeline", "--config", config]) == cli.EXIT_CONFIG
        assert "dataset toy_gold: the dev split is empty" in capsys.readouterr().err
        assert not (workspace / "cli_out").exists()

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
