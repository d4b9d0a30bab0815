import gc
import json
import tracemalloc

import numpy as np
import pytest

from conftest import Edge, edge_rows, edge_table
from test_retrofit import assert_same_bits, reference_association
from vecfuse import cli, pipeline
from vecfuse.config import config_from_dict
from vecfuse.errors import NonPositiveWeight, ParseError
from vecfuse.kgraph import (
    EdgeTable,
    _row_major_order,
    build_association,
    filter_terms,
    load_assertions,
    read_assertions,
    rescale_by_source,
    write_assertions,
)
from vecfuse.labels import Standardizer, default_rules, default_stopwords


def filtered(edges, **kwargs):
    """`filter_terms` of `Edge` tuples, as `Edge` tuples."""
    return edge_rows(filter_terms(edge_table(edges), **kwargs))


class TestLoadAssertions:
    def test_parses_basic_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/pet\t2.0\tomcs\n", encoding="utf-8")
        got = load_assertions(path)
        assert edge_rows(got) == [Edge("/c/en/cat", "/c/en/pet", 2.0, "omcs")]

    def test_zero_weight_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/pet\t0\tomcs\n", encoding="utf-8")
        with pytest.raises(NonPositiveWeight):
            load_assertions(path)

    def test_empty_weight_defaults_to_one(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/pet\t\tppdb\n", encoding="utf-8")
        assert load_assertions(path).weight.tolist() == [1.0]

    def test_duplicate_pair_kept_as_two_assertions(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/pet\t2.0\tomcs\n"
                        "/c/en/cat\t/c/en/pet\t1.0\tomcs\n", encoding="utf-8")
        assert len(load_assertions(path)) == 2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header\n\n/c/en/a\t/c/en/b\t1\tx\n", encoding="utf-8")
        assert len(load_assertions(path)) == 1

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/a\t/c/en/b\t1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_assertions(path)

    def test_labels_standardized(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/Giving_an_example\t/c/en/dogs\t1\tx\n", encoding="utf-8")
        [got] = edge_rows(load_assertions(path))
        assert got.start == "/c/en/give_example"
        assert got.end == "/c/en/dog"

    def test_self_edges_dropped_after_standardization(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/dried\t/c/en/dry\t1\tx\n", encoding="utf-8")
        assert len(load_assertions(path)) == 0

    def test_round_trip(self, tmp_path):
        original = [Edge("/c/en/a", "/c/en/b", 0.123456789012345, "x"),
                    Edge("/c/fr/chat", "/c/en/cat", 2.5, "y")]
        path = tmp_path / "edges.tsv"
        write_assertions(path, edge_table(original))
        assert edge_rows(load_assertions(path)) == original
        assert edge_rows(read_assertions(path)) == original

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
    def test_non_finite_weight_rejected_at_its_line(self, tmp_path, value):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/pet\t2.0\tomcs\n"
                        f"/c/en/dog\t/c/en/pet\t{value}\tomcs\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite weight") as err:
            load_assertions(path)
        assert err.value.line == 2 and err.value.path == str(path)

    def test_weight_checked_before_self_edge_drop(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/cats\tnan\tomcs\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_assertions(path)
        path.write_text("/c/en/cat\t/c/en/cats\t-1\tomcs\n", encoding="utf-8")
        with pytest.raises(NonPositiveWeight):
            load_assertions(path)

    def test_bad_uri_raises_at_first_occurrence(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/a\t/c/en/b\t1\tx\n"
                        "/c/en/a\t/c/EN/b\t1\tx\n"
                        "/c/en/b\t/c/EN/b\t1\tx\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_assertions(path)
        assert err.value.line == 2

    def test_each_distinct_uri_standardized_once(self, tmp_path, monkeypatch):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/Cats\t/c/en/dog\t1\tx\n"
                        "/c/en/dog\t/c/en/Cats\t1\tx\n"
                        "/c/en/cat\t/c/en/dogs\t1\tx\n", encoding="utf-8")
        calls = []
        inner = Standardizer.uris
        monkeypatch.setattr(Standardizer, "uris",
                            lambda self, uris: calls.extend(uris) or inner(self, uris))
        table = load_assertions(path)
        assert sorted(calls) == ["/c/en/Cats", "/c/en/cat", "/c/en/dog", "/c/en/dogs"]
        assert table.terms == ["/c/en/cat", "/c/en/dog"]
        assert [(a.start, a.end) for a in edge_rows(table)] == [
            ("/c/en/cat", "/c/en/dog"), ("/c/en/dog", "/c/en/cat"),
            ("/c/en/cat", "/c/en/dog")]

    def test_read_assertions_checks_but_does_not_standardize(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cats\t/c/en/dog\t1.5\tx\n", encoding="utf-8")
        assert edge_rows(read_assertions(path)) == [
            Edge("/c/en/cats", "/c/en/dog", 1.5, "x")]
        path.write_text("/c/en/Cats\t/c/en/dog\t1.5\tx\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_assertions(path)

    @pytest.mark.parametrize("reader", [load_assertions, read_assertions])
    def test_not_utf8_names_its_line(self, tmp_path, reader):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"# edges\n/c/en/cat\t/c/en/dog\t1\tx\n"
                         b"/c/en/caf\xe9\t/c/en/dog\t1\tx\n")
        with pytest.raises(ParseError, match="not UTF-8") as err:
            reader(path)
        assert (err.value.path, err.value.line) == (str(path), 3)


class TestEdgeTable:
    EDGES = [Edge("/c/en/a", "/c/en/b", 1.0, "x"), Edge("/c/en/b", "/c/en/c", 2.0, "y"),
             Edge("/c/en/c", "/c/en/a", 3.0, "x")]

    def test_columns(self):
        table = edge_table(self.EDGES)
        assert len(table) == 3 and edge_rows(table) == self.EDGES
        assert table.terms == ["/c/en/a", "/c/en/b", "/c/en/c"]
        assert table.sources == ["x", "y"]
        assert (table.start.dtype, table.end.dtype, table.weight.dtype,
                table.source.dtype) == (np.int32, np.int32, np.float64, np.int32)

    def test_take(self):
        table = edge_table(self.EDGES)
        assert edge_rows(table.take(slice(1, None))) == self.EDGES[1:]
        assert edge_rows(table.take(slice(None, 0))) == []
        assert edge_rows(table.take(np.array([2, 0]))) == [self.EDGES[2], self.EDGES[0]]
        assert edge_rows(table.take(np.array([True, False, True]))) == self.EDGES[::2]
        assert table.take(slice(1, None)).terms is table.terms

    def test_concat_keeps_order_and_merges_terms(self):
        a = edge_table(self.EDGES[:2])
        b = edge_table(self.EDGES[2:] + [Edge("/c/en/d", "/c/en/a", 4.0, "z")])
        both = EdgeTable.concat([a, b])
        assert edge_rows(both) == self.EDGES + [Edge("/c/en/d", "/c/en/a", 4.0, "z")]
        assert len(both.terms) == len(set(both.terms)) == 4
        assert edge_rows(EdgeTable.concat([])) == []

    def test_concat_of_one_table_with_rows_is_that_table(self):
        a = edge_table(self.EDGES)
        empty = edge_table([Edge("/c/en/z", "/c/en/y", 1.0, "w")]).take(slice(0, 0))
        assert EdgeTable.concat([a]) is a
        assert EdgeTable.concat([empty, a, empty]) is a
        both = EdgeTable.concat([empty, a, empty, edge_table(self.EDGES[:1])])
        assert edge_rows(both) == self.EDGES + self.EDGES[:1]
        assert both.terms == a.terms and both.sources == a.sources

    def test_without_sources(self):
        table = edge_table(self.EDGES)
        assert edge_rows(table.without_sources({"x"})) == [self.EDGES[1]]
        assert edge_rows(table.without_sources({"nope"})) == self.EDGES


class TestRescaleBySource:
    def test_single_source_mean(self):
        got = rescale_by_source(edge_table([Edge("/c/en/a", "/c/en/b", 1.0),
                                            Edge("/c/en/c", "/c/en/d", 3.0)]))
        assert got.weight.tolist() == [0.5, 1.5]

    def test_equal_weights_become_one(self):
        got = rescale_by_source(edge_table([Edge("/c/en/a", "/c/en/b", 7.0),
                                            Edge("/c/en/c", "/c/en/d", 7.0)]))
        assert got.weight.tolist() == [1.0, 1.0]

    def test_sources_independent(self):
        got = rescale_by_source(edge_table([
            Edge("/c/en/a", "/c/en/b", 2.0, "A"),
            Edge("/c/en/c", "/c/en/d", 2.0, "A"),
            Edge("/c/en/e", "/c/en/f", 10.0, "B"),
        ]))
        assert got.weight.tolist() == [1.0, 1.0, 1.0]

    def test_means_one_and_ratios_preserved(self, rng):
        assertions = [Edge(f"/c/en/a{i}", f"/c/en/b{i}", float(w),
                           source=("x" if i % 2 else "y"))
                      for i, w in enumerate(rng.uniform(0.1, 9.0, size=40))]
        got = edge_rows(rescale_by_source(edge_table(assertions)))
        for source in ("x", "y"):
            weights = [a.weight for a in got if a.source == source]
            assert abs(np.mean(weights) - 1.0) < 1e-9
        pairs = [(a, b) for a, b in zip(assertions, got) if a.source == "x"]
        r0 = pairs[0][0].weight / pairs[0][1].weight
        for orig, scaled in pairs[1:]:
            assert abs(orig.weight / scaled.weight - r0) < 1e-9 * r0


class TestFilterTerms:
    def test_rare_non_english_excluded(self):
        hub_edges = [Edge("/c/fr/hub", "/c/fr/spoke")] * 5
        rare_edges = [Edge("/c/fr/rare", "/c/fr/hub")] * 2
        got = filtered(hub_edges + rare_edges)
        # "rare" appears twice (< 3): its edges drop, the hub's survive
        assert got == hub_edges

    def test_three_non_english_mentions_survive(self):
        edges = [Edge("/c/fr/a", "/c/fr/b")] * 3
        assert filtered(edges) == edges

    def test_english_needs_four(self):
        three = [Edge("/c/en/word", "/c/en/other")] * 3
        assert filtered(three) == []
        four = [Edge("/c/en/word", "/c/en/other")] * 4
        assert filtered(four) == four

    def test_long_labels_excluded(self):
        edges = [Edge("/c/en/one_two_three_four", f"/c/en/b{i}") for i in range(9)]
        assert filtered(edges) == []
        edges = [Edge("/c/en/one_two_three", f"/c/fr/b") for _ in range(9)]
        assert len(filtered(edges)) == 9

    def test_thresholds_on_input_counts_no_cascade(self):
        # y survives on input counts even though dropping x's edges leaves
        # it with fewer mentions afterwards (single pass, no fixed point).
        edges = ([Edge("/c/fr/y", "/c/fr/x")] * 2
                 + [Edge("/c/fr/y", "/c/fr/z")]
                 + [Edge("/c/fr/z", "/c/fr/w")] * 3)
        got = filtered(edges, min_count={"other": 3}, max_words=3)
        assert Edge("/c/fr/y", "/c/fr/z") in got

    def test_custom_thresholds(self):
        edges = [Edge("/c/de/a", "/c/de/b")]
        assert filtered(edges, min_count={"other": 1}) == edges


class TestBuildAssociation:
    def test_single_edge_normalizes_to_one(self):
        assoc = build_association(edge_table([Edge("/c/en/a", "/c/en/b", 3.0)]))
        s = assoc.toarray()
        i, j = assoc.vocab.index("/c/en/a"), assoc.vocab.index("/c/en/b")
        assert s[i, j] == 1.0 and s[j, i] == 1.0
        assert s[i, i] == 1.0 and s[j, j] == 1.0

    def test_duplicate_edges_accumulate(self):
        assoc = build_association(edge_table([
            Edge("/c/en/a", "/c/en/b", 2.0),
            Edge("/c/en/a", "/c/en/b", 1.0),
            Edge("/c/en/a", "/c/en/c", 1.0),
        ]))
        s = assoc.toarray()
        i = assoc.vocab.index("/c/en/a")
        j = assoc.vocab.index("/c/en/b")
        k = assoc.vocab.index("/c/en/c")
        assert abs(s[i, j] - 0.75) < 1e-12  # accumulated 3 of a row summing 4
        assert abs(s[i, k] - 0.25) < 1e-12

    def test_row_normalization_example(self):
        assoc = build_association(edge_table([
            Edge("/c/en/i", "/c/en/j", 1.0),
            Edge("/c/en/i", "/c/en/k", 3.0),
        ]))
        s = assoc.toarray()
        i = assoc.vocab.index("/c/en/i")
        j = assoc.vocab.index("/c/en/j")
        k = assoc.vocab.index("/c/en/k")
        assert abs(s[i, j] - 0.25) < 1e-12
        assert abs(s[i, k] - 0.75) < 1e-12

    def test_symmetric_support(self, rng):
        edges = [Edge(f"/c/en/t{rng.randint(0, 9)}", f"/c/en/t{rng.randint(0, 9)}",
                      float(w)) for w in rng.uniform(0.5, 3.0, size=30)]
        edges = [a for a in edges if a.start != a.end]
        s = build_association(edge_table(edges)).toarray()
        assert np.array_equal(s > 0, (s > 0).T)

    def test_invariants(self, rng):
        edges = [Edge(f"/c/en/t{i}", f"/c/en/t{(i * 3 + 1) % 7}", float(i + 1))
                 for i in range(12)]
        edges = [a for a in edges if a.start != a.end]
        s = build_association(edge_table(edges)).toarray()
        assert np.all(s >= 0)
        assert np.all(np.diag(s) == 1.0)
        offdiag = s - np.diag(np.diag(s))
        for total in offdiag.sum(axis=1):
            assert abs(total - 1.0) < 1e-12

    def test_self_edges_dropped(self):
        assoc = build_association(edge_table([
            Edge("/c/en/a", "/c/en/a", 2.0),
            Edge("/c/en/a", "/c/en/b", 1.0),
        ]))
        plain = build_association(edge_table([Edge("/c/en/a", "/c/en/b", 1.0)]))
        assert assoc.vocab == plain.vocab
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(assoc, name), getattr(plain, name))
        s = assoc.toarray()
        i = assoc.vocab.index("/c/en/a")
        assert s[i, i] == 1.0
        assert s[i].sum() - s[i, i] == 1.0

    def test_vocab_ordering(self):
        """The vocabulary is the used terms in code point order, so that
        column order is label order."""
        assoc = build_association(edge_table([
            Edge("/c/fr/zèbre", "/c/fr/été"), Edge("/c/fr/zebre", "/c/fr/etre"),
            Edge("/c/en/zeta", "/c/en/alpha"), Edge("/c/en/beta", "/c/en/beta")]))
        assert assoc.vocab == ["/c/en/alpha", "/c/en/zeta", "/c/fr/etre", "/c/fr/zebre",
                               "/c/fr/zèbre", "/c/fr/été"]


# The list-of-edges graph path that the edge table replaced, kept as
# a bitwise reference: the loader, rescale, term filter and TSV writer,
# and the graph stage of the pipeline built on them. The association
# matrix's list reference lives in test_retrofit.

@pytest.mark.parametrize("m", [1, 7, 300, 3 * 10 ** 9 - 1])
@pytest.mark.parametrize("seed", range(4))
def test_row_major_order_is_lexsort(m, seed):
    # many repeats: coordinates drawn from a small pool, then shuffled
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, m, (2, 50))
    pick = rng.integers(0, 50, 5000)
    rows, cols = pool[0, pick], pool[1, rng.permutation(pick)]
    assert len(set(zip(rows.tolist(), cols.tolist()))) < len(rows)
    assert np.array_equal(_row_major_order(rows, cols, m), np.lexsort((cols, rows)))


def reference_load_assertions(path, standardizer):
    assertions = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            start_uri, end_uri, weight_field, source = line.split("\t")
            weight = 1.0 if weight_field.strip() == "" else float(weight_field)
            start, end = (standardizer.uri(uri.split("/", 3)[3], uri.split("/", 3)[2])
                          for uri in (start_uri, end_uri))
            if start != end:
                assertions.append(Edge(start, end, weight, source))
    return assertions


def reference_rescale(assertions):
    totals, counts = {}, {}
    for a in assertions:
        totals[a.source] = totals.get(a.source, 0.0) + a.weight
        counts[a.source] = counts.get(a.source, 0) + 1
    means = {s: totals[s] / counts[s] for s in totals}
    return [a._replace(weight=a.weight / means[a.source]) for a in assertions]


def reference_filter(assertions, min_count, max_words):
    other = min_count.get("other", 3)
    counts = {}
    for a in assertions:
        counts[a.start] = counts.get(a.start, 0) + 1
        counts[a.end] = counts.get(a.end, 0) + 1
    bad = {t for t in counts
           if t.split("/", 3)[3].count("_") + 1 > max_words
           or counts[t] < min_count.get(t.split("/", 3)[2], other)}
    return [a for a in assertions if a.start not in bad and a.end not in bad]


def reference_write(path, assertions):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for a in assertions:
            f.write(f"{a.start}\t{a.end}\t{float(a.weight)!r}\t{a.source}\n")


def reference_load_graphs(config, matrix):
    standardizer = pipeline.build_standardizer(
        config, (label.rsplit("/", 1)[-1] for label in matrix.labels),
        pipeline.StageCache())
    filtered_pool, unfiltered_pool = [], []
    for graph in config.enabled_graphs():
        assertions = reference_load_assertions(graph.path, standardizer)
        if config.excluded_graph_sources:
            excluded = set(config.excluded_graph_sources)
            assertions = [a for a in assertions if a.source not in excluded]
        (filtered_pool if graph.apply_term_filter else unfiltered_pool).extend(assertions)
    combined = filtered_pool + unfiltered_pool
    if not combined:
        return []
    combined = reference_rescale(combined)
    n_filtered = len(filtered_pool)
    kept = reference_filter(combined[:n_filtered], config.filter_min_count,
                            config.filter_max_words)
    return kept + combined[n_filtered:]


# Surface forms that standardize onto each other ("cats" -> "cat"), multi-
# word labels past the default max_words, and two languages.
SURFACES = ["cat", "cats", "Cat", "dog", "dogs", "running", "run", "runs", "fish",
            "stone", "stones", "big_red_barn", "one_two_three_four", "the_cat"]
EMBEDDING_WORDS = ["cat", "dog", "run", "fish", "stone", "barn", "tree", "bird"]


def random_uri(rng):
    if rng.rand() < 0.4:
        return f"/c/en/{SURFACES[rng.randint(len(SURFACES))]}"
    language = "en" if rng.rand() < 0.7 else "fr"
    words = "_".join(f"w{rng.randint(60)}" for _ in range(1 + rng.randint(0, 4) // 3))
    return f"/c/{language}/{words}"


def random_edge_file(path, rng, n, sources):
    """`n` edge lines from `sources` (name -> log10 of its weight scale),
    with duplicate edges, self-edges and empty weights among them."""
    lines = ["# random edges"]
    names = list(sources)
    for _ in range(n):
        source = names[rng.randint(len(names))]
        start, end = random_uri(rng), random_uri(rng)
        if rng.rand() < 0.05:
            end = start
        roll = rng.rand()
        weight = "" if roll < 0.05 else "2" if roll < 0.1 else \
            repr(float(10.0 ** (sources[source] + rng.uniform(-1, 1))))
        line = f"{start}\t{end}\t{weight}\t{source}"
        lines.append(line)
        if rng.rand() < 0.1:
            lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def graph_config(tmp_path, graphs, **overrides):
    """A config over one small GloVe file and `graphs`, written to
    config.json for the CLI."""
    glove = tmp_path / "glove.txt"
    glove.write_text("".join(f"{w} {i + 1} {len(EMBEDDING_WORDS) - i} 0.5\n"
                             for i, w in enumerate(EMBEDDING_WORDS)), encoding="utf-8")
    raw = {"schema_version": 1,
           "embeddings": [{"id": "glove", "path": str(glove), "format": "glove_text"}],
           "graphs": graphs,
           "term_filter": {"min_count": {"en": 3, "other": 2}, "max_words": 2},
           "output": {"dir": str(tmp_path / "out")}}
    raw.update(overrides)
    (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return config_from_dict(raw)


class TestTableMatchesListPath:
    """The table path gives the list path's association arrays, vocabulary
    and `vecfuse graph --out` bytes."""

    # sources spanning six orders of magnitude of weight
    SOURCES = {"conceptnet": -3.0, "wiktionary": 0.0, "ppdb": 3.0, "verbosity": -1.0}

    def check(self, tmp_path, config):
        cache = pipeline.StageCache(None)
        matrix = pipeline.fuse_sources(config, cache)
        want = reference_load_graphs(config, matrix)
        got = pipeline.load_graphs(config, matrix, cache)
        assert isinstance(got, EdgeTable) and edge_rows(got) == want
        if want:
            assert_same_bits(build_association(got), reference_association(want))
        assert cli.main(["graph", "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "got.tsv")]) == 0
        reference_write(tmp_path / "want.tsv", want)
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()
        return want

    @pytest.mark.parametrize("seed", range(5))
    def test_two_graphs_with_exclusion(self, tmp_path, seed):
        rng = np.random.RandomState(seed)
        random_edge_file(tmp_path / "a.tsv", rng, 400, self.SOURCES)
        random_edge_file(tmp_path / "b.tsv", rng, 150, {"ppdb": 3.0, "extra": -2.0})
        graphs = [{"id": "unfiltered", "path": str(tmp_path / "b.tsv"),
                   "apply_term_filter": False},
                  {"id": "filtered", "path": str(tmp_path / "a.tsv")}]
        config = graph_config(tmp_path, graphs,
                           retrofit={"excluded_sources": ["verbosity"]})
        want = self.check(tmp_path, config)
        assert want and not any(a.source == "verbosity" for a in want)

    def test_every_edge_filtered_out(self, tmp_path):
        rng = np.random.RandomState(7)
        random_edge_file(tmp_path / "a.tsv", rng, 100, self.SOURCES)
        random_edge_file(tmp_path / "b.tsv", rng, 50, {"ppdb": 3.0})
        graphs = [{"id": "filtered", "path": str(tmp_path / "a.tsv")},
                  {"id": "unfiltered", "path": str(tmp_path / "b.tsv"),
                   "apply_term_filter": False}]
        config = graph_config(tmp_path, graphs,
                           term_filter={"min_count": {"en": 10**6, "other": 10**6}})
        want = self.check(tmp_path, config)
        assert want and all(a.source == "ppdb" for a in want)
        # with only the filtered graph, nothing is left at all
        config = graph_config(tmp_path, graphs[:1],
                           term_filter={"min_count": {"en": 10**6, "other": 10**6}})
        assert self.check(tmp_path, config) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_list_input_matches_reference(self, seed):
        rng = np.random.RandomState(100 + seed)
        n = 3000
        assertions = [Edge(random_uri(rng).lower(), random_uri(rng).lower(),
                           float(10.0 ** rng.uniform(-3, 3)), f"s{rng.randint(5)}")
                      for _ in range(n)]
        assertions += assertions[:200]  # duplicate edges
        rescaled = rescale_by_source(edge_table(assertions))
        want = reference_rescale(assertions)
        assert edge_rows(rescaled) == want
        assert np.array([a.weight for a in want]).tobytes() == rescaled.weight.tobytes()
        limits = {"en": 3, "other": 2}
        assert filtered(want, min_count=limits, max_words=2) == \
            reference_filter(want, limits, 2)
        assert_same_bits(build_association(edge_table(want)), reference_association(want))


def test_loaded_table_holds_at_most_40_bytes_per_edge(tmp_path):
    rng = np.random.RandomState(3)
    n, n_terms = 100_000, 10_000
    ends = rng.randint(n_terms, size=(n, 2))
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"/c/en/term{i}\t/c/en/term{j}\t{w!r}\tsource{i % 3}\n"
                            for (i, j), w in zip(ends.tolist(),
                                                 rng.uniform(0.5, 3, n).tolist())),
                    encoding="utf-8")
    default_rules(), default_stopwords()  # cached outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        table = load_assertions(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) > 0.99 * n and len(table.terms) > 0.99 * n_terms
    assert held <= 40 * n, f"{held / n:.1f} bytes per edge"
