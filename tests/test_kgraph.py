import numpy as np
import pytest

from vecfuse.errors import NonPositiveWeight, ParseError
from vecfuse.kgraph import (
    Assertion,
    build_association,
    filter_terms,
    load_assertions,
    rescale_by_source,
    write_assertions,
)


def edge(start, end, weight=1.0, source="s"):
    return Assertion(start=start, end=end, weight=weight, source=source)


class TestLoadAssertions:
    def test_parses_basic_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/pet\t2.0\tomcs\n", encoding="utf-8")
        got = load_assertions(path)
        assert got == [edge("/c/en/cat", "/c/en/pet", 2.0, "omcs")]

    def test_zero_weight_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/pet\t0\tomcs\n", encoding="utf-8")
        with pytest.raises(NonPositiveWeight):
            load_assertions(path)

    def test_empty_weight_defaults_to_one(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/cat\t/c/en/pet\t\tppdb\n", encoding="utf-8")
        assert load_assertions(path)[0].weight == 1.0

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
        got = load_assertions(path)[0]
        assert got.start == "/c/en/give_example"
        assert got.end == "/c/en/dog"

    def test_self_edges_dropped_after_standardization(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("/c/en/dried\t/c/en/dry\t1\tx\n", encoding="utf-8")
        assert load_assertions(path) == []

    def test_round_trip(self, tmp_path):
        original = [edge("/c/en/a", "/c/en/b", 0.123456789012345, "x"),
                    edge("/c/fr/chat", "/c/en/cat", 2.5, "y")]
        path = tmp_path / "edges.tsv"
        write_assertions(path, original)
        assert load_assertions(path) == original


class TestRescaleBySource:
    def test_single_source_mean(self):
        got = rescale_by_source([edge("/c/en/a", "/c/en/b", 1.0),
                                 edge("/c/en/c", "/c/en/d", 3.0)])
        assert [a.weight for a in got] == [0.5, 1.5]

    def test_equal_weights_become_one(self):
        got = rescale_by_source([edge("/c/en/a", "/c/en/b", 7.0),
                                 edge("/c/en/c", "/c/en/d", 7.0)])
        assert [a.weight for a in got] == [1.0, 1.0]

    def test_sources_independent(self):
        got = rescale_by_source([
            edge("/c/en/a", "/c/en/b", 2.0, "A"),
            edge("/c/en/c", "/c/en/d", 2.0, "A"),
            edge("/c/en/e", "/c/en/f", 10.0, "B"),
        ])
        assert [a.weight for a in got] == [1.0, 1.0, 1.0]

    def test_means_one_and_ratios_preserved(self, rng):
        assertions = [edge(f"/c/en/a{i}", f"/c/en/b{i}", float(w),
                           source=("x" if i % 2 else "y"))
                      for i, w in enumerate(rng.uniform(0.1, 9.0, size=40))]
        got = rescale_by_source(assertions)
        for source in ("x", "y"):
            weights = [a.weight for a in got if a.source == source]
            assert abs(np.mean(weights) - 1.0) < 1e-9
        pairs = [(a, b) for a, b in zip(assertions, got) if a.source == "x"]
        r0 = pairs[0][0].weight / pairs[0][1].weight
        for orig, scaled in pairs[1:]:
            assert abs(orig.weight / scaled.weight - r0) < 1e-9 * r0


class TestFilterTerms:
    def test_rare_non_english_excluded(self):
        hub_edges = [edge("/c/fr/hub", "/c/fr/spoke")] * 5
        rare_edges = [edge("/c/fr/rare", "/c/fr/hub")] * 2
        got = filter_terms(hub_edges + rare_edges)
        # "rare" appears twice (< 3): its edges drop, the hub's survive
        assert got == hub_edges

    def test_three_non_english_mentions_survive(self):
        edges = [edge("/c/fr/a", "/c/fr/b")] * 3
        assert filter_terms(edges) == edges

    def test_english_needs_four(self):
        three = [edge("/c/en/word", "/c/en/other")] * 3
        assert filter_terms(three) == []
        four = [edge("/c/en/word", "/c/en/other")] * 4
        assert filter_terms(four) == four

    def test_long_labels_excluded(self):
        edges = [edge("/c/en/one_two_three_four", f"/c/en/b{i}") for i in range(9)]
        assert filter_terms(edges) == []
        edges = [edge("/c/en/one_two_three", f"/c/fr/b") for _ in range(9)]
        assert len(filter_terms(edges)) == 9

    def test_thresholds_on_input_counts_no_cascade(self):
        # y survives on input counts even though dropping x's edges leaves
        # it with fewer mentions afterwards (single pass, no fixed point).
        edges = ([edge("/c/fr/y", "/c/fr/x")] * 2
                 + [edge("/c/fr/y", "/c/fr/z")]
                 + [edge("/c/fr/z", "/c/fr/w")] * 3)
        got = filter_terms(edges, min_count={"other": 3}, max_words=3)
        assert edge("/c/fr/y", "/c/fr/z") in got

    def test_custom_thresholds(self):
        edges = [edge("/c/de/a", "/c/de/b")]
        assert filter_terms(edges, min_count={"other": 1}) == edges


class TestBuildAssociation:
    def test_single_edge_normalizes_to_one(self):
        assoc = build_association([edge("/c/en/a", "/c/en/b", 3.0)])
        s = assoc.toarray()
        i, j = assoc.vocab.index("/c/en/a"), assoc.vocab.index("/c/en/b")
        assert s[i, j] == 1.0 and s[j, i] == 1.0
        assert s[i, i] == 1.0 and s[j, j] == 1.0

    def test_duplicate_edges_accumulate(self):
        assoc = build_association([
            edge("/c/en/a", "/c/en/b", 2.0),
            edge("/c/en/a", "/c/en/b", 1.0),
            edge("/c/en/a", "/c/en/c", 1.0),
        ])
        s = assoc.toarray()
        i = assoc.vocab.index("/c/en/a")
        j = assoc.vocab.index("/c/en/b")
        k = assoc.vocab.index("/c/en/c")
        assert abs(s[i, j] - 0.75) < 1e-12  # accumulated 3 of a row summing 4
        assert abs(s[i, k] - 0.25) < 1e-12

    def test_row_normalization_example(self):
        assoc = build_association([
            edge("/c/en/i", "/c/en/j", 1.0),
            edge("/c/en/i", "/c/en/k", 3.0),
        ])
        s = assoc.toarray()
        i = assoc.vocab.index("/c/en/i")
        j = assoc.vocab.index("/c/en/j")
        k = assoc.vocab.index("/c/en/k")
        assert abs(s[i, j] - 0.25) < 1e-12
        assert abs(s[i, k] - 0.75) < 1e-12

    def test_symmetric_support(self, rng):
        edges = [edge(f"/c/en/t{rng.randint(0, 9)}", f"/c/en/t{rng.randint(0, 9)}",
                      float(w)) for w in rng.uniform(0.5, 3.0, size=30)]
        edges = [a for a in edges if a.start != a.end]
        s = build_association(edges).toarray()
        assert np.array_equal(s > 0, (s > 0).T)

    def test_invariants(self, rng):
        edges = [edge(f"/c/en/t{i}", f"/c/en/t{(i * 3 + 1) % 7}", float(i + 1))
                 for i in range(12)]
        edges = [a for a in edges if a.start != a.end]
        assoc = build_association(edges, extra_vocab=["/c/en/zzz_isolated"])
        s = assoc.toarray()
        assert np.all(s >= 0)
        assert np.all(np.diag(s) == 1.0)
        offdiag = s - np.diag(np.diag(s))
        row_sums = offdiag.sum(axis=1)
        for total in row_sums:
            assert abs(total - 1.0) < 1e-12 or total == 0.0
        iso = assoc.vocab.index("/c/en/zzz_isolated")
        assert row_sums[iso] == 0.0

    def test_self_edges_dropped(self):
        assoc = build_association([
            edge("/c/en/a", "/c/en/a", 2.0),
            edge("/c/en/a", "/c/en/b", 1.0),
        ])
        plain = build_association([edge("/c/en/a", "/c/en/b", 1.0)])
        assert assoc.vocab == plain.vocab
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(assoc, name), getattr(plain, name))
        s = assoc.toarray()
        i = assoc.vocab.index("/c/en/a")
        assert s[i, i] == 1.0
        assert s[i].sum() - s[i, i] == 1.0

    def test_vocab_ordering(self):
        assoc = build_association(
            [edge("/c/en/zeta", "/c/en/alpha")],
            extra_vocab=["/c/en/zeta", "/c/en/beta"])
        assert assoc.vocab == ["/c/en/zeta", "/c/en/beta", "/c/en/alpha"]
