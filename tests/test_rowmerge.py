import numpy as np
import pytest

from conftest import bits_equal, make_matrix
from vecfuse import rowmerge
from vecfuse.errors import InvalidLanguage, InvalidRank, PlanMismatch
from vecfuse.labels import Standardizer
from vecfuse.rowmerge import (
    MERGE_STRATEGIES,
    MergePlan,
    build_merge_plan,
    l1_normalize_columns,
    l2_normalize_columns,
    l2_normalize_rows,
    merge_standardized,
    normalize_rows_inplace,
    zipf_weight,
)


class TestZipfWeight:
    def test_definition(self):
        assert zipf_weight(1) == 1.0
        assert zipf_weight(4) == 0.25

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            zipf_weight(0)


class TestBuildMergePlan:
    def test_groups_by_standardized_label(self):
        m = make_matrix(["Cat", "cat", "dog"], np.eye(3))
        plan, kept = build_merge_plan(m, Standardizer())
        assert list(kept) == [0, 1, 2]
        assert plan.groups["/c/en/cat"] == [(0, 1), (1, 2)]
        assert plan.groups["/c/en/dog"] == [(2, 3)]

    def test_drops_unstandardizable_rows(self):
        m = make_matrix(["cat", "...", "dog"], np.eye(3))
        plan, kept = build_merge_plan(m, Standardizer())
        assert list(kept) == [0, 2]
        # plan indexes rows of the kept subset
        assert plan.groups["/c/en/dog"] == [(1, 3)]

    def test_rank_is_the_row_position_before_rows_are_dropped(self):
        m = make_matrix(["!!", "Cat", "cat"], [[9.0, 9.0], [1.0, 0.0], [0.0, 1.0]])
        plan, kept = build_merge_plan(m, Standardizer())
        assert list(kept) == [1, 2]
        assert plan.groups == {"/c/en/cat": [(0, 2), (1, 3)]}
        merged = merge_standardized(m.take(kept), plan)
        # Zipf weights 1/2 and 1/3 (0.6 and 0.4), not 1/1 and 1/2
        w1, w2 = 1 / 2, 1 / 3
        assert bits_equal(merged.data, [[w1 / (w1 + w2), w2 / (w1 + w2)]])

    def test_bad_language_raises(self):
        m = make_matrix(["cat", "dog"], np.eye(2))
        with pytest.raises(InvalidLanguage):
            build_merge_plan(m, Standardizer(), language="EN")


class TestMergeStandardized:
    def test_zipf_weighted_example(self):
        m = make_matrix(["Cat", "cat"], [[1.0, 0.0], [0.0, 1.0]])
        plan = MergePlan(groups={"/c/en/cat": [(0, 1), (1, 3)]})
        merged = merge_standardized(m, plan)
        assert merged.labels == ["/c/en/cat"]
        assert np.allclose(merged.data, [[0.75, 0.25]], atol=1e-7)

    def test_singleton_group_unchanged_bits(self):
        m = make_matrix(["cat"], [[0.1, 0.7]])
        plan = MergePlan(groups={"/c/en/cat": [(0, 1)]})
        merged = merge_standardized(m, plan)
        assert bits_equal(merged.data, m.data)

    def test_identical_vectors_are_fixed_point(self):
        v = [0.3, -0.4, 0.5]
        m = make_matrix(["A", "a"], [v, v])
        plan = MergePlan(groups={"/c/en/a": [(0, 2), (1, 9)]})
        merged = merge_standardized(m, plan)
        assert np.allclose(merged.data[0], v, atol=1e-7)

    def test_convex_envelope(self, rng):
        for _ in range(50):
            g = rng.randint(2, 6)
            rows = rng.randn(g, 4).astype(np.float32)
            ranks = sorted(rng.choice(np.arange(1, 100), size=g, replace=False))
            m = make_matrix([f"w{i}" for i in range(g)], rows)
            plan = MergePlan(groups={"/c/en/w": [(i, int(ranks[i])) for i in range(g)]})
            merged = merge_standardized(m, plan).data[0]
            lo = rows.min(axis=0) - 1e-6
            hi = rows.max(axis=0) + 1e-6
            assert np.all(merged >= lo) and np.all(merged <= hi)

    def test_group_processing_order_irrelevant(self):
        m = make_matrix(["b", "B", "a"], [[1, 0], [3, 0], [0, 2]])
        g1 = {"/c/en/b": [(0, 1), (1, 2)], "/c/en/a": [(2, 3)]}
        g2 = {"/c/en/a": [(2, 3)], "/c/en/b": [(0, 1), (1, 2)]}
        m1 = merge_standardized(m, MergePlan(groups=g1))
        m2 = merge_standardized(m, MergePlan(groups=g2))
        assert m1.labels == m2.labels
        assert bits_equal(m1.data, m2.data)

    def test_output_order_by_min_rank_then_label(self):
        m = make_matrix(["x", "y", "z"], np.eye(3))
        plan = MergePlan(groups={"/c/en/x": [(0, 5)], "/c/en/y": [(1, 2)],
                                 "/c/en/a": [(2, 5)]})
        merged = merge_standardized(m, plan)
        assert merged.labels == ["/c/en/y", "/c/en/a", "/c/en/x"]

    def test_strategies_differ_on_fixture(self):
        m = make_matrix(["A", "a"], [[1.0, 0.0], [0.0, 1.0]])
        plan = MergePlan(groups={"/c/en/a": [(0, 1), (1, 3)]})
        zipf = merge_standardized(m, plan, strategy="zipf").data[0]
        first = merge_standardized(m, plan, strategy="first").data[0]
        unweighted = merge_standardized(m, plan, strategy="unweighted").data[0]
        assert np.allclose(zipf, [0.75, 0.25])
        assert np.allclose(first, [1.0, 0.0])
        assert np.allclose(unweighted, [0.5, 0.5])

    def test_plan_mismatch(self):
        m = make_matrix(["a", "b"], np.eye(2))
        with pytest.raises(PlanMismatch):
            merge_standardized(m, MergePlan(groups={"/c/en/a": [(0, 1)]}))
        with pytest.raises(PlanMismatch):
            merge_standardized(m, MergePlan(groups={"/c/en/a": [(0, 1), (5, 2)]}))
        with pytest.raises(PlanMismatch):  # an empty group
            merge_standardized(m, MergePlan(groups={"/c/en/a": [(0, 1), (1, 2)],
                                                    "/c/en/b": []}))
        with pytest.raises(PlanMismatch):  # ranks not ascending
            merge_standardized(m, MergePlan(groups={"/c/en/a": [(1, 2), (0, 1)]}))

    def test_equal_ranks_in_a_group_accepted(self):
        m = make_matrix(["a", "A"], [[1.0], [3.0]])
        plan = MergePlan(groups={"/c/en/a": [(1, 2), (0, 2)]})
        assert merge_standardized(m, plan, strategy="first").data.tolist() == [[3.0]]

    def test_zipf_rank_below_one_in_a_merged_group(self):
        m = make_matrix(["a", "A"], np.eye(2))
        with pytest.raises(InvalidRank):
            merge_standardized(m, MergePlan(groups={"/c/en/a": [(0, 0), (1, 1)]}))


def reference_merge(matrix, plan, strategy):
    """`merge_standardized` as it was before it averaged the groups of one
    size together: a loop of numpy calls per group."""
    ordered = sorted(plan.groups.items(), key=lambda kv: (kv[1][0][1], kv[0]))
    out = matrix.data[np.array([members[0][0] for _label, members in ordered],
                               dtype=np.int64)]
    for gi, (_label, members) in enumerate(ordered):
        if len(members) == 1 or strategy == "first":
            continue
        rows = matrix.data[[m[0] for m in members]].astype(np.float64)
        if strategy == "zipf":
            weights = np.array([zipf_weight(r) for _i, r in members])
            merged = (weights[:, None] * rows).sum(axis=0) / weights.sum()
        else:
            merged = rows.mean(axis=0)
        out[gi] = merged
    return [label for label, _members in ordered], out


class TestMergeMatchesGroupLoop:
    """Averaging all groups of one size at once gives the bits of the loop
    over groups: each group is still summed over its rows left to right."""

    @pytest.mark.parametrize("strategy", MERGE_STRATEGIES)
    @pytest.mark.parametrize("dims", [1, 2, 7, 50])
    @pytest.mark.parametrize("rows_per_call", [2, 13, None])
    def test_group_sizes_one_to_twelve(self, rng, monkeypatch, strategy, dims,
                                       rows_per_call):
        # sizes past 8 cross numpy's pairwise-sum block; three groups of
        # each size, shuffled rows, scattered ranks with some equal ones.
        # A budget of 2 rows averages one group per call; 13 rows splits
        # the groups of sizes 5 and 6 into a call of two and one of one
        if rows_per_call is not None:
            monkeypatch.setattr(rowmerge, "_MERGE_BYTES", 8 * dims * rows_per_call)
        sizes = [size for size in range(1, 13) for _ in range(3)]
        n = sum(sizes)
        rows = (rng.randn(n, dims) * rng.uniform(0.01, 100, size=(n, 1))).astype(np.float32)
        ranks = rng.randint(1, 40, size=n)
        m = make_matrix([f"w{i}" for i in range(n)], rows)
        order = rng.permutation(n)
        groups, at = {}, 0
        for gi, size in enumerate(sizes):
            members = sorted(((int(i), int(ranks[i])) for i in order[at:at + size]),
                             key=lambda mr: mr[1])
            groups[f"/c/en/g{gi}"] = members
            at += size
        plan = MergePlan(groups=groups)
        merged = merge_standardized(m, plan, strategy=strategy)
        labels, data = reference_merge(m, plan, strategy)
        assert merged.labels == labels
        assert bits_equal(merged.data, data)

    def test_pipeline_plan(self, rng):
        words = ["Cat", "cat", "CAT", "dog", "Dog", "cats", "bird"] * 3
        m = make_matrix([w + "!" * (i // 7) for i, w in enumerate(words)],
                        rng.randn(len(words), 5).astype(np.float32))
        plan, kept = build_merge_plan(m, Standardizer())
        for strategy in MERGE_STRATEGIES:
            merged = merge_standardized(m.take(kept), plan, strategy=strategy)
            labels, data = reference_merge(m.take(kept), plan, strategy)
            assert merged.labels == labels
            assert bits_equal(merged.data, data)


class TestColumnNormalization:
    def test_l1_example(self):
        m = make_matrix(["a", "b", "c"], [[1.0], [-1.0], [2.0]])
        out = l1_normalize_columns(m)
        assert np.allclose(out.data[:, 0], [0.25, -0.25, 0.5])

    def test_l1_zero_column_unchanged(self):
        m = make_matrix(["a", "b"], [[0.0, 1.0], [0.0, 3.0]])
        out = l1_normalize_columns(m)
        assert np.all(out.data[:, 0] == 0.0)

    def test_l1_idempotent_bits(self, rng):
        m = make_matrix([f"w{i}" for i in range(6)], rng.randn(6, 4).astype(np.float32))
        once = l1_normalize_columns(m)
        twice = l1_normalize_columns(once)
        assert bits_equal(once.data, twice.data)
        sums = np.abs(once.data.astype(np.float64)).sum(axis=0)
        assert np.all(np.abs(sums - 1.0) < 1e-6)

    def test_l2_columns(self, rng):
        m = make_matrix([f"w{i}" for i in range(5)], rng.randn(5, 3).astype(np.float32))
        out = l2_normalize_columns(m)
        norms = np.sqrt((out.data.astype(np.float64) ** 2).sum(axis=0))
        assert np.all(np.abs(norms - 1.0) < 1e-6)


class TestRowNormalization:
    def test_example(self):
        m = make_matrix(["a"], [[3.0, 4.0]])
        out = l2_normalize_rows(m)
        assert np.allclose(out.data, [[0.6, 0.8]])

    def test_zero_row_unchanged(self):
        m = make_matrix(["a"], [[0.0, 0.0]])
        out = l2_normalize_rows(m)
        assert np.all(out.data == 0.0)

    def test_unit_row_unchanged_bits(self):
        m = make_matrix(["a"], [[0.6, 0.8]])
        out = l2_normalize_rows(m)
        assert bits_equal(out.data, m.data)

    def test_idempotent_bits(self, rng):
        m = make_matrix([f"w{i}" for i in range(8)], rng.randn(8, 5).astype(np.float32))
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        assert bits_equal(once.data, twice.data)
        norms = np.sqrt((once.data.astype(np.float64) ** 2).sum(axis=1))
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_cosine_ranking_invariance(self, rng):
        def cos(x, y):
            return float(x @ y / np.sqrt((x @ x) * (y @ y)))
        for _ in range(50):
            rows = rng.randn(3, 6).astype(np.float32) * rng.uniform(0.1, 9)
            m = make_matrix(["q", "a", "b"], rows)
            out = l2_normalize_rows(m).data.astype(np.float64)
            raw = m.data.astype(np.float64)
            before = cos(raw[0], raw[1]) > cos(raw[0], raw[2])
            after = cos(out[0], out[1]) > cos(out[0], out[2])
            assert before == after

    @pytest.mark.parametrize("dims", [1, 7, 75, 300])
    @pytest.mark.parametrize("rows_per_block", [1, 3, 64, None])
    def test_blocks_match_whole_matrix(self, rng, monkeypatch, dims, rows_per_block):
        # zero, unit, tiny and huge rows, through blocks of 1 row, blocks
        # that do not divide the row count, and one block for all rows
        if rows_per_block is not None:
            monkeypatch.setattr(rowmerge, "_NORM_BYTES", 8 * dims * rows_per_block)
        n = 100
        rows = (rng.randn(n, dims) * rng.uniform(1e-8, 1e4, size=(n, 1))).astype(np.float32)
        rows[5] = 0.0
        rows[9] /= np.sqrt((rows[9].astype(np.float64) ** 2).sum())
        m = make_matrix([f"w{i}" for i in range(n)], rows)
        whole = m.data.astype(np.float64)
        normalize_rows_inplace(whole)
        out = l2_normalize_rows(m)
        assert out.labels == m.labels
        assert out.data.dtype == np.float32
        assert bits_equal(out.data, whole.astype(np.float32))

    def test_no_rows(self):
        out = l2_normalize_rows(make_matrix([], np.zeros((0, 4), dtype=np.float32)))
        assert out.data.shape == (0, 4) and out.data.dtype == np.float32
