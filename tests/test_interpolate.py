import tracemalloc

import numpy as np
import pytest

from conftest import bits_equal, make_matrix
from vecfuse import interpolate, parallel, rowmerge
from vecfuse.errors import ConvergenceFailure, EmptyOverlap
from vecfuse.interpolate import (
    _infer_rows,
    _nearest,
    _top_k,
    build_overlap,
    fuse,
    svd_discount,
    svd_factors,
)
from vecfuse.rowmerge import l2_normalize_rows


def unit_rows(labels, dims, rng):
    return l2_normalize_rows(
        make_matrix(labels, rng.randn(len(labels), dims).astype(np.float32)))


def oracle_infer(vec, have_unit, want_shared, k):
    """One row at a time, as fusion inferred rows before it worked in
    blocks: GEMV, full stable argsort, weighted mean. Returns the neighbor
    indices and the inferred row."""
    vec = np.asarray(vec, dtype=np.float64)
    norm = np.sqrt(vec @ vec)
    sims = have_unit @ (vec / norm) if norm > 1e-12 else np.zeros(len(have_unit))
    top = np.argsort(-sims, kind="stable")[: min(k, len(have_unit))]
    neighbors = want_shared[top].astype(np.float64)
    weights = np.maximum(sims[top], 0.0)
    total = weights.sum()
    if total <= 0.0:
        return top, neighbors.mean(axis=0)
    return top, (weights[:, None] * neighbors).sum(axis=0) / total


def random_space(rng, n, dims):
    data = rng.randn(n, dims)
    return data / np.sqrt((data * data).sum(axis=1))[:, None]


class TestBuildOverlap:
    def test_partition(self):
        a = make_matrix(["x", "s1", "y", "s2"], np.eye(4))
        b = make_matrix(["s2", "s1", "z"], np.eye(4)[:3, :3])
        idx = build_overlap(a, b)
        assert idx.shared == ["s1", "s2"]  # a's order
        assert idx.only_a == ["x", "y"]
        assert idx.only_b == ["z"]
        assert not set(idx.shared) & set(idx.only_a)
        assert not set(idx.shared) & set(idx.only_b)


def inferred(have, want, term, k):
    """`term`'s row in the `want` space, as `fuse` infers it."""
    fused = fuse(have, want, k=k, discount=False).matrix
    return fused.data[fused.labels.index(term), have.dims:]


class TestInferMissing:
    def test_identical_vector_single_neighbor(self, rng):
        have = make_matrix(["term", "t", "other"],
                           [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        want = make_matrix(["t", "other"], [[5.0, 6.0, 7.0], [1.0, 1.0, 1.0]])
        assert np.allclose(inferred(have, want, "term", k=1), [5.0, 6.0, 7.0], atol=1e-6)

    def test_equal_similarities_average(self):
        # two shared neighbors at the same angle from the query
        have = make_matrix(["term", "p", "q"],
                           [[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        want = make_matrix(["p", "q"], [[2.0, 0.0], [0.0, 4.0]])
        assert np.allclose(inferred(have, want, "term", k=2), [1.0, 2.0], atol=1e-7)

    def test_all_negative_similarities_fall_back_to_mean(self):
        # both shared terms point away from the query
        have = make_matrix(["term", "p", "q"],
                           [[1.0, 0.0], [-1.0, 0.1], [-1.0, -0.1]])
        want = make_matrix(["p", "q"], [[2.0, 0.0], [0.0, 4.0]])
        assert np.allclose(inferred(have, want, "term", k=2), [1.0, 2.0], atol=1e-7)

    def test_convex_combination(self, rng):
        have = unit_rows(["term"] + [f"s{i}" for i in range(8)], 5, rng)
        want = unit_rows([f"s{i}" for i in range(8)], 4, rng)
        got = inferred(have, want, "term", k=4)
        lo = want.data.min(axis=0) - 1e-9
        hi = want.data.max(axis=0) + 1e-9
        assert np.all(got >= lo) and np.all(got <= hi)

    def test_empty_overlap(self):
        have = make_matrix(["term"], [[1.0, 0.0]])
        want = make_matrix(["other"], [[1.0, 0.0]])
        with pytest.raises(EmptyOverlap):
            fuse(have, want, k=1)


class TestBlockInference:
    def test_unit_rows_zero_rows_at_or_below_threshold(self):
        out = rowmerge.unit_rows(np.array([[3.0, 4.0], [1e-13, 0.0], [0.0, 0.0]]))
        assert out.tolist() == [[0.6, 0.8], [0.0, 0.0], [0.0, 0.0]]

    def test_matches_row_oracle(self, rng):
        have_unit = random_space(rng, 200, 8)
        want_shared = rng.randn(200, 6).astype(np.float32)
        queries = rng.randn(50, 8).astype(np.float32)
        for k in (1, 5, 17):
            got = np.empty((len(queries), 6))
            _infer_rows(queries, have_unit, want_shared, k, got)
            neg = -(queries.astype(np.float64) @ have_unit.T)
            neg /= np.sqrt((queries.astype(np.float64) ** 2).sum(axis=1))[:, None]
            tops = _top_k(neg, k)
            for i, vec in enumerate(queries):
                top, row = oracle_infer(vec, have_unit, want_shared, k)
                assert tops[i].tolist() == top.tolist()
                assert np.abs(got[i] - row).max() < 1e-6

    @pytest.mark.parametrize("row, k", [
        ([0.5, 0.9, 0.5, 0.5, 0.1, 0.9], 1),
        ([0.5, 0.9, 0.5, 0.5, 0.1, 0.9], 3),   # 0.5 tied across the cut
        ([0.5, 0.9, 0.5, 0.5, 0.1, 0.9], 4),
        ([0.2, 0.2, 0.2, 0.2, 0.2, 0.2], 2),   # all equal
        ([0.0, -0.0, 0.0, -0.0, 0.0, 0.0], 3),  # signed zeros compare equal
        ([0.3, 0.7, 0.3, 0.7, 0.7, 0.1], 2),   # tie inside the top k only
        ([0.3, 0.7, 0.3, 0.7, 0.7, 0.1], 6),
        ([0.3, 0.7, 0.3, 0.7, 0.7, 0.1], 9),
    ])
    def test_ties_go_to_lowest_index(self, row, k):
        sims = np.array([row, row[::-1]], dtype=np.float64)
        got = _top_k(-sims, min(k, sims.shape[1]))
        for i in range(2):
            want = np.argsort(-sims[i], kind="stable")[:k]
            assert got[i].tolist() == want.tolist()

    @pytest.mark.parametrize("k", [1, 10, 40, 499])
    def test_many_ties_in_long_rows(self, rng, k):
        # few distinct levels over long rows: the partition scrambles
        # indices, and most rows tie at the k-th value
        sims = rng.randint(0, 6, size=(30, 500)) / 5.0
        sims[:3] = np.sort(sims[:3], axis=1)  # the top levels sit at the end
        got = _top_k(-sims, k)
        want = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        assert np.array_equal(got, want)

    def test_ties_inside_top_k_ordered_by_index(self, rng):
        # 20 copies each of two top levels, distinct values below them:
        # the k = 40 winners are tied among themselves but not at the cut
        sims = rng.uniform(0.0, 0.5, size=(30, 500))
        for row in sims:
            picks = rng.permutation(500)[:40]
            row[picks[:20]], row[picks[20:]] = 1.0, 0.8
        got = _top_k(-sims, 40)
        want = np.argsort(-sims, axis=1, kind="stable")[:, :40]
        assert np.array_equal(got, want)

    def test_tied_neighbors_through_inference(self):
        # shared rows alternate between two directions; the query matches
        # the first one exactly, so rows 0, 2 and 4 tie
        have_unit = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
        want_shared = np.eye(6, dtype=np.float32)
        for k in (1, 2, 4):
            got = np.empty((1, 6))
            _infer_rows(np.array([[3.0, 0.0]], dtype=np.float32), have_unit,
                        want_shared, k, got)
            top, row = oracle_infer([3.0, 0.0], have_unit, want_shared, k)
            assert top.tolist() == [0, 2, 4, 1][:k]
            assert np.array_equal(got[0], row)

    def test_zero_query_takes_mean_of_first_k(self, rng):
        have_unit = random_space(rng, 10, 4)
        want_shared = rng.randn(10, 3).astype(np.float32)
        got = np.empty((2, 3))
        queries = np.array([[0.0] * 4, [1e-14, 0.0, 0.0, 0.0]], dtype=np.float32)
        _infer_rows(queries, have_unit, want_shared, 4, got)
        for row in got:
            assert np.allclose(row, want_shared[:4].astype(np.float64).mean(axis=0),
                               atol=1e-12)

    @pytest.mark.parametrize("k", [12, 13, 40])
    def test_k_at_least_shared_count(self, rng, k):
        have_unit = random_space(rng, 12, 5)
        want_shared = rng.randn(12, 3).astype(np.float32)
        queries = rng.randn(7, 5).astype(np.float32)
        got = np.empty((7, 3))
        _infer_rows(queries, have_unit, want_shared, k, got)
        for i, vec in enumerate(queries):
            _top, row = oracle_infer(vec, have_unit, want_shared, k)
            assert np.abs(got[i] - row).max() < 1e-6

    def test_block_size_does_not_change_bits(self, rng, monkeypatch):
        a = unit_rows([f"w{i}" for i in range(60)], 6, rng)
        b = unit_rows([f"w{i}" for i in range(25, 90)], 5, rng)
        shared = 35
        results = []
        for rows_per_block in (1, 3, 10 ** 6):
            monkeypatch.setattr(interpolate, "_SIMS_BYTES", 8 * shared * rows_per_block)
            results.append(fuse(a, b, k=4, discount=False).matrix.data)
        assert all(bits_equal(results[0], r) for r in results[1:])

    @pytest.mark.parametrize("k", [1, 3, 4, 5])
    def test_ties_across_column_tiles_go_to_lowest_index(self, k):
        # two shared rows per tile; the query ties rows 1, 2, 4 and 5
        have_unit = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0],
                              [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        query = np.array([[1.0, 0.0]])
        for cols in (1, 2, 3, 4, 6):
            _neg, top = _nearest(query, have_unit, k, cols, np.empty(cols))
            assert top[0].tolist() == [1, 2, 4, 5, 0][:k]

    def test_tile_shape_keeps_neighbor_indices(self, rng, monkeypatch):
        # exact unit rows (entries 0, +-1 or +-0.5) make every similarity
        # exact whatever the order of the GEMM's sums, so many tie; random
        # rows give distinct similarities
        levels = np.array([[1, 0, 0, 0], [0, -1, 0, 0], [0.5, 0.5, -0.5, 0.5],
                           [-0.5, 0.5, 0.5, 0.5], [0, 0, 0, 1]])
        cases = [(levels[rng.randint(0, 5, size=70)],
                  2.0 * levels[rng.randint(0, 5, size=30)]),
                 (random_space(rng, 70, 4), rng.randn(30, 4))]
        want_shared = rng.randn(70, 3).astype(np.float32)
        nearest = interpolate._nearest
        for budget, cols in [(1 << 19, 1024), (8 * 70, 1024), (8 * 70 * 3, 1024),
                             (8 * 16, 4), (8 * 9, 3), (8 * 64, 16), (8 * 70 * 15, 8)]:
            monkeypatch.setattr(interpolate, "_SIMS_BYTES", budget)
            monkeypatch.setattr(interpolate, "_TILE_COLS", cols)
            for have_unit, queries in cases:
                # one worker, so that the spy collects the tiles in row order
                monkeypatch.setattr(parallel, "worker_count", lambda: 1)
                tops = []
                monkeypatch.setattr(interpolate, "_nearest",
                                    lambda *args: tops.append(nearest(*args)) or tops[-1])
                got = np.empty((len(queries), 3))
                _infer_rows(queries.astype(np.float32), have_unit, want_shared, 6, got)
                top_rows = np.vstack([top for _neg, top in tops])
                for i, vec in enumerate(queries.astype(np.float32)):
                    top, row = oracle_infer(vec, have_unit, want_shared, 6)
                    assert top_rows[i].tolist() == top.tolist()
                    assert np.abs(got[i] - row).max() < 1e-6
                for workers in (2, 3):
                    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
                    again = np.empty_like(got)
                    _infer_rows(queries.astype(np.float32), have_unit, want_shared, 6, again)
                    assert again.tobytes() == got.tobytes()


def reference_nearest(query, have_unit, k, cols):
    """`_nearest` as it was before it reused one buffer: a new similarity
    tile for each tile, negated after the GEMM."""
    best = None
    for col in range(0, len(have_unit), cols):
        neg = query @ have_unit[col:col + cols].T
        np.negative(neg, out=neg)
        top = _top_k(neg, min(k, neg.shape[1]))
        vals, top = np.take_along_axis(neg, top, axis=1), top + col
        if best is not None:
            vals = np.concatenate((best[0], vals), axis=1)
            top = np.concatenate((best[1], top), axis=1)
            order = np.lexsort((top, vals))[:, :k]
            vals = np.take_along_axis(vals, order, axis=1)
            top = np.take_along_axis(top, order, axis=1)
        best = vals, top
    return best


def reference_infer_rows(vecs, have_unit, want_shared, k, out):
    """`_infer_rows` as it was before it reused one buffer and widened the
    want-side rows once."""
    k = min(k, len(have_unit))
    rows, cols = interpolate._tile_shape(len(have_unit))
    for start in range(0, len(vecs), rows):
        neg, top = reference_nearest(rowmerge.unit_rows(vecs[start:start + rows]),
                                     have_unit, k, cols)
        weights = np.maximum(-neg, 0.0)
        neighbors = want_shared[top].astype(np.float64)
        total = weights.sum(axis=1)
        sums = (weights[:, :, None] * neighbors).sum(axis=1)
        flat = total <= 0.0
        sums[~flat] /= total[~flat, None]
        sums[flat] = neighbors[flat].mean(axis=1)
        out[start:start + rows] = sums


class TestInferenceMatchesTileLoop:
    """One reused similarity buffer, a query negated once per block and
    want-side rows widened once give the bits of the per-tile loop."""

    LEVELS = np.array([[1, 0, 0, 0], [0, -1, 0, 0], [0.5, 0.5, -0.5, 0.5],
                       [-0.5, 0.5, 0.5, 0.5], [0, 0, 0, 1]])

    def cases(self, rng):
        # exact rows tie across tiles; random rows do not; zero queries
        # (and one below the zero threshold) go with both
        tied = (self.LEVELS[rng.randint(0, 5, size=70)],
                2.0 * self.LEVELS[rng.randint(0, 5, size=33)])
        spread = (random_space(rng, 70, 4), rng.randn(33, 4) * 3.0)
        for have_unit, queries in (tied, spread):
            queries[[4, 20]] = 0.0
            queries[9] = [1e-14, 0.0, 0.0, 0.0]
            yield have_unit, queries.astype(np.float32)

    # (similarity budget, tile columns): one tile of every shared row with
    # a partly full last block of queries; 2-D tiles whose last tile and
    # last block are partly full; one query row or one column per tile
    TILES = [(1 << 21, 1024), (8 * 70 * 16, 1024), (8 * 70 * 20, 1024),
             (8 * 16, 16), (8 * 9, 3), (8 * 64, 16), (8 * 70 * 15, 8),
             (8 * 7, 7), (8, 1)]

    @pytest.mark.parametrize("budget, cols", TILES)
    @pytest.mark.parametrize("k", [1, 6, 70, 90])
    def test_same_bits_and_neighbors(self, rng, monkeypatch, budget, cols, k):
        monkeypatch.setattr(interpolate, "_SIMS_BYTES", budget)
        monkeypatch.setattr(interpolate, "_TILE_COLS", cols)
        want_shared = rng.randn(70, 3).astype(np.float32)
        for have_unit, queries in self.cases(rng):
            got = np.empty((len(queries), 3))
            want = np.empty((len(queries), 3))
            _infer_rows(queries, have_unit, want_shared, k, got)
            reference_infer_rows(queries, have_unit, want_shared, k, want)
            assert got.tobytes() == want.tobytes()
            unit = rowmerge.unit_rows(queries)
            tile_cols = interpolate._tile_shape(len(have_unit))[1]
            neg, top = _nearest(unit, have_unit, min(k, 70), tile_cols,
                                np.empty(len(unit) * tile_cols))
            ref_neg, ref_top = reference_nearest(unit, have_unit, min(k, 70), tile_cols)
            assert np.array_equal(top, ref_top)
            # equal values; an exact zero may carry the other sign
            assert np.array_equal(neg, ref_neg)

    def test_same_bits_through_fuse(self, rng, monkeypatch):
        a = unit_rows([f"w{i}" for i in range(300)], 12, rng)
        b = unit_rows([f"w{i}" for i in range(100, 420)], 10, rng)
        infer_rows = interpolate._infer_rows
        for budget, cols in [(1 << 21, 1024), (8 * 7 * 5, 7), (8 * 200 * 16, 64)]:
            monkeypatch.setattr(interpolate, "_SIMS_BYTES", budget)
            monkeypatch.setattr(interpolate, "_TILE_COLS", cols)
            monkeypatch.setattr(interpolate, "_infer_rows", infer_rows)
            got = fuse(a, b, k=4, discount=False).matrix.data
            monkeypatch.setattr(interpolate, "_infer_rows", reference_infer_rows)
            want = fuse(a, b, k=4, discount=False).matrix.data
            assert bits_equal(got, want)


class TestWorkers:
    """Runs of tiles on 1, 2 or 3 threads give the same bits: a tile's
    shape does not depend on the worker count."""

    # (similarity budget, tile columns): one tile of every shared row and
    # many query blocks; 2-D tiles; one query block of every row
    @pytest.mark.parametrize("budget, cols", [(8 * 200 * 16, 1024), (8 * 7 * 5, 7),
                                              (1 << 21, 1024)])
    def test_same_bits_at_any_worker_count(self, rng, monkeypatch, budget, cols):
        a = unit_rows([f"w{i}" for i in range(300)], 12, rng)
        b = unit_rows([f"w{i}" for i in range(100, 420)], 10, rng)
        monkeypatch.setattr(interpolate, "_SIMS_BYTES", budget)
        monkeypatch.setattr(interpolate, "_TILE_COLS", cols)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            fused = fuse(a, b, k=4, out_dims=15)
            results.append((fused.matrix.data.tobytes(), fused.singular_values.tobytes()))
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("queries", [0, 1, 2])
    def test_fewer_tiles_than_workers(self, rng, monkeypatch, queries):
        have_unit = random_space(rng, 40, 4)
        want_shared = rng.randn(40, 3).astype(np.float32)
        vecs = rng.randn(queries, 4).astype(np.float32)
        monkeypatch.setattr(interpolate, "_SIMS_BYTES", 8 * 40)  # one query row a tile
        want = np.empty((queries, 3))
        reference_infer_rows(vecs, have_unit, want_shared, 5, want)
        monkeypatch.setattr(parallel, "worker_count", lambda: 3)
        got = np.empty((queries, 3))
        _infer_rows(vecs, have_unit, want_shared, 5, got)
        assert got.tobytes() == want.tobytes()


class TestSvdDiscount:
    def test_identity(self):
        feats, s = svd_discount(np.eye(2), 2)
        assert np.allclose(s, [1.0, 1.0])
        assert np.allclose(feats @ feats.T, np.eye(2), atol=1e-12)

    def test_rank_one(self):
        feats, s = svd_discount(np.array([[2.0, 0.0], [0.0, 0.0]]), 1)
        assert np.allclose(s, [2.0, 0.0])
        # sign convention pins the feature column to +sqrt(2)
        assert np.allclose(feats[:, 0], [np.sqrt(2.0), 0.0], atol=1e-12)

    def test_reconstruction_oracle(self, rng):
        m = rng.randn(20, 6)
        u, s, vt = svd_factors(m)
        assert np.linalg.norm(u @ np.diag(s) @ vt - m) < 1e-6 * np.linalg.norm(m)
        feats, _ = svd_discount(m, 6)
        gram = feats @ feats.T
        assert np.abs(gram - u @ np.diag(s) @ u.T).max() < 1e-6

    def test_spectrum_non_increasing_and_column_norms(self, rng):
        m = rng.randn(30, 8)
        feats, s = svd_discount(m, 8)
        assert np.all(np.diff(s) <= 1e-12)
        col_norms = np.sqrt((feats ** 2).sum(axis=0))
        assert np.allclose(col_norms, np.sqrt(s), atol=1e-6)

    def test_truncation_keeps_top_values(self, rng):
        m = rng.randn(30, 8)
        full, s = svd_discount(m, 8)
        cut, s_cut = svd_discount(m, 3)
        assert np.allclose(cut, full[:, :3])
        assert np.array_equal(s, s_cut)

    def test_out_dims_validation(self, rng):
        m = rng.randn(5, 3)
        with pytest.raises(ValueError):
            svd_discount(m, 0)
        with pytest.raises(ValueError):
            svd_discount(m, 4)

    def test_deterministic_signs(self, rng):
        m = rng.randn(12, 5)
        f1, _ = svd_discount(m, 5)
        f2, _ = svd_discount(m.copy(), 5)
        assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("shape, rank, dtype", [
        ((200, 12), 12, np.float64),
        ((500, 30), 30, np.float32),
        ((200, 12), 5, np.float64),   # rank-deficient: a product of rank 5
        ((300, 16), 8, np.float32),   # rank-deficient: duplicated columns
        ((10, 20), 10, np.float64),   # fewer rows than columns
    ])
    def test_gram_features_match_svd_oracle(self, rng, shape, rank, dtype):
        # measured over 200 seeds: feature error at most 3.3e-13 (float64)
        # and 1.5e-8 (float32) of sqrt(sigma_max), spectrum error 2.6e-15
        # of sigma_max; the bounds leave a factor of 30 or more
        r, c = shape
        for _ in range(5):
            if rank == c or r < c:
                m = rng.randn(r, c)
            elif dtype is np.float64:
                m = rng.randn(r, rank) @ rng.randn(rank, c)
            else:
                m = np.hstack([rng.randn(r, rank)] * (c // rank))
            m = m.astype(dtype)
            feats, s = svd_discount(m, min(r, c))
            u, s_svd, _vt = svd_factors(m)
            assert feats.dtype == dtype and feats.shape == (r, min(r, c))
            bound = 1e-11 if dtype is np.float64 else 1e-6
            want = u[:, :rank] * np.sqrt(s_svd[:rank])
            assert np.abs(feats[:, :rank] - want).max() <= bound * np.sqrt(s_svd[0])
            assert np.abs(s[:rank] - s_svd[:rank]).max() <= 1e-13 * s_svd[0]
            # null directions: singular value 0 and feature column 0
            assert not s[rank:].any() and not feats[:, rank:].any()
            assert s_svd[rank:].max(initial=0.0) < 1e-9 * s_svd[0]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_graded_spectrum_accuracy_scales_with_squared_condition(self, rng, dtype):
        # sigma_j geometric from 1 to 1e-6: column j of the features and
        # sigma_j lose about eps * (sigma_max / sigma_j)^2 in relative
        # accuracy, on top of the output dtype's rounding. Measured over
        # 200 seeds: at most 1.7 (features) and 2.5 (spectrum) times that.
        r, c = 200, 12
        eps = np.finfo(np.float64).eps
        for _ in range(5):
            q_rows, _ = np.linalg.qr(rng.randn(r, c))
            q_cols, _ = np.linalg.qr(rng.randn(c, c))
            m = ((q_rows * np.geomspace(1.0, 1e-6, c)) @ q_cols.T).astype(dtype)
            feats, s = svd_discount(m, c)
            u, s_svd, _vt = svd_factors(m)
            assert s_svd[-1] > 1e-7  # every direction is live
            lost = eps * (s_svd[0] / s_svd) ** 2
            feat_err = np.abs(feats - u * np.sqrt(s_svd)).max(axis=0) / np.sqrt(s_svd)
            assert np.all(feat_err <= 20 * (lost + np.finfo(dtype).eps))
            assert np.all(np.abs(s - s_svd) / s_svd <= 20 * (lost + eps))

    @pytest.mark.parametrize("block_rows", [1, 2, 10 ** 6])
    def test_sign_tie_goes_to_first_row_across_blocks(self, monkeypatch, block_rows):
        # |u| peaks at rows 1 and 2 of the first column, with opposite signs
        m = np.array([[0.0, 0.5], [-2.0, 0.0], [2.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        monkeypatch.setattr(interpolate, "_GRAM_BYTES", 8 * 2 * block_rows)
        feats, _s = svd_discount(m, 2)
        u, s, _vt = svd_factors(m)
        assert feats[1, 0] > 0 and feats[2, 0] == -feats[1, 0]
        assert np.abs(feats - u * np.sqrt(s)).max() < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_convergence_failure(self, bad):
        m = np.eye(5, 3)
        m[0, 0] = bad
        with pytest.raises(ConvergenceFailure):
            svd_discount(m, 2)

    def test_float32_peak_memory_is_output_plus_block_budget(self, rng):
        m = rng.randn(20000, 40).astype(np.float32)
        tracemalloc.start()
        try:
            feats, _s = svd_discount(m, 40)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert feats.dtype == np.float32
        # the old path held a float64 copy of m, U and U·Σ^1/2: over 5x
        assert peak < 2 * feats.nbytes + 4 * interpolate._GRAM_BYTES


class TestFuse:
    def test_identical_vocab_concatenation(self, rng):
        a = unit_rows(["x", "y", "z"], 3, rng)
        b = unit_rows(["x", "y", "z"], 4, rng)
        result = fuse(a, b, k=2, discount=False)
        assert result.matrix.dims == 7
        assert result.matrix.labels == ["x", "y", "z"]
        assert np.array_equal(result.matrix.data[:, :3], a.data)
        assert np.array_equal(result.matrix.data[:, 3:], b.data)
        assert len(result.singular_values) == 0

    def test_concat_preserves_cosines_of_self_fusion(self, rng):
        a = unit_rows([f"w{i}" for i in range(10)], 5, rng)
        result = fuse(a, a, k=2, discount=False)
        d = result.matrix.data.astype(np.float64)
        raw = a.data.astype(np.float64)
        for i, j in [(0, 1), (2, 9), (4, 5)]:
            cos_raw = raw[i] @ raw[j] / np.sqrt((raw[i] @ raw[i]) * (raw[j] @ raw[j]))
            cos_cat = d[i] @ d[j] / np.sqrt((d[i] @ d[i]) * (d[j] @ d[j]))
            assert abs(cos_raw - cos_cat) < 1e-12

    def test_self_fusion_discount_matches_gram_oracle(self, rng):
        a = unit_rows([f"w{i}" for i in range(30)], 5, rng)
        result = fuse(a, a, k=3, out_dims=10, discount=True)
        concat = np.hstack([a.data, a.data]).astype(np.float64)
        u, s, _vt = svd_factors(concat)
        gram = result.matrix.data.astype(np.float64) @ \
            result.matrix.data.astype(np.float64).T
        assert np.abs(gram - u @ np.diag(s) @ u.T).max() < 1e-6
        # duplicated features halve the spectrum's support and the top
        # direction is discounted from sigma to sqrt(sigma)
        assert (s > 1e-9).sum() == 5
        top_feature_norm = np.sqrt((result.matrix.data[:, 0].astype(np.float64) ** 2).sum())
        assert abs(top_feature_norm - np.sqrt(s[0])) < 1e-6

    def test_union_ordering_and_inference(self, rng):
        a = unit_rows(["s1", "xa", "s2"], 3, rng)
        b = unit_rows(["s2", "s1", "xb"], 4, rng)
        result = fuse(a, b, k=2, discount=False)
        assert result.matrix.labels == ["s1", "s2", "xa", "xb"]
        row_xa = result.matrix.data[2]
        assert np.array_equal(row_xa[:3], a.data[1])
        assert np.isfinite(row_xa).all() and np.abs(row_xa[3:]).sum() > 0

    def test_requested_widths(self, rng):
        a = unit_rows([f"w{i}" for i in range(700)], 300, rng)
        b = unit_rows([f"w{i}" for i in range(700)], 300, rng)
        for width in (600, 450, 300):
            result = fuse(a, b, k=5, out_dims=width, discount=True)
            assert result.matrix.dims == width

    def test_inferred_rows_match_row_oracle(self, rng):
        a = unit_rows([f"w{i}" for i in range(80)], 6, rng)
        b = unit_rows([f"w{i}" for i in range(30, 120)], 5, rng)
        result = fuse(a, b, k=4, discount=False)
        idx = build_overlap(a, b)
        rows = {lab: i for i, lab in enumerate(result.matrix.labels)}
        for lab in idx.only_a:
            _top, want = oracle_infer(a.data[a.label_index()[lab]], idx.a_shared_unit,
                                      b.data[idx.b_shared_rows], 4)
            assert np.abs(result.matrix.data[rows[lab], 6:] - want).max() < 1e-6
        for lab in idx.only_b:
            _top, want = oracle_infer(b.data[b.label_index()[lab]], idx.b_shared_unit,
                                      a.data[idx.a_shared_rows], 4)
            assert np.abs(result.matrix.data[rows[lab], :6] - want).max() < 1e-6

    def test_permutation_equivariance(self, rng):
        a = unit_rows([f"w{i}" for i in range(50)], 6, rng)
        b = unit_rows([f"w{i}" for i in range(20, 75)], 5, rng)
        pa, pb = rng.permutation(len(a)), rng.permutation(len(b))
        base = fuse(a, b, k=3, discount=False).matrix
        perm = fuse(a.take(pa), b.take(pb), k=3, discount=False).matrix
        assert sorted(perm.labels) == sorted(base.labels)
        rows = perm.label_index()
        for i, lab in enumerate(base.labels):
            assert np.abs(perm.data[rows[lab]] - base.data[i]).max() < 1e-6

    def test_k_below_one_rejected(self, rng):
        a = unit_rows(["s", "xa"], 3, rng)
        b = unit_rows(["s", "xb"], 3, rng)
        for k in (0, -1):
            with pytest.raises(ValueError):
                fuse(a, b, k=k)

    def test_two_runs_byte_equal(self, rng, monkeypatch):
        a = unit_rows([f"w{i}" for i in range(300)], 12, rng)
        b = unit_rows([f"w{i}" for i in range(100, 420)], 10, rng)
        for cols in (1024, 7):  # one column tile, then 2-D tiles
            monkeypatch.setattr(interpolate, "_SIMS_BYTES", 8 * 7 * 5)
            monkeypatch.setattr(interpolate, "_TILE_COLS", cols)
            first, second = (fuse(a, b, k=4, out_dims=15) for _ in range(2))
            assert first.matrix.data.dtype == np.float32
            assert first.matrix.data.tobytes() == second.matrix.data.tobytes()
            assert first.singular_values.tobytes() == second.singular_values.tobytes()

    def test_disjoint_vocabularies_rejected(self, rng):
        a = unit_rows(["only_a"], 3, rng)
        b = unit_rows(["only_b"], 3, rng)
        with pytest.raises(EmptyOverlap):
            fuse(a, b, k=1)
