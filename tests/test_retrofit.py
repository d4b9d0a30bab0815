import dataclasses
import importlib
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import Edge, bits_equal, edge_table, make_matrix
from vecfuse import parallel
from vecfuse.errors import DimensionMismatch
from vecfuse.kgraph import AssociationMatrix, build_association
from vecfuse.matrixio import LabeledMatrix
from vecfuse.retrofit import RetrofitProblem, assemble_problem, retrofit, retrofit_step
from vecfuse.rowmerge import l2_normalize_rows, normalize_rows_inplace

# the package attribute `vecfuse.retrofit` is the function, not the module
retrofit_module = importlib.import_module("vecfuse.retrofit")


def unit(dims, axis):
    v = np.zeros(dims, dtype=np.float32)
    v[axis] = 1.0
    return v


def normalized_random(labels, dims, rng):
    m = make_matrix(labels, rng.randn(len(labels), dims).astype(np.float32))
    return l2_normalize_rows(m)


class TestAssembleProblem:
    def test_union_construction(self):
        emb = make_matrix(["/c/en/a", "/c/en/b"], [unit(3, 0), unit(3, 1)])
        assoc = build_association(edge_table([Edge("/c/en/b", "/c/en/c")]))
        prob = assemble_problem(emb, assoc)
        assert prob.vocab == ["/c/en/a", "/c/en/b", "/c/en/c"]
        assert list(prob.anchored) == [True, True, False]
        assert np.all(prob.w0[2] == 0.0)

    def test_vocab_ordering(self):
        """Embedding terms first, in their order, then graph-only terms in
        code point order; an embedding term the graph lacks keeps a bare
        unit self-loop."""
        emb = make_matrix(["/c/en/zeta", "/c/en/beta", "/c/en/isolated"],
                          [unit(3, 0), unit(3, 1), unit(3, 2)])
        assoc = build_association(edge_table([
            Edge("/c/en/zeta", "/c/en/alpha"), Edge("/c/en/beta", "/c/fr/été"),
            Edge("/c/en/beta", "/c/fr/zèbre")]))
        prob = assemble_problem(emb, assoc)
        assert prob.vocab == ["/c/en/zeta", "/c/en/beta", "/c/en/isolated",
                              "/c/en/alpha", "/c/fr/zèbre", "/c/fr/été"]
        iso = prob.vocab.index("/c/en/isolated")
        lo, hi = prob.indptr[iso], prob.indptr[iso + 1]
        assert prob.indices[lo:hi].tolist() == [iso] and prob.data[lo:hi].tolist() == [1.0]

    def test_shared_term_is_single_row(self):
        emb = make_matrix(["/c/en/b"], [unit(2, 0)])
        assoc = build_association(edge_table([Edge("/c/en/b", "/c/en/c")]))
        prob = assemble_problem(emb, assoc)
        assert prob.vocab == ["/c/en/b", "/c/en/c"]
        assert prob.size == 2

    def test_empty_graph_gives_identity(self):
        emb = make_matrix(["/c/en/a", "/c/en/b"], np.eye(2))
        assoc = build_association(edge_table([]))
        prob = assemble_problem(emb, assoc)
        s = np.zeros((2, 2))
        for i in range(2):
            lo, hi = prob.indptr[i], prob.indptr[i + 1]
            s[i, prob.indices[lo:hi]] = prob.data[lo:hi]
        assert np.array_equal(s, np.eye(2))

    def test_empty_embeddings_rejected(self):
        empty = LabeledMatrix(labels=[], data=np.zeros((0, 3), np.float32))
        assoc = build_association(edge_table([Edge("/c/en/a", "/c/en/b")]))
        with pytest.raises(DimensionMismatch):
            assemble_problem(empty, assoc)

    def test_self_loops_switch_strips_diagonal(self):
        emb = make_matrix(["/c/en/a"], [unit(2, 0)])
        assoc = build_association(edge_table([Edge("/c/en/a", "/c/en/b")]))
        prob = assemble_problem(emb, assoc, self_loops=False)
        for i in range(prob.size):
            lo, hi = prob.indptr[i], prob.indptr[i + 1]
            assert i not in prob.indices[lo:hi]


class TestRetrofitStep:
    def test_anchored_no_edge_term_is_fixed_point(self):
        emb = make_matrix(["/c/en/a"], [unit(4, 0)])
        assoc = build_association(edge_table([]))
        prob = assemble_problem(emb, assoc)
        out = retrofit_step(prob, prob.w0)
        assert bits_equal(out, prob.w0)

    def test_oov_single_neighbor_copies_vector(self):
        v = unit(4, 2)
        emb = make_matrix(["/c/en/i"], [v])
        assoc = build_association(edge_table([Edge("/c/en/j", "/c/en/i")]))
        prob = assemble_problem(emb, assoc)
        w = prob.w0.copy()
        j = prob.vocab.index("/c/en/j")
        # out-of-vocab row j starts at zero; S(j,i)=1 plus the self-loop on
        # its zero state leaves exactly the neighbor's vector
        out = retrofit_step(prob, w)
        assert np.allclose(out[j], v, atol=1e-7)

    def test_oov_two_orthogonal_neighbors(self):
        u, v = unit(4, 0), unit(4, 1)
        emb = make_matrix(["/c/en/u", "/c/en/v"], [u, v])
        assoc = build_association(edge_table([Edge("/c/en/j", "/c/en/u"),
                                              Edge("/c/en/j", "/c/en/v")]))
        prob = assemble_problem(emb, assoc)
        j = prob.vocab.index("/c/en/j")
        out = retrofit_step(prob, prob.w0)
        assert np.allclose(out[j], (u + v) / np.sqrt(2.0), atol=1e-7)

    def test_rows_zero_or_unit(self, rng):
        emb = normalized_random([f"/c/en/t{i}" for i in range(12)], 6, rng)
        edges = [Edge(f"/c/en/t{i}", f"/c/en/g{i % 4}") for i in range(12)]
        prob = assemble_problem(emb, build_association(edge_table(edges)))
        w = prob.w0
        for _ in range(5):
            w = retrofit_step(prob, w)
            norms = np.sqrt((w.astype(np.float64) ** 2).sum(axis=1))
            assert np.all((norms == 0.0) | (np.abs(norms - 1.0) < 1e-6))

    def test_shape_check(self):
        emb = make_matrix(["/c/en/a"], [unit(2, 0)])
        prob = assemble_problem(emb, build_association(edge_table([])))
        with pytest.raises(DimensionMismatch):
            retrofit_step(prob, np.zeros((3, 2), dtype=np.float32))


class TestRetrofit:
    def test_empty_graph_fixed_point_bitwise(self, rng):
        emb = normalized_random([f"/c/en/w{i}" for i in range(15)], 7, rng)
        prob = assemble_problem(emb, build_association(edge_table([])))
        expected = l2_normalize_rows(emb)
        for iterations in (1, 10):
            out = retrofit(prob, iterations)
            assert out.labels == emb.labels
            assert bits_equal(out.data, expected.data)

    def test_bilingual_neighbor_convergence(self, rng):
        emb = normalized_random(["/c/en/cat"], 5, rng)
        assoc = build_association(edge_table([Edge("/c/fr/chat", "/c/en/cat")]))
        out = retrofit(assemble_problem(emb, assoc), 10)
        idx = {lab: i for i, lab in enumerate(out.labels)}
        u = out.data[idx["/c/en/cat"]].astype(np.float64)
        v = out.data[idx["/c/fr/chat"]].astype(np.float64)
        cos = (u @ v) / np.sqrt((u @ u) * (v @ v))
        assert cos >= 1 - 1e-9

    def test_path_graph_matches_long_run_oracle(self):
        # 5-node path a-b-c-d-e, endpoints anchored at orthogonal vectors;
        # 10 steps must sit near the converged state of the same update.
        emb = make_matrix(["/c/en/a", "/c/en/e"], [unit(6, 0), unit(6, 1)])
        assertions = [Edge("/c/en/a", "/c/en/b"), Edge("/c/en/b", "/c/en/c"),
                      Edge("/c/en/c", "/c/en/d"), Edge("/c/en/d", "/c/en/e")]
        prob = assemble_problem(emb, build_association(edge_table(assertions)))
        w10 = retrofit(prob, 10)
        w_converged = retrofit(prob, 1000)
        assert w10.labels == w_converged.labels
        diff = np.abs(w10.data.astype(np.float64)
                      - w_converged.data.astype(np.float64)).max()
        assert diff < 0.05
        snapshot = {
            "/c/en/a": (0.972985, 0.230868),
            "/c/en/b": (0.882224, 0.470830),
            "/c/en/c": (0.707107, 0.707107),
            "/c/en/d": (0.470830, 0.882224),
            "/c/en/e": (0.230868, 0.972985),
        }
        idx = {lab: i for i, lab in enumerate(w10.labels)}
        for lab, head in snapshot.items():
            assert np.allclose(w10.data[idx[lab]][:2], head, atol=1e-5)
            assert np.allclose(w10.data[idx[lab]][2:], 0.0)

    def test_iterations_validated(self):
        emb = make_matrix(["/c/en/a"], [unit(2, 0)])
        prob = assemble_problem(emb, build_association(edge_table([])))
        with pytest.raises(ValueError):
            retrofit(prob, 0)


class TestPermutationEquivariance:
    def test_bitwise(self, rng):
        labels = [f"/c/en/t{i:02d}" for i in range(30)]
        emb = normalized_random(labels, 8, rng)
        terms = labels + [f"/c/fr/g{i:02d}" for i in range(20)]
        edges = []
        for _ in range(120):
            i, j = rng.randint(0, len(terms), 2)
            if i != j:
                edges.append(Edge(terms[i], terms[j], float(rng.rand() + 0.1)))
        out = retrofit(assemble_problem(
            emb, build_association(edge_table(edges))), 10)

        perm = rng.permutation(len(labels))
        emb_p = LabeledMatrix([emb.labels[i] for i in perm], emb.data[perm])
        out_p = retrofit(assemble_problem(
            emb_p, build_association(edge_table(edges))), 10)

        rows = {lab: out.data[i] for i, lab in enumerate(out.labels)}
        rows_p = {lab: out_p.data[i] for i, lab in enumerate(out_p.labels)}
        assert set(rows) == set(rows_p)
        for lab in rows:
            assert bits_equal(rows[lab], rows_p[lab])


class TestOscillationControl:
    def build_two_node(self, self_loops):
        # one anchored bystander plus a mutually-linked out-of-vocab pair
        emb = make_matrix(["/c/en/anchor"], [unit(4, 3)])
        assoc = build_association(edge_table([Edge("/c/en/p", "/c/en/q")]))
        return assemble_problem(emb, assoc, self_loops=self_loops)

    def seeded_displacements(self, prob, steps=10):
        w = prob.w0.copy()
        w[prob.vocab.index("/c/en/p")] = unit(4, 0)  # asymmetric seed
        displacements = []
        for _ in range(steps):
            w_next = retrofit_step(prob, w)
            delta = w_next.astype(np.float64) - w.astype(np.float64)
            displacements.append(np.sqrt((delta ** 2).sum(axis=1)).max())
            w = w_next
        return displacements

    def test_self_loops_damp_oscillation(self):
        disp = self.seeded_displacements(self.build_two_node(self_loops=True))
        assert all(disp[i + 1] <= disp[i] + 1e-12 for i in range(1, len(disp) - 1))
        assert all(d < 0.1 for d in disp[2:])

    def test_without_self_loops_oscillation_persists(self):
        disp = self.seeded_displacements(self.build_two_node(self_loops=False))
        assert all(d >= 0.5 for d in disp)


# The three-sort construction that the single sort replaced, kept as a
# bitwise reference: build_association sorted without and then with the
# self-loops, by label rank over a vocabulary that could list the
# embedding terms first, and assemble_problem stripped the diagonal, added
# it back and sorted a third time.

def reference_csr(rows, cols, vals, vocab):
    m = len(vocab)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    ranks = np.empty(m, dtype=np.int64)
    ranks[np.argsort(np.asarray(vocab, dtype=object), kind="stable")] = np.arange(m)
    order = np.lexsort((ranks[cols], rows)) if len(rows) else np.zeros(0, np.int64)
    rows, cols, vals = rows[order], cols[order], vals[order]
    if len(rows):
        boundary = np.ones(len(rows), dtype=bool)
        boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(boundary)
        vals = np.add.reduceat(vals, starts)
        rows, cols = rows[starts], cols[starts]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    return np.cumsum(indptr), cols, vals


def reference_association(assertions, extra_vocab=()):
    assertions = [a for a in assertions if a.start != a.end]
    vocab, index = [], {}
    for term in extra_vocab:
        if term not in index:
            index[term] = len(vocab)
            vocab.append(term)
    graph_terms = {a.start for a in assertions} | {a.end for a in assertions}
    for term in sorted(t for t in graph_terms if t not in index):
        index[term] = len(vocab)
        vocab.append(term)
    m = len(vocab)
    rows, cols, vals = [], [], []
    for a in assertions:
        i, j = index[a.start], index[a.end]
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((a.weight, a.weight))
    indptr, indices, data = reference_csr(rows, cols, vals, vocab)
    if len(data):
        nonempty = indptr[:-1] < indptr[1:]
        sums = np.add.reduceat(data, indptr[:-1][nonempty])
        data = data / np.repeat(sums, np.diff(indptr)[nonempty])
    diag = np.arange(m, dtype=np.int64)
    indptr, indices, data = reference_csr(
        np.concatenate([np.repeat(np.arange(m), np.diff(indptr)), diag]),
        np.concatenate([indices, diag]), np.concatenate([data, np.ones(m)]), vocab)
    return {"vocab": vocab, "indptr": indptr, "indices": indices, "data": data}


def reference_problem(embeddings, assoc, self_loops=True):
    emb_index = embeddings.label_index()
    vocab = list(embeddings.labels)
    vocab.extend(sorted(t for t in assoc.vocab if t not in emb_index))
    position = {term: i for i, term in enumerate(vocab)}
    m = len(vocab)
    remap = np.array([position[t] for t in assoc.vocab], dtype=np.int64) \
        if assoc.vocab else np.zeros(0, np.int64)
    src_rows = np.repeat(np.arange(assoc.size), np.diff(assoc.indptr))
    rows = remap[src_rows] if len(src_rows) else src_rows
    cols = remap[assoc.indices] if len(assoc.indices) else assoc.indices
    keep = rows != cols
    rows, cols, vals = rows[keep], cols[keep], assoc.data[keep]
    if self_loops:
        diag = np.arange(m, dtype=np.int64)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
        vals = np.concatenate([vals, np.ones(m)])
    indptr, indices, data = reference_csr(rows, cols, vals, vocab)
    return {"vocab": vocab, "indptr": indptr, "indices": indices, "data": data}


def assert_same_bits(got, want):
    assert got.vocab == want["vocab"]
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), want[name]
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def random_graph(seed):
    """Edges with duplicates, self-edges and hubs of 9+ neighbors, plus an
    embedding matrix that shares part of the graph's vocabulary. Accented,
    Cyrillic and CJK terms among them check that code point order is the
    label order."""
    rng = np.random.default_rng(seed)
    pool = [f"/c/{'fr' if i % 7 == 0 else 'en'}/w{i}" for i in range(40)]
    pool += ["/c/fr/été", "/c/fr/etre", "/c/fr/zèbre", "/c/en/café", "/c/en/cafe",
             "/c/ru/кот", "/c/ru/кошка", "/c/ru/Кот", "/c/zh/猫", "/c/ja/ねこ", "/c/zh/狗"]
    pairs = [tuple(rng.integers(0, len(pool), 2)) for _ in range(60)]
    for hub in rng.choice(len(pool), 2, replace=False):
        pairs += [(hub, j) for j in rng.choice(len(pool), 25, replace=False)]
    pairs += [pairs[i] for i in rng.integers(0, len(pairs), 20)]  # duplicates
    edges = [Edge(pool[i], pool[j], float(w))
             for (i, j), w in zip(pairs, rng.uniform(0.1, 3.0, len(pairs)))]
    labels = [pool[i] for i in rng.choice(len(pool), 15, replace=False)]
    labels += [f"/c/en/emb{i}" for i in range(5)]  # absent from the graph
    labels = [labels[i] for i in rng.permutation(len(labels))]
    emb = make_matrix(labels, rng.standard_normal((len(labels), 3)))
    return edges, emb


class TestSingleSortMatchesThreeSorts:
    """build_association's vocabulary is sorted, so its column order is the
    label order the reference sorts by; and the problem built from it has
    the bits of one built from the old embedding-first association."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_bitwise(self, seed):
        edges, emb = random_graph(seed)
        assoc = build_association(edge_table(edges))
        assert_same_bits(assoc, reference_association(edges))
        assert np.diff(assoc.indptr).max() >= 10  # a diagonal and 9+ neighbors
        embedding_first = AssociationMatrix(
            **reference_association(edges, extra_vocab=emb.labels))
        for self_loops in (True, False):
            problem = assemble_problem(emb, assoc, self_loops=self_loops)
            for source in (assoc, embedding_first):
                assert_same_bits(problem,
                                 reference_problem(emb, source, self_loops=self_loops))

    @pytest.mark.parametrize("extra", [False, True], ids=["empty_vocab", "isolated_only"])
    @pytest.mark.parametrize("self_loops", [True, False])
    def test_empty_edge_list(self, extra, self_loops):
        _edges, emb = random_graph(0)
        assoc = build_association(edge_table([]))
        assert assoc.size == 0
        assert_same_bits(assoc, reference_association([]))
        old = AssociationMatrix(
            **reference_association([], extra_vocab=emb.labels if extra else ()))
        assert_same_bits(assemble_problem(emb, assoc, self_loops=self_loops),
                         reference_problem(emb, old, self_loops=self_loops))


# The whole-matrix step that the row-blocked step replaced, kept as a
# bitwise reference: one nnz x dims product, one reduceat, one normalize.

def reference_step(problem, w):
    w64 = np.asarray(w, dtype=np.float64)
    out = np.zeros((problem.size, problem.dims))
    if len(problem.data):
        prod = problem.data[:, None] * w64[problem.indices]
        nonempty = problem.indptr[:-1] < problem.indptr[1:]
        starts = problem.indptr[:-1][nonempty]
        out[nonempty] = np.add.reduceat(prod, starts, axis=0)
    anchored = problem.anchored
    out[anchored] += problem.w0.astype(np.float64)[anchored]
    out[anchored] *= 0.5
    normalize_rows_inplace(out)
    return out.astype(np.float32)


def random_state(problem, seed):
    """A state with graph-only rows already filled in, as after a step."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((problem.size, problem.dims)).astype(np.float32)


# per-entry budgets: one row per block, a few rows, the whole matrix
BLOCK_ENTRIES = [1, 7, 10 ** 9]


class TestBlockedStepMatchesWholeMatrix:
    def check(self, problem, w, monkeypatch, budgets=BLOCK_ENTRIES):
        want = reference_step(problem, w)
        before = w.copy()
        for entries, workers in itertools.product(budgets, (1, 2, 3)):
            monkeypatch.setattr(retrofit_module, "_PROD_BYTES", 8 * problem.dims * entries)
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            got = retrofit_step(problem, w)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes(), (entries, workers)
            assert got is not w and w.tobytes() == before.tobytes()
            # the step swept blocks of the patched budget, from a plan built
            # for that budget
            assert problem.sweep_plan(entries) is problem._plans[entries]
            blocks = problem._plans[entries].blocks
            assert max(len(b.rows) for b in blocks) == min(entries, max(
                int(problem.anchored.sum()), int((~problem.anchored).sum())))
            assert sorted(np.concatenate([b.rows for b in blocks])) == \
                list(range(problem.size))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("self_loops", [True, False])
    def test_random_graphs(self, seed, self_loops, monkeypatch):
        edges, emb = random_graph(seed)
        problem = assemble_problem(emb, build_association(edge_table(edges)),
                                   self_loops=self_loops)
        assert np.diff(problem.indptr).max() > 7  # a hub longer than the budget
        if not self_loops:
            assert (np.diff(problem.indptr) == 0).any()  # empty rows
        self.check(problem, problem.w0, monkeypatch)
        self.check(problem, random_state(problem, seed), monkeypatch)

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_empty_edge_list(self, self_loops, monkeypatch):
        _edges, emb = random_graph(0)
        problem = assemble_problem(emb, build_association(edge_table([])),
                                   self_loops=self_loops)
        assert len(problem.data) == (len(emb) if self_loops else 0)
        self.check(problem, random_state(problem, 1), monkeypatch)

    def test_all_rows_graph_only(self, monkeypatch):
        edges, emb = random_graph(3)
        problem = assemble_problem(emb, build_association(edge_table(edges)))
        problem = dataclasses.replace(problem, anchored=np.zeros(problem.size, dtype=bool))
        self.check(problem, random_state(problem, 3), monkeypatch)


    def test_negative_zero_sums_keep_their_sign(self, monkeypatch):
        # row 0 (graph-only) sums products that are all -0.0; row 1 sums
        # -0.0 and +0.0, which gives +0.0; rows 2 and 3 hold the state
        indptr = np.array([0, 2, 4, 5, 6])
        problem = RetrofitProblem(
            vocab=list("abcd"), indptr=indptr, indices=np.array([2, 3, 2, 3, 2, 3]),
            data=np.array([0.5, 2.0, 1.0, -1.0, 1.0, 1.0]),
            w0=np.zeros((4, 3), dtype=np.float32), anchored=np.zeros(4, dtype=bool))
        w = np.array([[1, 1, 1], [1, 1, 1], [-0.0, -0.0, 5], [-0.0, -0.0, -5]],
                     dtype=np.float32)
        self.check(problem, w, monkeypatch, budgets=[1, 2, 3, 10 ** 9])
        out = retrofit_step(problem, w)
        assert np.signbit(out[0, :2]).all() and not np.signbit(out[1, :2]).any()

    def test_hub_longer_than_a_block(self, monkeypatch):
        size, dims = 40, 5
        rng = np.random.default_rng(4)
        counts = np.ones(size, dtype=np.int64)
        counts[17] = size  # one row joined to every row
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = np.concatenate([np.arange(size) if c == size else [i]
                                  for i, c in enumerate(counts)])
        problem = RetrofitProblem(
            vocab=list(range(size)), indptr=indptr, indices=indices,
            data=rng.uniform(0.1, 1.0, len(indices)),
            w0=rng.standard_normal((size, dims)).astype(np.float32),
            anchored=rng.random(size) < 0.5)
        self.check(problem, random_state(problem, 4), monkeypatch,
                   budgets=[1, 2, 7, size - 1, 10 ** 9])

    @pytest.mark.parametrize("seed", range(3))
    def test_empty_rows_without_self_loops(self, seed, monkeypatch):
        edges, emb = random_graph(seed)
        problem = assemble_problem(emb, build_association(edge_table(edges)),
                                   self_loops=False)
        empty = np.flatnonzero(np.diff(problem.indptr) == 0)
        assert len(empty) >= 2
        # empty rows of both kinds: anchored ones keep their seed's
        # direction, unanchored ones stay zero
        anchored = problem.anchored.copy()
        anchored[empty[::2]] = False
        problem = dataclasses.replace(problem, anchored=anchored)
        self.check(problem, random_state(problem, seed), monkeypatch,
                   budgets=[1, 3, 7, 10 ** 9])

    @pytest.mark.parametrize("seed", range(3))
    def test_anchored_and_unanchored_across_block_edges(self, seed, monkeypatch):
        # anchored and unanchored rows interleaved, with equal and unequal
        # entry counts, against every block size from one row to all rows
        problem = dense_graph_problem(30, 4, degree=3, seed=seed)
        counts = np.random.default_rng(seed).integers(0, 6, problem.size)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        problem = dataclasses.replace(
            problem, indptr=indptr,
            indices=np.random.default_rng(seed).integers(0, problem.size, indptr[-1]),
            data=np.random.default_rng(seed).uniform(0.1, 1.0, indptr[-1]),
            anchored=np.arange(problem.size) % 3 != 0)
        self.check(problem, random_state(problem, seed), monkeypatch,
                   budgets=list(range(1, problem.size + 2)))


def dense_graph_problem(size, dims, degree, seed):
    """A problem whose nnz is about `degree` times its vocabulary."""
    rng = np.random.default_rng(seed)
    indptr = np.arange(0, size * degree + 1, degree, dtype=np.int64)
    indices = np.sort(rng.integers(0, size, (size, degree)), axis=1).ravel()
    data = rng.uniform(0.1, 1.0, size * degree)
    w0 = rng.standard_normal((size, dims)).astype(np.float32)
    anchored = rng.random(size) < 0.5
    w0[~anchored] = 0.0
    return RetrofitProblem(vocab=list(range(size)), indptr=indptr, indices=indices,
                           data=data, w0=w0, anchored=anchored)


def step_peak(problem, w):
    """Peak bytes traced during one step, from every thread."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        retrofit_step(problem, w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_memory_grows_with_vocabulary_not_edges(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    size, dims = 500, 64
    problem = dense_graph_problem(size, dims, degree=50, seed=0)
    w = random_state(problem, 0)
    peak = step_peak(problem, w)
    # the whole-matrix product alone would be 8 * nnz * dims = 12.8 MB
    assert peak < 12 * size * dims + 4 * retrofit_module._PROD_BYTES


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("block_rows", [None, 64])
def test_step_memory_per_worker(monkeypatch, workers, block_rows):
    # each worker holds buffers of the whole budget; the plan, 16 bytes an
    # entry, is built before the step is measured
    size, dims = 500, 64
    if block_rows is not None:  # blocks for every worker
        monkeypatch.setattr(retrofit_module, "_PROD_BYTES", 8 * dims * block_rows)
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    problem = dense_graph_problem(size, dims, degree=50, seed=0)
    w = random_state(problem, 0)
    problem.sweep_plan(retrofit_module._PROD_BYTES // (8 * dims))
    peak = step_peak(problem, w)
    assert peak < 12 * size * dims + workers * 4 * retrofit_module._PROD_BYTES


class TestWorkers:
    """Runs of row blocks on 1, 2 or 3 threads give the same bits: a
    block's shape does not depend on the worker count."""

    @pytest.mark.parametrize("block_rows", [1, 7, 64, 10 ** 9])
    def test_retrofit_same_bits_at_any_worker_count(self, monkeypatch, block_rows):
        size, dims = 300, 8
        monkeypatch.setattr(retrofit_module, "_PROD_BYTES", 8 * dims * block_rows)
        problem = dense_graph_problem(size, dims, degree=6, seed=2)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            results.append(retrofit(problem, iterations=4).data.tobytes())
        assert results[1] == results[0] and results[2] == results[0]

    def test_stress_with_short_switch_interval(self, monkeypatch):
        # more workers than cores, switching threads every few bytecodes:
        # a lost or misplaced row write changes the bits
        monkeypatch.setattr(retrofit_module, "_PROD_BYTES", 8 * 8 * 3)
        problem = dense_graph_problem(400, 8, degree=5, seed=7)
        w = random_state(problem, 7)
        want = reference_step(problem, w)
        monkeypatch.setattr(parallel, "worker_count", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert retrofit_step(problem, w).tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_runs_balance_entries_gathered(self, monkeypatch):
        problem = dense_graph_problem(300, 8, degree=6, seed=2)
        plan = problem.sweep_plan(16)
        assert plan.starts[0] == 0 and plan.starts[-1] == len(plan.indices)
        assert np.diff(plan.starts).tolist() == [sum(b.widths) for b in plan.blocks]
        runs = []
        monkeypatch.setattr(retrofit_module, "_PROD_BYTES", 8 * 8 * 16)
        monkeypatch.setattr(retrofit_module, "run_split", lambda part, offsets: runs.append(
            offsets) or parallel.run_split(part, offsets))
        retrofit_step(problem, problem.w0)
        assert runs == [plan.starts]
