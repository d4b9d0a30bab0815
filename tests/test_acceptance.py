"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion. Criterion 11 needs multi-gigabyte third-party downloads
and only runs when the VECFUSE_* environment variables point at them.
"""

import math
import os
import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import Edge, bits_equal, edge_table, make_matrix
from test_evaluation import brute_force_spearman, reference_similarity
from test_interpolate import svd_factors
from test_labels import FUZZ_ALPHABET, random_strings
from vecfuse.errors import EmptyAfterNormalization
from vecfuse.evaluation import GoldPair, MatrixLookup, evaluate, round_robin_split, spearman
from vecfuse.interpolate import svd_discount
from vecfuse.kgraph import build_association
from vecfuse.labels import Standardizer, standardize
from vecfuse.matrixio import (
    LabeledMatrix,
    read_native,
    read_text_embeddings,
    read_word2vec_binary,
    write_native,
)
from vecfuse.retrofit import assemble_problem, retrofit, retrofit_step
from vecfuse.rowmerge import l2_normalize_rows, merge_standardized


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS  {description} "
          f"({elapsed:.2f}s < {budget_seconds}s)")
    assert elapsed < budget_seconds, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_01_spearman_oracle_equivalence():
    with criterion(1, "Spearman matches brute-force oracle", 5):
        rng = np.random.RandomState(51)
        checked = 0
        while checked < 500:
            n = rng.randint(2, 13)
            gold = rng.randint(0, 4, size=n).astype(float)      # engineered ties
            predicted = (rng.randn(n) * 2).round(0)             # more ties
            if np.all(gold == gold[0]) or np.all(predicted == predicted[0]):
                continue
            got = spearman(gold, predicted)
            want = brute_force_spearman(gold, predicted)
            assert abs(got - want) < 1e-12
            checked += 1
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
        assert spearman([1, 2, 3], [30, 20, 10]) == -1.0
        tied = spearman([1, 2, 3, 4], [10, 10, 20, 30])
        assert tied == brute_force_spearman([1, 2, 3, 4], [10, 10, 20, 30])
        assert abs(tied - 0.9486832980505138) < 1e-12


def test_criterion_02_retrofit_fixed_point():
    with criterion(2, "empty-graph retrofit is a bitwise fixed point", 1):
        rng = np.random.RandomState(52)
        raw = make_matrix([f"/c/en/w{i}" for i in range(40)],
                          rng.randn(40, 9).astype(np.float32))
        w0 = l2_normalize_rows(raw)
        problem = assemble_problem(w0, build_association(edge_table([])))
        expected = l2_normalize_rows(w0)
        for iterations in (1, 10):
            out = retrofit(problem, iterations)
            assert out.labels == w0.labels
            assert bits_equal(out.data, expected.data)


def test_criterion_03_vocabulary_expansion():
    with criterion(3, "graph-only term reaches its anchored neighbor", 1):
        rng = np.random.RandomState(53)
        emb = l2_normalize_rows(make_matrix(["/c/en/cat"],
                                            rng.randn(1, 6).astype(np.float32)))
        assoc = build_association(edge_table([Edge("/c/fr/chat", "/c/en/cat")]))
        out = retrofit(assemble_problem(emb, assoc), 10)
        idx = {lab: i for i, lab in enumerate(out.labels)}
        u = out.data[idx["/c/en/cat"]].astype(np.float64)
        v = out.data[idx["/c/fr/chat"]].astype(np.float64)
        cos = (u @ v) / math.sqrt((u @ u) * (v @ v))
        assert cos >= 1 - 1e-9


def test_criterion_04_oscillation_ablation():
    with criterion(4, "self-loops damp the two-node oscillation", 1):
        def displacements(self_loops):
            anchor = make_matrix(["/c/en/anchor"], [[0.0, 0.0, 0.0, 1.0]])
            assoc = build_association(edge_table([Edge("/c/en/p", "/c/en/q")]))
            problem = assemble_problem(anchor, assoc, self_loops=self_loops)
            w = problem.w0.copy()
            w[problem.vocab.index("/c/en/p"), 0] = 1.0  # asymmetric seed
            out = []
            for _ in range(10):
                w_next = retrofit_step(problem, w)
                delta = w_next.astype(np.float64) - w.astype(np.float64)
                out.append(np.sqrt((delta ** 2).sum(axis=1)).max())
                w = w_next
            return out
        without = displacements(self_loops=False)
        assert all(d >= 0.5 for d in without)
        with_loops = displacements(self_loops=True)
        assert all(d < 0.1 for d in with_loops[2:])


def test_criterion_05_permutation_equivariance():
    with criterion(5, "retrofit output is permutation-equivariant, bitwise", 1):
        rng = np.random.RandomState(55)
        labels = [f"/c/en/t{i:02d}" for i in range(30)]
        emb = l2_normalize_rows(make_matrix(labels,
                                            rng.randn(30, 8).astype(np.float32)))
        terms = labels + [f"/c/fr/g{i:02d}" for i in range(20)]
        edges = []
        while len(edges) < 150:
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
        assert set(rows) == set(rows_p) and len(rows) == 50
        for lab in rows:
            assert bits_equal(rows[lab], rows_p[lab])


def test_criterion_06_svd_fusion():
    with criterion(6, "SVD reconstruction, Gram identity and truncation", 5):
        rng = np.random.RandomState(56)
        for _ in range(25):
            m = rng.randn(200, 12)
            u, s, vt = svd_factors(m)
            recon = np.linalg.norm(u @ np.diag(s) @ vt - m) / np.linalg.norm(m)
            assert recon < 1e-6
            features, spectrum = svd_discount(m, 12)
            gram = features @ features.T
            assert np.abs(gram - u @ np.diag(s) @ u.T).max() < 1e-6
            assert np.all(np.diff(spectrum) <= 1e-12)
            cut, _ = svd_discount(m, 5)
            assert np.array_equal(cut, features[:, :5])
            col_norms = np.sqrt((cut ** 2).sum(axis=0))
            assert np.allclose(col_norms, np.sqrt(spectrum[:5]), atol=1e-6)


def test_criterion_07_merge_arithmetic():
    with criterion(7, "Zipf merge matches the closed-form average", 1):
        rng = np.random.RandomState(57)
        for trial in range(100):
            size = rng.randint(2, 7)
            dims = rng.randint(1, 12)
            vectors = rng.randn(size, dims).astype(np.float32)
            ranks = np.sort(rng.choice(np.arange(1, 400), size=size, replace=False))
            # a row's rank is its position plus one: each vector sits at
            # row rank - 1, and every other row is dropped
            data = np.full((ranks[-1], dims), 100.0, dtype=np.float32)
            data[ranks - 1] = vectors
            matrix = make_matrix([f"raw{i}" for i in range(ranks[-1])], data)
            plan = [None] * ranks[-1]
            for rank in ranks:
                plan[rank - 1] = "/c/en/term"
            merged = merge_standardized(matrix, plan, strategy="zipf").data[0]
            weights = 1.0 / ranks.astype(np.float64)
            acc = np.zeros(dims)
            for i in range(size):
                acc += weights[i] * vectors[i].astype(np.float64)
            oracle = (acc / weights.sum()).astype(np.float32)
            assert np.abs(merged.astype(np.float64)
                          - oracle.astype(np.float64)).max() <= 1e-12

        fixture = make_matrix(["A", "?", "a"], [[1.0, 0.0], [9.0, 9.0], [0.0, 1.0]])
        plan = ["/c/en/a", None, "/c/en/a"]  # ranks 1 and 3
        outs = {strategy: tuple(merge_standardized(fixture, plan, strategy).data[0])
                for strategy in ("zipf", "first", "unweighted")}
        assert outs["zipf"] == (0.75, 0.25)
        assert outs["first"] == (1.0, 0.0)
        assert outs["unweighted"] == (0.5, 0.5)
        assert len(set(outs.values())) == 3


def test_criterion_08_io_round_trip(tmp_path):
    with criterion(8, "native I/O is bit-exact; binary matches its text twin", 2):
        rng = np.random.RandomState(58)
        shapes = [(0, 300), (5, 1), (1, 1), (0, 1)]
        while len(shapes) < 50:
            shapes.append((rng.randint(0, 40), rng.randint(1, 20)))
        for i, (rows, dims) in enumerate(shapes):
            matrix = LabeledMatrix(
                labels=[f"/c/en/w{j}" for j in range(rows)],
                data=(rng.randn(rows, dims) * 10 ** rng.randint(-3, 4)
                      ).astype(np.float32))
            write_native(matrix, tmp_path / "m.emb1", tmp_path / "m.labels")
            back = read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
            assert back.labels == matrix.labels
            assert bits_equal(back.data, matrix.data)

        values = [("cat", [0.5, -1.0, 0.25]), ("dog", [0.1, 2.5, -0.125]),
                  ("fish", [-3.5, 0.0, 1e-8])]
        blob = b"3 3\n"
        for token, vec in values:
            blob += token.encode() + b" " + struct.pack("<3f", *vec) + b"\n"
        (tmp_path / "twin.bin").write_bytes(blob)
        text = "3 3\n" + "\n".join(
            f"{t} {' '.join(repr(float(np.float32(v))) for v in vec)}"
            for t, vec in values) + "\n"
        (tmp_path / "twin.txt").write_text(text, encoding="utf-8")
        binary = read_word2vec_binary(tmp_path / "twin.bin")
        twin = read_text_embeddings(tmp_path / "twin.txt", header=True)
        assert binary.labels == twin.labels
        assert bits_equal(binary.data, twin.data)


def test_criterion_09_split_fidelity():
    with criterion(9, "round-robin split matches the r/K/N assignment", 1):
        lines = [f"line{i}" for i in range(1, 101)]
        chunk3 = round_robin_split(lines, 3, 3)
        assert chunk3 == [f"line{i}" for i in range(3, 100, 3)]
        chunk1 = round_robin_split(lines, 3, 1)
        chunk2 = round_robin_split(lines, 3, 2)
        assert chunk1 == [f"line{i}" for i in range(1, 101, 3)]
        assert chunk2 == [f"line{i}" for i in range(2, 101, 3)]
        assert sorted(chunk1 + chunk2 + chunk3) == sorted(lines)


def test_criterion_10_standardization_goldens_and_idempotence():
    with criterion(10, "standardization goldens and 1e5-string idempotence", 10):
        assert standardize("Giving an example", "en").uri == "/c/en/give_example"
        assert standardize("polish", "en") == standardize("Polish", "en")
        assert standardize("dry", "en") == standardize("dried", "en")
        std = Standardizer()
        for s in random_strings(100_000, seed=510, alphabet=FUZZ_ALPHABET):
            try:
                first = std.standardize(s, "en")
            except EmptyAfterNormalization:
                continue
            assert std.standardize(first.text, "en") == first


LARGE_DATA_VARS = ("VECFUSE_GLOVE_42B", "VECFUSE_RW", "VECFUSE_MEN", "VECFUSE_WS353")


def _read_rw(path):
    pairs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.split()
            if len(fields) >= 3:
                pairs.append(GoldPair(fields[0], fields[1], float(fields[2])))
    return pairs


def _read_men(path):
    pairs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.split()
            if len(fields) == 3:
                w1 = fields[0].rsplit("-", 1)[0] if fields[0][-2:-1] == "-" else fields[0]
                w2 = fields[1].rsplit("-", 1)[0] if fields[1][-2:-1] == "-" else fields[1]
                pairs.append(GoldPair(w1, w2, float(fields[2])))
    return pairs


def _read_ws353(path):
    pairs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            sep = "," if "," in line else "\t"
            fields = line.split(sep)
            if len(fields) < 3 or fields[0].lower().startswith("word"):
                continue
            pairs.append(GoldPair(fields[0], fields[1], float(fields[2])))
    return pairs


def _lowercase_rho(lookup, pairs):
    """Criterion 11's scorer: Spearman rho of the gold scores against the
    cosines of exact lowercase lookups, 0 for a pair with a word out of
    vocabulary."""
    gold, predicted = [], []
    for pair in pairs:
        gold.append(pair.score)
        predicted.append(reference_similarity(lookup, pair.word1.lower(),
                                              pair.word2.lower()))
    return spearman(gold, predicted)


def test_criterion_11_scorer_on_a_toy_matrix():
    """The large-data scorer on an uncased toy matrix: a cased gold word
    finds its lowercase row, and an out-of-vocabulary pair scores 0, as in
    the batched evaluation of the lowercased pairs."""
    angles = {"cat": 0.0, "dog": 0.3, "fish": 0.9, "stone": 2.2}
    matrix = make_matrix(list(angles),
                         [[math.cos(t), math.sin(t)] for t in angles.values()])
    pairs = [GoldPair("Cat", "DOG", 6.0), GoldPair("dog", "Fish", 5.0),
             GoldPair("cat", "fish", 4.0), GoldPair("fish", "stone", 3.0),
             GoldPair("dog", "stone", 2.0), GoldPair("cat", "zyzzyva", 1.0)]
    lookup = MatrixLookup(matrix, None)
    rho = _lowercase_rho(lookup, pairs)
    lowered = [GoldPair(p.word1.lower(), p.word2.lower(), p.score) for p in pairs]
    assert rho == evaluate(lookup, lowered, "toy", "all").rho
    # cosines in gold order but for the out-of-vocabulary 0 above dog-stone's
    want = brute_force_spearman([6, 5, 4, 3, 2, 1], [6, 5, 4, 3, 1, 2])
    assert rho == pytest.approx(want, abs=1e-12)


@pytest.mark.skipif(not all(os.environ.get(v) for v in LARGE_DATA_VARS),
                    reason="large-data harness needs " + ", ".join(LARGE_DATA_VARS))
def test_criterion_11_large_data_glove_42b():
    """Reproduce the published evaluation of the raw GloVe 42B vectors.

    Lookups are exact lowercase token matches (the 42B distribution is
    uncased); out-of-vocabulary pairs score 0. Expected Spearman rho:
    RW(all) .477 +/- .01, MEN .814 +/- .005, WS-353 .759 +/- .005.
    """
    with criterion(11, "GloVe 42B reproduces the published rho values", 3600):
        matrix = read_text_embeddings(os.environ["VECFUSE_GLOVE_42B"], header=False)
        lookup = MatrixLookup(matrix, None)
        rho_rw = _lowercase_rho(lookup, _read_rw(os.environ["VECFUSE_RW"]))
        rho_men = _lowercase_rho(lookup, _read_men(os.environ["VECFUSE_MEN"]))
        rho_ws = _lowercase_rho(lookup, _read_ws353(os.environ["VECFUSE_WS353"]))
        print(f"RW(all)={rho_rw:.4f} MEN={rho_men:.4f} WS353={rho_ws:.4f}")
        assert abs(rho_rw - 0.477) <= 0.01
        assert abs(rho_men - 0.814) <= 0.005
        assert abs(rho_ws - 0.759) <= 0.005
