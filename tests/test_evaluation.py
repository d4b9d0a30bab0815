import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_matrix
from vecfuse.errors import (
    DegenerateCorrelation,
    DegenerateInput,
    InvalidChunk,
    ParseError,
)
from vecfuse.evaluation import (
    EvalReport,
    GoldPair,
    MatrixLookup,
    _cosine,
    _pair_cosines,
    average_ranks,
    dev_test_split,
    evaluate,
    fisher_ci,
    format_report_table,
    load_gold,
    report_rows,
    round_robin_split,
    spearman,
    write_report,
)
from vecfuse.labels import Standardizer


def brute_force_spearman(gold, predicted):
    """Independent oracle: Pearson over hand-ranked lists.

    rank(x_i) = (# strictly smaller) + (1 + # equal) / 2, counted directly.
    """
    def ranks(values):
        out = []
        for x in values:
            less = sum(1 for y in values if y < x)
            equal = sum(1 for y in values if y == x)
            out.append(less + (1 + equal) / 2.0)
        return out

    rx = ranks(list(gold))
    ry = ranks(list(predicted))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


class TestLoadGold:
    def test_generic(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("tiger cat 7.35\nbook paper 5.0\n", encoding="utf-8")
        pairs = load_gold(path)
        assert pairs[0] == GoldPair("tiger", "cat", 7.35, "en")
        assert len(pairs) == 2

    def test_men_variants_identical_word_lists(self, tmp_path):
        tagged = tmp_path / "men_lemma.txt"
        tagged.write_text("sun-n sunlight-n 50.0\nred-j color-n 30.0\n",
                          encoding="utf-8")
        natural = tmp_path / "men_natural.txt"
        natural.write_text("sun sunlight 50.0\nred color 30.0\n", encoding="utf-8")
        a = load_gold(tagged, format="men")
        b = load_gold(natural, format="men")
        assert [(p.word1, p.word2) for p in a] == [(p.word1, p.word2) for p in b]

    def test_missing_score(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("tiger cat\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_gold(path)

    def test_bad_score(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("tiger cat high\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_gold(path)

    def test_language_tag(self, tmp_path):
        path = tmp_path / "gold.txt"
        path.write_text("chat chien 6.0\n", encoding="utf-8")
        assert load_gold(path, language="fr")[0].language == "fr"


class TestRoundRobinSplit:
    def test_seven_items_chunk_three(self):
        items = list(range(1, 8))
        assert round_robin_split(items, 3, 3) == [3, 6]

    def test_single_chunk_identity(self):
        items = ["a", "b", "c"]
        assert round_robin_split(items, 1, 1) == items

    def test_invalid_chunk(self):
        with pytest.raises(InvalidChunk):
            round_robin_split([1, 2, 3], 3, 4)
        with pytest.raises(InvalidChunk):
            round_robin_split([1, 2, 3], 3, 0)

    def test_chunks_partition_input(self):
        items = [f"line{i}" for i in range(1, 101)]
        chunks = [round_robin_split(items, 3, c) for c in (1, 2, 3)]
        assert sorted(sum(chunks, [])) == sorted(items)
        assert set(chunks[0]).isdisjoint(chunks[1])
        for chunk in chunks:
            positions = [items.index(x) for x in chunk]
            assert positions == sorted(positions)

    def test_dev_is_other_chunks_in_order(self):
        items = list(range(1, 11))
        dev, test = dev_test_split(items, 3, 3)
        assert test == [3, 6, 9]
        assert dev == [1, 4, 7, 10, 2, 5, 8]


class TestSimilarity:
    def test_same_standardized_label(self):
        m = make_matrix(["/c/en/dry"], [[1.0, 2.0]])
        assert MatrixLookup(m).similarity("dry", "dried") == 1.0
        m2 = make_matrix(["/c/en/polish"], [[1.0, 2.0]])
        assert MatrixLookup(m2).similarity("polish", "Polish") == 1.0

    def test_oov_is_zero(self):
        m = make_matrix(["/c/en/cat"], [[1.0, 0.0]])
        assert MatrixLookup(m).similarity("cat", "zyzzyva") == 0.0

    def test_orthogonal_rows(self):
        m = make_matrix(["/c/en/cat", "/c/en/dog"], [[1.0, 0.0], [0.0, 1.0]])
        assert MatrixLookup(m).similarity("cat", "dog") == 0.0

    def test_symmetric_and_bounded(self, rng):
        labels = [f"/c/en/w{i}" for i in range(6)]
        m = make_matrix(labels, rng.randn(6, 4).astype(np.float32))
        lookup = MatrixLookup(m)
        words = ["w0", "w3", "w5", "unknown"]
        for w1 in words:
            for w2 in words:
                s12 = lookup.similarity(w1, w2)
                assert s12 == lookup.similarity(w2, w1)
                assert -1.0 - 1e-12 <= s12 <= 1.0 + 1e-12

    def test_digit_fallback(self):
        m = make_matrix(["/c/en/area_#"], [[1.0, 0.0]])
        hit = MatrixLookup(m, digit_fallback=True)
        miss = MatrixLookup(m, digit_fallback=False)
        assert hit.row_for("area 51")[1] is True
        assert miss.row_for("area 51")[1] is False

    def test_raw_lookup(self):
        m = make_matrix(["Cat"], [[1.0, 0.0]])
        raw = MatrixLookup(m, standardize=False)
        assert raw.row_for("Cat")[1] is True
        assert raw.row_for("cat")[1] is False


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == -1.0

    def test_tied_example(self):
        rho = spearman([1, 2, 3, 4], [10, 10, 20, 30])
        assert abs(rho - 0.9486832980505138) < 1e-12

    def test_average_ranks(self):
        assert list(average_ranks([10, 10, 20, 30])) == [1.5, 1.5, 3.0, 4.0]

    def test_monotone_invariance(self, rng):
        for _ in range(20):
            x = rng.randn(10)
            y = rng.randn(10)
            base = spearman(x, y)
            assert abs(spearman(np.exp(x), y) - base) < 1e-12
            assert abs(spearman(x, 3.0 * y + 7.0) - base) < 1e-12

    def test_self_correlation(self, rng):
        x = rng.randn(15)
        assert spearman(x, x) == 1.0
        assert spearman(x, -x) == -1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        with pytest.raises(DegenerateInput):
            spearman([1.0], [1.0])

    def test_against_brute_force(self, rng):
        for _ in range(100):
            n = rng.randint(2, 13)
            gold = rng.randint(0, 5, size=n).astype(float)
            pred = rng.randn(n).round(1)
            if np.all(gold == gold[0]) or np.all(pred == pred[0]):
                continue
            assert abs(spearman(gold, pred) - brute_force_spearman(gold, pred)) < 1e-12


class TestFisherCi:
    def test_closed_form(self):
        low, high = fisher_ci(0.0, 103)
        expected = math.tanh(1.959964 / 10.0)
        assert abs(high - expected) < 1e-12
        assert abs(low + expected) < 1e-12

    def test_interval_shrinks_with_n(self):
        widths = []
        for n in (10, 100, 1000, 100000):
            low, high = fisher_ci(0.5, n)
            widths.append(high - low)
            assert low <= 0.5 <= high
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 0.02

    def test_antisymmetry(self):
        low, high = fisher_ci(0.3, 50)
        neg_low, neg_high = fisher_ci(-0.3, 50)
        assert abs(neg_low + high) < 1e-12
        assert abs(neg_high + low) < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateCorrelation):
            fisher_ci(1.0, 100)
        with pytest.raises(DegenerateCorrelation):
            fisher_ci(0.5, 3)


class TestEvaluate:
    def gold_pairs(self):
        return [GoldPair("cat", "dog", 6.0), GoldPair("dog", "fish", 5.0),
                GoldPair("cat", "fish", 4.0), GoldPair("fish", "stone", 3.0),
                GoldPair("dog", "stone", 2.0), GoldPair("cat", "stone", 1.0)]

    def toy_matrix(self):
        # angles chosen so the pairwise cosine order matches the gold order
        def vec(theta):
            return [math.cos(theta), math.sin(theta)]
        return make_matrix(
            ["/c/en/cat", "/c/en/dog", "/c/en/fish", "/c/en/stone"],
            [vec(0.0), vec(0.3), vec(0.9), vec(2.2)])

    def test_composition_matches_manual_oracle(self):
        matrix = self.toy_matrix()
        pairs = self.gold_pairs()
        lookup = MatrixLookup(matrix)
        manual = spearman([p.score for p in pairs],
                          [lookup.similarity(p.word1, p.word2) for p in pairs])
        report = evaluate(matrix, pairs, split="all", dataset_id="toy")
        assert report.rho == manual
        assert report.n == 6
        assert report.oov_fraction == 0.0
        assert report.ci_low <= report.rho <= report.ci_high

    def test_perfect_order_gives_rho_one(self):
        report = evaluate(self.toy_matrix(), self.gold_pairs())
        assert report.rho == 1.0
        assert report.ci_low == report.ci_high == 1.0

    def test_all_oov_degenerates(self):
        matrix = make_matrix(["/c/en/unrelated"], [[1.0, 0.0]])
        with pytest.raises(DegenerateInput):
            evaluate(matrix, self.gold_pairs())

    def test_oov_fraction_and_drop_mode(self):
        matrix = self.toy_matrix()
        pairs = self.gold_pairs() + [GoldPair("cat", "zyzzyva", 4.0)]
        keep = evaluate(matrix, pairs)
        assert keep.n == 7
        assert abs(keep.oov_fraction - 1 / 7) < 1e-12
        drop = evaluate(matrix, pairs, drop_oov=True)
        assert drop.n == 6
        assert abs(drop.oov_fraction - 1 / 7) < 1e-12

    def test_split_selection(self):
        pairs = self.gold_pairs()
        report_test = evaluate(self.toy_matrix(), pairs, split="test")
        assert report_test.n == 2  # positions 3 and 6 of 6
        report_dev = evaluate(self.toy_matrix(), pairs, split="dev")
        assert report_dev.n == 4

    def test_empty_dataset(self):
        with pytest.raises(DegenerateInput):
            evaluate(self.toy_matrix(), [])


class TestReports:
    def test_tsv_and_table(self, tmp_path):
        report = evaluate(TestEvaluate().toy_matrix(), TestEvaluate().gold_pairs(),
                          dataset_id="toy")
        path = tmp_path / "report.tsv"
        write_report([report], path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].split("\t") == ["dataset", "split", "n", "rho",
                                        "ci_low", "ci_high", "oov_fraction"]
        assert lines[1].split("\t")[0] == "toy"
        table = format_report_table([report])
        assert "toy" in table and "rho" in table
        assert len(report_rows([report])) == 1


# The per-pair evaluation and the tie loop that the batched ones replaced,
# kept as bitwise references.

def reference_evaluate(matrix, dataset, split="all", num_chunks=3, test_chunk=3,
                       standardizer=None, drop_oov=False, digit_fallback=False,
                       standardize=True):
    if split == "all":
        pairs = list(dataset)
    elif split == "test":
        pairs = round_robin_split(dataset, num_chunks, test_chunk)
    else:
        pairs, _ = dev_test_split(dataset, num_chunks, test_chunk)
    lookup = MatrixLookup(matrix, standardizer=standardizer,
                          digit_fallback=digit_fallback, standardize=standardize)
    gold, predicted, oov_count = [], [], 0
    for pair in pairs:
        v1, found1 = lookup.row_for(pair.word1, pair.language)
        v2, found2 = lookup.row_for(pair.word2, pair.language)
        oov = not (found1 and found2)
        oov_count += oov
        if drop_oov and oov:
            continue
        gold.append(pair.score)
        predicted.append(_cosine(v1, v2))
    rho = spearman(gold, predicted)
    ci_low, ci_high = fisher_ci(rho, len(gold)) \
        if abs(rho) < 1.0 and len(gold) >= 4 else (rho, rho)
    return EvalReport(dataset="dataset", split=split, n=len(gold), rho=rho,
                      ci_low=ci_low, ci_high=ci_high,
                      oov_fraction=oov_count / len(pairs) if pairs else 0.0)


def reference_average_ranks(values):
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def awkward_matrix(rng, rows=60, dims=12):
    """Rows with a zero row, a -0.0 row, duplicated rows, near-parallel
    rows and a digit-collapsed label."""
    data = rng.standard_normal((rows, dims)).astype(np.float32)
    data[3] = 0.0
    data[4] = -0.0
    data[7] = data[8]            # two labels sharing one vector
    data[9] = -data[10]          # exactly opposite
    data[11] = data[12] * np.float32(3.0)
    labels = [f"/c/en/w{i}" for i in range(rows - 1)] + ["/c/en/area_#"]
    return make_matrix(labels, data)


def awkward_pairs(rng, n=300):
    words = [f"w{i}" for i in range(60)] + ["W7", "w8s", "zyzzyva", "area 51", "the", "--"]
    pairs = [GoldPair(words[i], words[j], float(rng.integers(0, 6)))
             for i, j in rng.integers(0, len(words), (n, 2))]
    pairs += [GoldPair("w7", "w8", 5.0), GoldPair("w3", "w4", 1.0),
              GoldPair("w3", "w3", 2.0), GoldPair("w9", "w10", 0.5)]
    return pairs


class TestBatchedEvaluateMatchesPerPair:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("drop_oov", [False, True])
    @pytest.mark.parametrize("digit_fallback", [False, True])
    @pytest.mark.parametrize("split", ["all", "dev", "test"])
    def test_reports_equal(self, seed, drop_oov, digit_fallback, split):
        rng = np.random.default_rng(seed)
        matrix, pairs = awkward_matrix(rng), awkward_pairs(rng)
        kwargs = dict(split=split, drop_oov=drop_oov, digit_fallback=digit_fallback,
                      standardizer=Standardizer())
        assert evaluate(matrix, pairs, **kwargs) == reference_evaluate(matrix, pairs, **kwargs)

    @pytest.mark.parametrize("drop_oov", [False, True])
    def test_reports_equal_without_standardizing(self, drop_oov):
        rng = np.random.default_rng(7)
        matrix = make_matrix(["Cat", "cat", "dog", "Dog", "fish"],
                             rng.standard_normal((5, 4)).astype(np.float32))
        words = ["Cat", "cat", "dog", "Dog", "fish", "FISH", "bird"]
        pairs = [GoldPair(words[i], words[j], float(k))
                 for k, (i, j) in enumerate(rng.integers(0, len(words), (40, 2)))]
        assert evaluate(matrix, pairs, standardize=False, drop_oov=drop_oov) == \
            reference_evaluate(matrix, pairs, standardize=False, drop_oov=drop_oov)

    def test_pair_cosines_bitwise(self):
        rng = np.random.default_rng(11)
        matrix = awkward_matrix(rng, rows=400, dims=100)
        ends = rng.integers(-1, len(matrix), (4000, 2))
        ends[:50, 1] = ends[:50, 0]
        zero = np.zeros(matrix.dims)

        def vec(row):
            return zero if row < 0 else matrix.data[row].astype(np.float64)
        want = np.array([_cosine(vec(a), vec(b)) for a, b in ends.tolist()])
        assert _pair_cosines(matrix, ends).tobytes() == want.tobytes()

    def test_average_ranks_bitwise(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 17, 200):
            values = rng.integers(0, 6, n).astype(np.float64)
            values[values == 2] = -0.0
            values[values == 3] = 0.0
            values[values == 4] = np.nan
            for v in (values, rng.standard_normal(n)):
                assert average_ranks(v).tobytes() == reference_average_ranks(v).tobytes()

    def test_never_widens_the_whole_matrix(self):
        rng = np.random.default_rng(5)
        rows, dims = 20000, 100
        matrix = make_matrix([f"/c/en/w{i}" for i in range(rows)],
                             rng.standard_normal((rows, dims)).astype(np.float32))
        pairs = [GoldPair(f"w{i}", f"w{j}", float(k))
                 for k, (i, j) in enumerate(rng.integers(0, rows, (2000, 2)))]
        standardizer = Standardizer()
        evaluate(matrix, pairs, standardizer=standardizer)  # memoise the labels
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            evaluate(matrix, pairs, standardizer=standardizer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy of the whole matrix alone is 8 * rows * dims = 16 MB
        assert peak < 8 * rows * dims // 2
