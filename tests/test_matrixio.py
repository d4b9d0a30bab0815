import importlib
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import bits_equal, make_matrix
from vecfuse.errors import (
    BadMagic,
    ChecksumOrLengthMismatch,
    DataError,
    DimensionMismatch,
    DuplicateLabel,
    ParseError,
    TruncatedFile,
)
from vecfuse.matrixio import (
    LabeledMatrix,
    read_native,
    read_text_embeddings,
    read_word2vec_binary,
    write_native,
)

matrixio = importlib.import_module("vecfuse.matrixio")


class TestLabeledMatrix:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(DuplicateLabel):
            LabeledMatrix(labels=["a", "a"], data=np.zeros((2, 2)))

    def test_rejects_label_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LabeledMatrix(labels=["a"], data=np.zeros((2, 2)))

    def test_rejects_bad_ranks(self):
        with pytest.raises(DimensionMismatch):
            LabeledMatrix(labels=["a", "b"], data=np.zeros((2, 2)),
                          source_rank=[1, 0])

    def test_take_preserves_ranks(self):
        m = make_matrix(["a", "b", "c"], np.eye(3))
        sub = m.take([2, 0])
        assert sub.labels == ["c", "a"]
        assert list(sub.source_rank) == [3, 1]


class TestTextReader:
    def test_glove_style(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 0.2\ncat 0.3 0.4\n", encoding="utf-8")
        m = read_text_embeddings(path, header=False)
        assert m.labels == ["the", "cat"]
        assert np.allclose(m.data, [[0.1, 0.2], [0.3, 0.4]], atol=1e-7)
        assert list(m.source_rank) == [1, 2]

    def test_word2vec_text_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 2 3\nb 4 5 6\n", encoding="utf-8")
        m = read_text_embeddings(path, header=True)
        assert m.data.shape == (2, 3)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 0.2\ncat 0.1\n", encoding="utf-8")
        with pytest.raises(DimensionMismatch):
            read_text_embeddings(path, header=False)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 oops\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_text_embeddings(path, header=False)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("cat 1 2\ncat 3 4\n", encoding="utf-8")
        with pytest.raises(DuplicateLabel):
            read_text_embeddings(path, header=False)
        m = read_text_embeddings(path, header=False, on_duplicate="first")
        assert m.labels == ["cat"]
        assert np.allclose(m.data, [[1.0, 2.0]])

    def test_only_space_separates(self, tmp_path):
        # a token containing a tab survives verbatim
        path = tmp_path / "v.txt"
        path.write_text("a\tb 1 2\n", encoding="utf-8")
        m = read_text_embeddings(path, header=False)
        assert m.labels == ["a\tb"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "v.txt"
        path.write_text(f"the 0.1 0.2\n\ncat 1.0 {value}\ndog 0.3 0.4\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_text_embeddings(path, header=False)
        assert err.value.line == 3
        assert str(path) in str(err.value)

    def test_non_finite_after_float32_cast_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 0.2\ncat 1e39 0.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_text_embeddings(path, header=False)
        assert err.value.line == 2

    @pytest.mark.parametrize("declared", [1, 3])
    def test_header_row_count_must_match(self, tmp_path, declared):
        path = tmp_path / "v.txt"
        path.write_text(f"{declared} 2\na 1 2\nb 3 4\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_text_embeddings(path, header=True)
        assert err.value.line == 1
        assert str(path) in str(err.value)

    def test_header_counts_skipped_duplicates(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 2\n\na 3 4\nb 5 6\n", encoding="utf-8")
        m = read_text_embeddings(path, header=True, on_duplicate="first")
        assert m.labels == ["a", "b"]


class TestZeroDimensionVectors:
    @pytest.mark.parametrize("text, line", [
        ("the\ncat\n", 1), ("the \n", 1), ("the 0.1\n\ncat\n", 3)])
    def test_vector_line_without_values(self, tmp_path, text, line):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="no values") as err:
            read_text_embeddings(path)
        assert err.value.line == line
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("head", ["2 0", "0 0", "2 -1"])
    def test_word2vec_text_header_without_dimensions(self, tmp_path, head):
        path = tmp_path / "v.txt"
        path.write_text(f"{head}\na\nb\n", encoding="utf-8")
        with pytest.raises(ParseError, match="dimensions") as err:
            read_text_embeddings(path, header=True)
        assert err.value.line == 1

    @pytest.mark.parametrize("head", [b"2 0\n", b"0 0\n"])
    def test_word2vec_binary_header_without_dimensions(self, tmp_path, head):
        path = tmp_path / "v.bin"
        path.write_bytes(head + b"a \nb \n")
        with pytest.raises(ParseError, match="dimensions") as err:
            read_word2vec_binary(path)
        assert str(path) in str(err.value)


def w2v_binary_bytes(entries, dims):
    blob = f"{len(entries)} {dims}\n".encode("ascii")
    for token, values in entries:
        blob += token.encode("utf-8") + b" "
        blob += struct.pack(f"<{dims}f", *values)
        blob += b"\n"
    return blob


class TestWord2vecBinary:
    def test_single_entry(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1 2\n" + b"cat " + struct.pack("<2f", 0.5, -1.0))
        m = read_word2vec_binary(path)
        assert m.labels == ["cat"]
        assert bits_equal(m.data, np.array([[0.5, -1.0]], dtype=np.float32))

    def test_matches_text_twin(self, tmp_path):
        values = [("cat", [0.5, -1.0, 0.25]), ("dog", [1.5, 2.5, -0.125])]
        bin_path = tmp_path / "v.bin"
        bin_path.write_bytes(w2v_binary_bytes(values, 3))
        text_path = tmp_path / "v.txt"
        lines = ["2 3"] + [f"{t} {' '.join(repr(v) for v in vec)}" for t, vec in values]
        text_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        m_bin = read_word2vec_binary(bin_path)
        m_text = read_text_embeddings(text_path, header=True)
        assert m_bin.labels == m_text.labels
        assert bits_equal(m_bin.data, m_text.data)

    def test_empty_with_dims(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"0 300\n")
        m = read_word2vec_binary(path)
        assert len(m) == 0
        assert m.dims == 300

    def test_truncated(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1 3\ncat " + struct.pack("<2f", 1.0, 2.0))
        with pytest.raises(TruncatedFile):
            read_word2vec_binary(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"not a header\n")
        with pytest.raises(ParseError):
            read_word2vec_binary(path)

    def test_header_larger_than_file_allocates_nothing(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1000000000 1000\n")
        with pytest.raises(TruncatedFile) as err:
            read_word2vec_binary(path)
        assert isinstance(err.value, DataError)

    def test_header_checked_against_file_size(self, tmp_path):
        path = tmp_path / "v.bin"
        blob = w2v_binary_bytes([("a", [1.0, 2.0]), ("b", [3.0, 4.0])], 2)
        path.write_bytes(blob)
        assert read_word2vec_binary(path).labels == ["a", "b"]
        path.write_bytes(b"3 2\n" + blob[len(b"2 2\n"):])  # 3 records need 27 bytes, 22 follow
        with pytest.raises(TruncatedFile):
            read_word2vec_binary(path)

    def test_truncated_inside_vector_after_long_token(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1 2\nlongtoken " + struct.pack("<f", 1.0))
        with pytest.raises(TruncatedFile, match="inside vector 1"):
            read_word2vec_binary(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_with_vector_number(self, tmp_path, value):
        path = tmp_path / "v.bin"
        path.write_bytes(w2v_binary_bytes([("cat", [0.5, 1.0]), ("dog", [1.0, value])], 2))
        with pytest.raises(ParseError, match="vector 2") as err:
            read_word2vec_binary(path)
        assert str(path) in str(err.value)


class TestNativeFormat:
    def test_round_trip(self, tmp_path):
        m = make_matrix(["/c/en/a", "/c/en/b", "/c/fr/c"],
                        [[1.5, -2.25], [0.1, 0.2], [3.0, 4.0]])
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        back = read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
        assert back.labels == m.labels
        assert bits_equal(back.data, m.data)

    def test_round_trip_empty(self, tmp_path):
        m = LabeledMatrix(labels=[], data=np.zeros((0, 300), dtype=np.float32))
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        back = read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
        assert len(back) == 0
        assert back.dims == 300

    def test_round_trip_random_bits(self, tmp_path, rng):
        for trial in range(10):
            rows = rng.randint(0, 30)
            dims = rng.randint(1, 12)
            data = rng.randn(rows, dims).astype(np.float32)
            m = LabeledMatrix(labels=[f"/c/en/w{i}" for i in range(rows)], data=data)
            write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
            back = read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
            assert bits_equal(back.data, m.data)
            assert back.labels == m.labels

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.emb1").write_bytes(b"NOPE" + b"\x00" * 8)
        (tmp_path / "m.labels").write_text("", encoding="utf-8")
        with pytest.raises(BadMagic):
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")

    def test_length_mismatch(self, tmp_path):
        (tmp_path / "m.emb1").write_bytes(b"EMB1" + struct.pack("<II", 2, 2) + b"\x00" * 4)
        (tmp_path / "m.labels").write_text("a\nb\n", encoding="utf-8")
        with pytest.raises(ChecksumOrLengthMismatch):
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")

    def test_label_count_mismatch(self, tmp_path):
        m = make_matrix(["a", "b"], [[1, 2], [3, 4]])
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        (tmp_path / "m.labels").write_text("a\n", encoding="utf-8")
        with pytest.raises(ChecksumOrLengthMismatch):
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")

    def test_reader_assigns_file_order_ranks(self, tmp_path):
        m = make_matrix(["a", "b"], [[1, 2], [3, 4]], ranks=[7, 9])
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        back = read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
        assert list(back.source_rank) == [1, 2]

    def test_payload_longer_than_header(self, tmp_path):
        (tmp_path / "m.emb1").write_bytes(b"EMB1" + struct.pack("<II", 1, 1) + b"\x00" * 8)
        (tmp_path / "m.labels").write_text("a\n", encoding="utf-8")
        with pytest.raises(ChecksumOrLengthMismatch, match="payload is 8 bytes"):
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")

    def test_header_checked_before_allocating(self, tmp_path):
        # a damaged header declaring (2^32-1)^2 values: allocating them
        # first would fail with MemoryError instead
        (tmp_path / "m.emb1").write_bytes(b"EMB1" + b"\xff" * 8 + b"\x00" * 4)
        (tmp_path / "m.labels").write_text("a\n", encoding="utf-8")
        with pytest.raises(ChecksumOrLengthMismatch):
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")

    @pytest.mark.parametrize("rows", [0, 2])
    def test_zero_dimensions_rejected(self, tmp_path, rows):
        (tmp_path / "m.emb1").write_bytes(b"EMB1" + struct.pack("<II", rows, 0))
        (tmp_path / "m.labels").write_text("a\nb\n"[:2 * rows], encoding="utf-8")
        with pytest.raises(ParseError, match="0 dimensions") as err:
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
        assert str(tmp_path / "m.emb1") in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_row_number(self, tmp_path, value):
        m = make_matrix(["a", "b", "c"], [[1, 2], [3, 4], [5, 6]])
        m.data[1, 1] = value
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        with pytest.raises(ParseError, match="row 2 has a non-finite value") as err:
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
        assert str(tmp_path / "m.emb1") in str(err.value)

    def test_payload_read_without_a_second_copy(self, tmp_path):
        rows, dims = 2000, 100
        m = LabeledMatrix(labels=[f"w{i}" for i in range(rows)],
                          data=np.ones((rows, dims), dtype=np.float32))
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        tracemalloc.start()
        try:
            back = read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits_equal(back.data, m.data)
        # the payload, the finite check's booleans and the labels; reading
        # the payload and then copying it would be 2x
        assert peak < 1.6 * m.data.nbytes


# The list-of-lists text reader that the float32-block reader replaced,
# kept as a bitwise reference.

def reference_read_text(path, header=False, on_duplicate="error"):
    labels, seen, rows, linenos = [], set(), [], []
    dims = None
    with open(path, encoding="utf-8") as f:
        lineno = 0
        if header:
            lineno += 1
            declared_rows, dims = (int(v) for v in f.readline().split())
        for line in f:
            lineno += 1
            line = line.rstrip("\n")
            if not line:
                continue
            token, _, rest = line.partition(" ")
            fields = [v for v in rest.split(" ") if v]
            if dims is None:
                dims = len(fields)
            assert len(fields) == dims
            values = [float(v) for v in fields]
            if token in seen:
                assert on_duplicate == "first"
                continue
            seen.add(token)
            labels.append(token)
            rows.append(values)
            linenos.append(lineno)
    with np.errstate(over="ignore"):
        data = np.array(rows, dtype=np.float32).reshape(len(labels), dims or 0)
    finite = np.isfinite(data).all(axis=1)
    bad = None if finite.all() else linenos[int(np.argmin(finite))]
    return labels, data, bad


def awkward_values(seed, rows, dims):
    """Normals spread over float32's whole range, subnormals included."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-46, 38, (rows, dims))
    return rng.standard_normal((rows, dims)) * scale


def write_vectors(path, labels, values, head=None):
    lines = [head] if head else []
    lines += [f"{t} {' '.join(repr(float(v)) for v in row)}" for t, row in zip(labels, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestBlockReaderMatchesListReader:
    def check(self, path, monkeypatch, **kwargs):
        labels, data, bad = reference_read_text(path, **kwargs)
        dims = data.shape[1]
        # one row per block, three rows per block, the default block
        for block in (4 * dims, 12 * dims, matrixio._TEXT_BLOCK_BYTES):
            monkeypatch.setattr(matrixio, "_TEXT_BLOCK_BYTES", block)
            if bad is not None:
                with pytest.raises(ParseError) as err:
                    read_text_embeddings(path, **kwargs)
                assert err.value.line == bad
                continue
            m = read_text_embeddings(path, **kwargs)
            assert m.labels == labels
            assert m.data.dtype == np.float32
            assert m.data.tobytes() == data.tobytes()

    def test_criterion_8_twin(self, tmp_path, monkeypatch):
        values = [("cat", [0.5, -1.0, 0.25]), ("dog", [0.1, 2.5, -0.125]),
                  ("fish", [-3.5, 0.0, 1e-8])]
        path = tmp_path / "twin.txt"
        path.write_text("3 3\n" + "\n".join(
            f"{t} {' '.join(repr(float(np.float32(v))) for v in vec)}"
            for t, vec in values) + "\n", encoding="utf-8")
        self.check(path, monkeypatch, header=True)

    def test_longer_than_a_block(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        write_vectors(path, [f"w{i}" for i in range(50)], awkward_values(1, 50, 7))
        self.check(path, monkeypatch)

    def test_word2vec_text_header(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        write_vectors(path, [f"w{i}" for i in range(10)], awkward_values(2, 10, 5),
                      head="10 5")
        self.check(path, monkeypatch, header=True)

    def test_skipped_duplicates(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        labels = [f"w{i % 6}" for i in range(20)]
        write_vectors(path, labels, awkward_values(3, 20, 4))
        self.check(path, monkeypatch, on_duplicate="first")

    def test_past_float32_range_raises_at_its_line(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        values = awkward_values(4, 9, 3)
        values[6, 1] = 1e39
        write_vectors(path, [f"w{i}" for i in range(9)], values)
        self.check(path, monkeypatch)


def test_reader_peak_memory_is_a_small_multiple_of_the_payload(tmp_path, rng):
    rows, dims = 20000, 100
    path = tmp_path / "big.txt"
    # 100 distinct vectors keep the file quick to write; every field is parsed
    parts = [" ".join(map(str, v)) for v in rng.randn(100, dims).astype(np.float32).tolist()]
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"w{i} {parts[i % 100]}\n" for i in range(rows))
    tracemalloc.start()
    try:
        m = read_text_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.data.shape == (rows, dims)
    # a list of Python floats per row costs about 10x the float32 payload
    assert peak <= 3 * m.data.nbytes
