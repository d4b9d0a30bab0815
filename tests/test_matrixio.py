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
        with pytest.raises(DimensionMismatch, match="matrix must be 2-d, got 1-d"):
            LabeledMatrix(labels=["a", "b"], data=np.zeros(2))


class TestTextReader:
    def test_glove_style(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 0.1 0.2\ncat 0.3 0.4\n", encoding="utf-8")
        m = read_text_embeddings(path, header=False)
        assert m.labels == ["the", "cat"]
        assert np.allclose(m.data, [[0.1, 0.2], [0.3, 0.4]], atol=1e-7)

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

    def test_unknown_on_duplicate(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="on_duplicate must be one of"):
            read_text_embeddings(path, on_duplicate="last")

    @pytest.mark.parametrize("text", ["", "\n\n", "\ufeff"])
    def test_no_header_and_no_vector_line(self, tmp_path, text):
        # such a file declares no dimension
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="no header and no vector line") as err:
            read_text_embeddings(path, header=False)
        assert err.value.path == str(path) and err.value.line is None

    def test_header_with_no_rows(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0 3\n", encoding="utf-8")
        m = read_text_embeddings(path, header=True)
        assert m.labels == [] and m.data.shape == (0, 3)

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


# Token and vector scans at chunk sizes that put every boundary inside a
# token, on its separator, or inside a vector.
CHUNKS = [1, 2, 3, 5, 8, 13, 1 << 16]


class TestWord2vecBinaryChunks:
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_records_straddling_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(matrixio, "_BINARY_CHUNK_BYTES", chunk)
        tokens = ["a", "longer_token", "naïve", "x" * 40, "tab\there", "ünïcödé"]
        values = awkward_values(chunk, len(tokens), 3).astype(np.float32)
        path = tmp_path / "v.bin"
        blob = w2v_binary_bytes(list(zip(tokens, values.tolist())), 3)
        path.write_bytes(blob)
        m = read_word2vec_binary(path)
        assert m.labels == tokens
        assert m.data.tobytes() == values.astype("<f4").tobytes()

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_newlines_before_a_token_are_separators(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(matrixio, "_BINARY_CHUNK_BYTES", chunk)
        path = tmp_path / "v.bin"
        one, two = struct.pack("<f", 1.0), struct.pack("<f", 2.0)
        path.write_bytes(b"2 1\n\n\ncat " + one + b"\n\n\ndog " + two)
        m = read_word2vec_binary(path)
        assert m.labels == ["cat", "dog"]
        assert m.data.tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("token", [b"a\nb", b"a\rb", b"\ra", b"ab\n"])
    def test_token_holding_a_line_break(self, tmp_path, monkeypatch, chunk, token):
        """A line break after a token's first byte would make a label that
        the native format cannot hold: the reader rejects it."""
        monkeypatch.setattr(matrixio, "_BINARY_CHUNK_BYTES", chunk)
        path = tmp_path / "v.bin"
        one = struct.pack("<f", 1.0)
        path.write_bytes(b"2 1\ncat " + one + b"\n" + token + b" " + one)
        with pytest.raises(ParseError, match="token of vector 2 holds a line break") as err:
            read_word2vec_binary(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_truncated_last_vector(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(matrixio, "_BINARY_CHUNK_BYTES", chunk)
        path = tmp_path / "v.bin"
        # enough bytes for the header's size check, not for the last vector
        path.write_bytes(b"2 2\ncat " + struct.pack("<2f", 1.0, 2.0)
                         + b"\nlongerdog " + struct.pack("<f", 3.0))
        with pytest.raises(TruncatedFile, match="ended inside vector 2"):
            read_word2vec_binary(path)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_file_ends_inside_a_token(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(matrixio, "_BINARY_CHUNK_BYTES", chunk)
        path = tmp_path / "v.bin"
        path.write_bytes(b"2 1\ncat " + struct.pack("<f", 1.0) + b"no_space_follows")
        with pytest.raises(TruncatedFile, match="ended inside token 2"):
            read_word2vec_binary(path)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_token_not_utf8(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(matrixio, "_BINARY_CHUNK_BYTES", chunk)
        path = tmp_path / "v.bin"
        path.write_bytes(b"2 1\ncat " + struct.pack("<f", 1.0) + b"\xff\xfe "
                         + struct.pack("<f", 2.0))
        with pytest.raises(ParseError, match="token 2 is not UTF-8") as err:
            read_word2vec_binary(path)
        assert str(path) in str(err.value)

    def test_peak_memory_is_the_payload_and_a_chunk(self, tmp_path, rng):
        rows, dims = 20000, 100
        values = rng.randn(rows, dims).astype(np.float32)
        path = tmp_path / "big.bin"
        with open(path, "wb") as f:
            f.write(f"{rows} {dims}\n".encode("ascii"))
            for i in range(rows):
                f.write(f"w{i} ".encode("ascii") + values[i].astype("<f4").tobytes() + b"\n")
        tracemalloc.start()
        try:
            m = read_word2vec_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.data.tobytes() == values.tobytes()
        # the payload, the labels, their duplicate check and the finite
        # check's booleans (1.5x here), plus the buffer; reading the whole
        # file as well would be 2.5x
        assert peak < 1.6 * m.data.nbytes + 4 * matrixio._BINARY_CHUNK_BYTES


class TestErrorsNameTheirLocation:
    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_text_not_utf8(self, tmp_path, header, newline):
        path = tmp_path / "v.txt"
        lines = [b"2 2"] if header else []
        lines += [b"the 0.1 0.2", b"caf\xe9 0.3 0.4"]
        path.write_bytes(newline.encode().join(lines) + newline.encode())
        with pytest.raises(ParseError, match="not UTF-8") as err:
            read_text_embeddings(path, header=header)
        assert (err.value.path, err.value.line) == (str(path), len(lines))

    def test_native_labels_not_utf8(self, tmp_path):
        m = make_matrix(["a", "b"], [[1, 2], [3, 4]])
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        (tmp_path / "m.labels").write_bytes(b"a\n\xffb\n")
        with pytest.raises(ParseError, match="not UTF-8") as err:
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")
        assert (err.value.path, err.value.line) == (str(tmp_path / "m.labels"), 2)

    def test_native_repeated_label(self, tmp_path):
        m = make_matrix(["a", "b", "c"], np.eye(3))
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        (tmp_path / "m.labels").write_text("a\nb\na\n", encoding="utf-8")
        with pytest.raises(DuplicateLabel, match=r"m\.labels:3: repeated label 'a'"):
            read_native(tmp_path / "m.emb1", tmp_path / "m.labels")

    @pytest.mark.parametrize("head, match", [
        ("1 2 3", "bad header"), ("2", "bad header"), ("", "bad header"),
        ("two 2", "bad header"), ("2 2.0", "bad header"),
        ("-1 2", "declares -1 rows"), ("2 0", "declares 0 dimensions")])
    @pytest.mark.parametrize("binary", [False, True])
    def test_bad_word2vec_header(self, tmp_path, head, match, binary):
        # both word2vec readers check the header alike, before any vector:
        # line 3's bad field is not reached
        path = tmp_path / "v.txt"
        path.write_text(f"{head}\na 1 2\nb x 4\n", encoding="utf-8")
        with pytest.raises(ParseError, match=match) as err:
            if binary:
                read_word2vec_binary(path)
            else:
                read_text_embeddings(path, header=True)
        assert (err.value.path, err.value.line) == (str(path), 1)

    def test_binary_repeated_token(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"3 1\n" + b"".join(token + struct.pack("<f", 1.0)
                                             for token in (b"a ", b"b ", b"a ")))
        with pytest.raises(DuplicateLabel,
                           match="v.bin: token of vector 3 repeats an earlier one: 'a'"):
            read_word2vec_binary(path)


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

    @pytest.mark.parametrize("rows, dims", [(0, 3), (3, 0), (0, 0), (4, 5)])
    def test_file_is_header_and_payload(self, tmp_path, rows, dims):
        data = np.arange(rows * dims, dtype=np.float32).reshape(rows, dims) - 2.5
        m = LabeledMatrix(labels=[f"w{i}" for i in range(rows)], data=data)
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        assert (tmp_path / "m.emb1").read_bytes() == (
            b"EMB1" + struct.pack("<II", rows, dims) + data.astype("<f4").tobytes())

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

    @pytest.mark.parametrize("label", ["a\rb", "a\nb", "a\r\nb", "ab\n"])
    def test_label_with_a_line_break_is_not_written(self, tmp_path, label):
        m = LabeledMatrix(labels=["cat", label, "dog"], data=np.eye(3, dtype=np.float32))
        with pytest.raises(DataError, match="row 2 holds a line break"):
            write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        assert not (tmp_path / "m.emb1").exists()
        assert not (tmp_path / "m.labels").exists()

    def test_other_line_separators_round_trip(self, tmp_path):
        # only "\n" and "\r" end a line for read_native
        m = LabeledMatrix(labels=["a\x0bb", "a\x85b", "a\u2028b", ""],
                          data=np.eye(4, dtype=np.float32))
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        assert read_native(tmp_path / "m.emb1", tmp_path / "m.labels").labels == m.labels

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
# kept as a bitwise reference. It parses each line as it is read, and
# raises each error at the line the readers have always named; the first
# vector line, a skipped duplicate too, holding a nan, an inf or a value
# past float32 range is the non-finite line it returns.

def reference_read_text(path, header=False, on_duplicate="error"):
    labels, seen, rows = [], set(), []
    dims = None
    bad = None
    vector_lines = 0
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
            if not fields:
                raise ParseError("vector line has no values", path=str(path), line=lineno)
            if len(fields) != dims:
                raise DimensionMismatch(
                    f"{path}:{lineno}: expected {dims} values, got {len(fields)}")
            try:
                values = [float(v) for v in fields]
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", path=str(path), line=lineno)
            vector_lines += 1
            with np.errstate(over="ignore"):
                if bad is None and not np.isfinite(np.float32(values)).all():
                    bad = lineno
            if token in seen:
                if on_duplicate == "error":
                    raise DuplicateLabel(f"{path}:{lineno}: repeated token {token!r}")
                continue
            seen.add(token)
            labels.append(token)
            rows.append(values)
    if header and vector_lines != declared_rows:
        raise ParseError(f"header declares {declared_rows} rows, file has {vector_lines}",
                         path=str(path), line=1)
    with np.errstate(over="ignore"):
        data = np.array(rows, dtype=np.float32).reshape(len(labels), dims or 0)
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


@pytest.mark.filterwarnings("error")
class TestBlockReaderMatchesListReader:
    def check(self, path, monkeypatch, **kwargs):
        labels, data, bad = reference_read_text(path, **kwargs)
        # one line per chunk, a few lines, the default chunk
        for chunk in (1, 40, 100, matrixio._TEXT_CHUNK_CHARS):
            monkeypatch.setattr(matrixio, "_TEXT_CHUNK_CHARS", chunk)
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

    def test_float_grammar(self, tmp_path, monkeypatch):
        # underscores between digits, signs, padding and non-ASCII digits
        # parse as `float` parses them
        path = tmp_path / "v.txt"
        path.write_text("a 1_0 +1.5 -2\nb .5 5. 1e-50\nc \u0661\u0662 \t1 1e1_0\n",
                        encoding="utf-8")
        self.check(path, monkeypatch)
        assert read_text_embeddings(path).data[0].tolist() == [10.0, 1.5, -2.0]


def outcome(read, path, **kwargs):
    """What a reader returns, or the type, message and line of its error."""
    try:
        m = read(path, **kwargs)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(m, tuple):  # reference_read_text
        labels, data, bad = m
        if bad is not None:
            return ParseError, bad
        return labels, data.tobytes()
    return m.labels, m.data.tobytes()


def numbered_lines(rows, dims, seed=0):
    values = np.random.default_rng(seed).standard_normal((rows, dims)).astype(np.float32)
    return [f"w{i} " + " ".join(repr(float(v)) for v in row) for i, row in enumerate(values)]


class TestBatchErrorsNameTheirLine:
    """Whatever the chunk size, each error is the one a reader that parses
    every line as it reads it raises, at the same line."""

    # chunk sizes in characters: one line a chunk up to 4, then 3 or 5
    # lines of about 62 characters, then all of them
    @pytest.fixture(params=[1, 2, 3, 4, 128, 256, 1 << 20])
    def batch(self, request, monkeypatch):
        monkeypatch.setattr(matrixio, "_TEXT_CHUNK_CHARS", request.param)
        return request.param

    def check(self, tmp_path, lines, **kwargs):
        path = tmp_path / "v.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = outcome(read_text_embeddings, path, **kwargs)
        want = outcome(reference_read_text, path, **kwargs)
        if want[0] is ParseError and len(want) == 2:  # a non-finite row
            assert got[0] is ParseError and got[2] == want[1]
        else:
            assert got == want
        return got

    def edited(self, edits, rows=12):
        lines = numbered_lines(rows, 3)
        for lineno, line in edits.items():
            lines[lineno - 1] = line
        return lines

    def test_bad_field_in_the_middle_of_a_batch(self, tmp_path, batch):
        got = self.check(tmp_path, self.edited({6: "w5 0.1 oops 0.3"}))
        assert got[0] is ParseError and got[2] == 6

    def test_nan_in_the_first_line_of_a_batch(self, tmp_path, batch):
        got = self.check(tmp_path, self.edited({5: "w4 nan 0.2 0.3"}))
        assert got[0] is ParseError and got[2] == 5

    def test_tab_inside_a_field_is_one_bad_field(self, tmp_path, batch):
        got = self.check(tmp_path, self.edited({7: "w6 0.1 1\t2 0.3"}))
        assert got[0] is ParseError and got[2] == 7

    def test_past_float32_range(self, tmp_path, batch):
        got = self.check(tmp_path, self.edited({3: "w2 1e39 0.2 0.3"}))
        assert got[0] is ParseError and got[2] == 3

    @pytest.mark.parametrize("edits", [
        {6: "w5 0.1 0.2", 7: "w6 0.1 oops 0.3"},      # short line, then a bad field
        {6: "w5 0.1 oops 0.3", 7: "w6 0.1 0.2"},      # bad field, then a short line
        {6: "w5 0.1 oops 0.3", 7: "w6"},              # bad field, then no values
        {4: "w3 0.1 oops 0.3", 6: "w0 1 2 3"},        # bad field, then a duplicate
        {6: "w0 1 oops 3"},                           # a duplicate with a bad field
        {6: "w0 1 2 3", 9: "w8 0.1 oops 0.3"},        # a duplicate, then a bad field
        {2: "w1 nan 0 0", 9: "w8 0.1 oops 0.3"},      # non-finite, then a bad field
        {2: "w1 nan 0 0", 9: "w8 0.1 0.2"},           # non-finite, then a short line
    ])
    @pytest.mark.parametrize("on_duplicate", ["error", "first"])
    def test_first_error_in_line_order(self, tmp_path, batch, edits, on_duplicate):
        self.check(tmp_path, self.edited(edits), on_duplicate=on_duplicate)

    @pytest.mark.parametrize("line", ["w0 nan 0 0", "w0 0 inf 0", "w0 0 0 1e39",
                                      "w0 1 x 3"])
    def test_skipped_duplicates_are_parsed_and_checked(self, tmp_path, batch, line):
        # a skipped duplicate's values are not kept, but a bad one is an error
        got = self.check(tmp_path, self.edited({6: line}), on_duplicate="first")
        assert got[0] is ParseError and got[2] == 6
        got = self.check(tmp_path, self.edited({6: line, 9: "w8 nan 0 0"}),
                         on_duplicate="first")
        assert got[0] is ParseError and got[2] == 6

    def test_skipped_duplicates_count_toward_the_batch(self, tmp_path, batch, monkeypatch):
        sizes = []
        parse = matrixio._parse_chunk

        def recording(lines, dims):
            parsed = parse(lines, dims)
            assert parsed is not None  # numpy's C parser takes every chunk
            sizes.append(len(lines))
            return parsed

        monkeypatch.setattr(matrixio, "_parse_chunk", recording)
        lines = numbered_lines(1, 3) * 20
        assert self.check(tmp_path, lines, on_duplicate="first")[0] == ["w0"]
        # `readlines` stops at the line that reaches the chunk size
        per_chunk = min(20, -(-batch // (len(lines[0]) + 1)))
        assert sum(sizes) == 20 and max(sizes) == per_chunk

    def test_header_count_checked_after_every_line(self, tmp_path, batch):
        self.check(tmp_path, ["13 3"] + self.edited({}), header=True)
        got = self.check(tmp_path, ["13 3"] + self.edited({8: "w7 1 x 3"}), header=True)
        assert got[0] is ParseError and got[2] == 9


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
