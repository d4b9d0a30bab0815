"""Reading and writing embedding matrices.

Supports the text formats distributed by the GloVe and word2vec projects,
the word2vec binary format, and a native little-endian binary format that
round-trips bit-exactly (labels in a separate UTF-8 file, one per line).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    ChecksumOrLengthMismatch,
    DataError,
    DimensionMismatch,
    DuplicateLabel,
    ParseError,
    TruncatedFile,
)

NATIVE_MAGIC = b"EMB1"
# what `read_text_embeddings` does with a repeated token
ON_DUPLICATE = ("error", "first")

# text lines whose value fields are converted by one numpy call; their
# field strings are held until then, so a batch is kept small
_TEXT_BATCH_LINES = 256
# bytes read at a time while scanning word2vec binary tokens
_BINARY_CHUNK_BYTES = 1 << 16


@dataclass
class LabeledMatrix:
    """Ordered unique labels paired with a dense float32 embedding matrix.

    `source_rank`, when present, is the 1-based frequency rank each row had
    in its original source file (both GloVe and word2vec list vocabularies
    in descending frequency order).
    """

    labels: list
    data: np.ndarray
    source_rank: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise DimensionMismatch(f"matrix must be 2-d, got {self.data.ndim}-d")
        if len(self.labels) != self.data.shape[0]:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for {self.data.shape[0]} rows")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel("labels are not unique")
        if self.source_rank is not None:
            self.source_rank = np.asarray(self.source_rank, dtype=np.int64)
            if self.source_rank.shape != (self.data.shape[0],):
                raise DimensionMismatch("one source_rank per row required")
            if len(self.source_rank) and self.source_rank.min() < 1:
                raise DimensionMismatch("source_rank values must be positive")

    @property
    def dims(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.data.shape[0]

    def label_index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    def take(self, indices) -> "LabeledMatrix":
        """Row subset preserving original source ranks."""
        indices = np.asarray(indices, dtype=np.int64)
        ranks = self.source_rank[indices] if self.source_rank is not None else None
        return LabeledMatrix(labels=[self.labels[i] for i in indices],
                             data=self.data[indices], source_rank=ranks)


def _check_field_count(fields, dims, path, lineno):
    if not fields:
        raise ParseError("vector line has no values", path=path, line=lineno)
    if len(fields) != dims:
        raise DimensionMismatch(
            f"{path}:{lineno}: expected {dims} values, got {len(fields)}")


def _parse_batch(fields, linenos, path) -> np.ndarray:
    """Float64 values of a batch of equally long field lists, converted by
    one numpy call (the grammar of `float`). If any field fails, the lines
    are parsed one by one, so the error names the first bad line."""
    try:
        return np.array(fields, dtype=np.float64)
    except ValueError:
        for line_fields, lineno in zip(fields, linenos):
            try:
                [float(v) for v in line_fields]
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno)
        raise  # numpy rejected a field that float accepts: not seen, kept loud


def _first_nonfinite_row(data: np.ndarray):
    """Index of the first row holding a nan or inf, or None."""
    finite = np.isfinite(data).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def read_text_embeddings(path, header: bool = False,
                         on_duplicate: str = "error") -> LabeledMatrix:
    """Read GloVe-style (no header) or word2vec text (header) vectors.

    The token is everything before the first U+0020; no other whitespace is
    treated as a separator, so messy tokens survive verbatim and are cleaned
    later by label standardization. `on_duplicate` is one of `ON_DUPLICATE`.
    A header's row count must match the vector lines, duplicates included;
    a vector line without values, a header declaring fewer than one
    dimension, and a nan or inf anywhere are each a `ParseError` naming
    its line.

    Each field is parsed as a double, `_TEXT_BATCH_LINES` lines per numpy
    call, and rounded once to float32; the float32 batches are
    concatenated once at the end. Every error is raised at the line it
    would be raised at if each line were parsed as it is read.
    """
    if on_duplicate not in ON_DUPLICATE:
        raise ValueError(f"on_duplicate must be one of {ON_DUPLICATE}: {on_duplicate}")
    path_str = str(path)
    labels = []
    seen = set()
    batches = []  # float32 rows of each parsed batch
    linenos = []
    dims = None
    vector_lines = 0
    # the unparsed value fields of the batch, the line of each, and which
    # of them are kept (a skipped duplicate is parsed but not stored)
    batch, batch_linenos, batch_kept = [], [], []

    def flush():
        if not batch:
            return
        values = _parse_batch(batch, batch_linenos, path_str)
        if len(batch_kept) != len(batch):
            values = values[batch_kept]
        batches.append(values.astype(np.float32))
        batch.clear()
        batch_linenos.clear()
        batch_kept.clear()

    with open(path, encoding="utf-8") as f, np.errstate(over="ignore"):
        # values past float32 range become inf and fail the finite check
        lineno = 0
        if header:
            head = f.readline()
            lineno += 1
            parts = head.split()
            if len(parts) != 2:
                raise ParseError(f"bad header {head!r}", path=path_str, line=lineno)
            try:
                declared_rows, dims = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"bad header {head!r}", path=path_str, line=lineno)
            if dims < 1:
                raise ParseError(f"header declares {dims} dimensions",
                                 path=path_str, line=lineno)
        for line in f:
            lineno += 1
            line = line.rstrip("\n")
            if not line:
                continue
            token, _, rest = line.partition(" ")
            fields = rest.split(" ")
            if "" in fields:
                fields = [v for v in fields if v]
            if dims is None:
                dims = len(fields)
            if len(fields) != dims or not fields:
                flush()
                _check_field_count(fields, dims, path_str, lineno)
            vector_lines += 1
            batch.append(fields)
            batch_linenos.append(lineno)
            if token in seen:
                if on_duplicate == "error":
                    flush()
                    raise DuplicateLabel(f"{path}:{lineno}: repeated token {token!r}")
            else:
                batch_kept.append(len(batch) - 1)
                seen.add(token)
                labels.append(token)
                linenos.append(lineno)
            if len(batch) >= _TEXT_BATCH_LINES:
                flush()
        flush()
    if header and vector_lines != declared_rows:
        raise ParseError(f"header declares {declared_rows} rows, file has {vector_lines}",
                         path=path_str, line=1)
    if batches:
        data = np.concatenate(batches)
        del batches  # freed before the finite check allocates
    else:
        data = np.zeros((0, dims or 0), dtype=np.float32)
    bad = _first_nonfinite_row(data)
    if bad is not None:
        raise ParseError("non-finite value (nan, inf or past float32 range)",
                         path=path_str, line=linenos[bad])
    ranks = np.arange(1, len(labels) + 1, dtype=np.int64)
    return LabeledMatrix(labels=labels, data=data, source_rank=ranks)


def read_word2vec_binary(path) -> LabeledMatrix:
    """Read the word2vec binary format (Google News distribution style).

    The header's counts are checked against the file size before anything
    is allocated; a nan or inf, and a token that still holds a line break
    once the newlines before it are stripped, are each a `ParseError`
    naming its vector. Tokens are scanned in chunks of
    `_BINARY_CHUNK_BYTES`, never the whole file.
    """
    with open(path, "rb") as f:
        header = f.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(f"bad binary header {header!r}", path=str(path))
        try:
            rows, dims = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad binary header {header!r}", path=str(path))
        if rows < 0:
            raise ParseError(f"negative counts in header {header!r}", path=str(path))
        if dims < 1:
            raise ParseError(f"header declares {dims} dimensions", path=str(path), line=1)
        vec_bytes = 4 * dims
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        if remaining < rows * (vec_bytes + 1):
            raise TruncatedFile(f"{path}: header declares {rows} vectors of {dims} "
                                f"floats, but only {remaining} bytes follow")
        labels = []
        data = np.empty((rows, dims), dtype="<f4")
        out = memoryview(data.reshape(-1).view(np.uint8))
        # records are scanned in `buf`, read `_BINARY_CHUNK_BYTES` at a time
        buf, pos = b"", 0
        for i in range(rows):
            end = buf.find(b" ", pos)
            if end >= 0:
                token_bytes = buf[pos:end]
            else:  # the token runs past the buffer: read on to its end
                pieces = [buf[pos:]]
                while end < 0:
                    buf = f.read(_BINARY_CHUNK_BYTES)
                    if not buf:
                        raise TruncatedFile(f"{path}: ended inside token {i + 1}")
                    end = buf.find(b" ")
                    pieces.append(buf if end < 0 else buf[:end])
                token_bytes = b"".join(pieces)
            # newlines before a token are tolerated separators
            token_bytes = token_bytes.lstrip(b"\n")
            if b"\n" in token_bytes or b"\r" in token_bytes:
                raise ParseError(f"token of vector {i + 1} holds a line break: "
                                 f"{token_bytes!r}", path=str(path))
            start = end + 1
            if start + vec_bytes > len(buf):
                buf = buf[start:] + f.read(max(_BINARY_CHUNK_BYTES, vec_bytes))
                start = 0
                if vec_bytes > len(buf):
                    raise TruncatedFile(f"{path}: ended inside vector {i + 1}")
            pos = start + vec_bytes
            out[i * vec_bytes:(i + 1) * vec_bytes] = buf[start:pos]
            try:
                labels.append(token_bytes.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ParseError(f"token {i + 1} is not UTF-8: {exc}", path=str(path))
    bad = _first_nonfinite_row(data)
    if bad is not None:
        raise ParseError(f"vector {bad + 1} has a non-finite value", path=str(path))
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"{path}: repeated token in binary vocabulary")
    ranks = np.arange(1, rows + 1, dtype=np.int64)
    return LabeledMatrix(labels=labels, data=data, source_rank=ranks)


def write_native(matrix: LabeledMatrix, matrix_path, labels_path) -> None:
    """Write the native artifact: EMB1 binary matrix + labels text file.
    A label holding a line break could not be read back, and is a
    `DataError` naming its row, raised before either file is written."""
    rows, dims = matrix.data.shape
    text = "".join([label + "\n" for label in matrix.labels])
    if "\r" in text or text.count("\n") != rows:
        bad = next(i for i, label in enumerate(matrix.labels)
                   if "\n" in label or "\r" in label)
        raise DataError(f"{labels_path}: label of row {bad + 1} holds a line "
                        f"break: {matrix.labels[bad]!r}")
    with open(matrix_path, "wb") as f:
        f.write(NATIVE_MAGIC)
        f.write(struct.pack("<II", rows, dims))
        f.write(np.ascontiguousarray(matrix.data, dtype="<f4").tobytes())
    with open(labels_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def read_native(matrix_path, labels_path) -> LabeledMatrix:
    """Read a native matrix; bit-exact inverse of write_native.

    The payload size is checked against the header before anything is
    allocated, and the payload is read straight into the result. Fewer
    than one dimension and a nan or inf value are each a `ParseError`
    naming the file.
    """
    with open(matrix_path, "rb") as f:
        head = f.read(12)
        if len(head) < 12 or head[:4] != NATIVE_MAGIC:
            raise BadMagic(f"{matrix_path}: not a native matrix file")
        rows, dims = struct.unpack("<II", head[4:12])
        if dims < 1:
            raise ParseError(f"header declares {dims} dimensions", path=str(matrix_path))
        expected = rows * dims * 4
        size = os.fstat(f.fileno()).st_size - len(head)
        if size != expected:
            raise ChecksumOrLengthMismatch(
                f"{matrix_path}: payload is {size} bytes, expected {expected}")
        data = np.empty((rows, dims), dtype="<f4")
        if f.readinto(data.reshape(-1).view(np.uint8)) != expected:
            raise TruncatedFile(f"{matrix_path}: ended inside the payload")
    bad = _first_nonfinite_row(data)
    if bad is not None:
        raise ParseError(f"row {bad + 1} has a non-finite value", path=str(matrix_path))
    with open(labels_path, encoding="utf-8") as f:
        labels = f.read().split("\n")
    if labels and labels[-1] == "":
        labels.pop()
    if len(labels) != rows:
        raise ChecksumOrLengthMismatch(
            f"{labels_path}: {len(labels)} labels for {rows} rows")
    ranks = np.arange(1, rows + 1, dtype=np.int64)
    return LabeledMatrix(labels=labels, data=data, source_rank=ranks)
