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
    DimensionMismatch,
    DuplicateLabel,
    ParseError,
    TruncatedFile,
)

NATIVE_MAGIC = b"EMB1"

# float32 bytes per block of parsed text rows; the blocks are concatenated
# once at the end of the file
_TEXT_BLOCK_BYTES = 1 << 20


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


def _parse_floats(fields, dims, path, lineno):
    if not fields:
        raise ParseError("vector line has no values", path=path, line=lineno)
    if len(fields) != dims:
        raise DimensionMismatch(
            f"{path}:{lineno}: expected {dims} values, got {len(fields)}")
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno)


def _first_nonfinite_row(data: np.ndarray):
    """Index of the first row holding a nan or inf, or None."""
    finite = np.isfinite(data).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def read_text_embeddings(path, header: bool = False,
                         on_duplicate: str = "error") -> LabeledMatrix:
    """Read GloVe-style (no header) or word2vec text (header) vectors.

    The token is everything before the first U+0020; no other whitespace is
    treated as a separator, so messy tokens survive verbatim and are cleaned
    later by label standardization. `on_duplicate` is "error" or "first".
    A header's row count must match the vector lines, duplicates included;
    a vector line without values, a header declaring fewer than one
    dimension, and a nan or inf anywhere are each a `ParseError` naming
    its line.

    Each field is parsed as a double and rounded once to float32, in
    blocks of `_TEXT_BLOCK_BYTES` that are concatenated at the end.
    """
    if on_duplicate not in ("error", "first"):
        raise ValueError(f"on_duplicate must be 'error' or 'first': {on_duplicate}")
    labels = []
    seen = set()
    blocks = []
    block, filled = None, 0
    linenos = []
    dims = None
    vector_lines = 0
    with open(path, encoding="utf-8") as f, np.errstate(over="ignore"):
        # values past float32 range become inf and fail the finite check
        lineno = 0
        if header:
            head = f.readline()
            lineno += 1
            parts = head.split()
            if len(parts) != 2:
                raise ParseError(f"bad header {head!r}", path=str(path), line=lineno)
            try:
                declared_rows, dims = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"bad header {head!r}", path=str(path), line=lineno)
            if dims < 1:
                raise ParseError(f"header declares {dims} dimensions",
                                 path=str(path), line=lineno)
        for line in f:
            lineno += 1
            line = line.rstrip("\n")
            if not line:
                continue
            token, _, rest = line.partition(" ")
            fields = [v for v in rest.split(" ") if v]
            if dims is None:
                dims = len(fields)
            values = _parse_floats(fields, dims, str(path), lineno)
            vector_lines += 1
            if token in seen:
                if on_duplicate == "first":
                    continue
                raise DuplicateLabel(f"{path}:{lineno}: repeated token {token!r}")
            seen.add(token)
            labels.append(token)
            linenos.append(lineno)
            if block is None or filled == len(block):
                # sized only once a line has proved `dims`
                block = np.empty((max(1, _TEXT_BLOCK_BYTES // (4 * dims)), dims),
                                 dtype=np.float32)
                blocks.append(block)
                filled = 0
            block[filled] = values
            filled += 1
    if header and vector_lines != declared_rows:
        raise ParseError(f"header declares {declared_rows} rows, file has {vector_lines}",
                         path=str(path), line=1)
    if blocks:
        blocks[-1] = block[:filled]
        data = np.concatenate(blocks)
        del blocks, block  # freed before the finite check allocates
    else:
        data = np.zeros((0, dims or 0), dtype=np.float32)
    bad = _first_nonfinite_row(data)
    if bad is not None:
        raise ParseError("non-finite value (nan, inf or past float32 range)",
                         path=str(path), line=linenos[bad])
    ranks = np.arange(1, len(labels) + 1, dtype=np.int64)
    return LabeledMatrix(labels=labels, data=data, source_rank=ranks)


def read_word2vec_binary(path) -> LabeledMatrix:
    """Read the word2vec binary format (Google News distribution style).

    The header's counts are checked against the file size before anything
    is allocated; a nan or inf is a `ParseError` naming its vector.
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
        data = np.empty((rows, dims), dtype=np.float32)
        for i in range(rows):
            token_bytes = bytearray()
            while True:
                ch = f.read(1)
                if not ch:
                    raise TruncatedFile(f"{path}: ended inside token {i + 1}")
                if ch == b"\n" and not token_bytes:
                    continue  # tolerated separator before the token
                if ch == b" ":
                    break
                token_bytes.extend(ch)
            payload = f.read(vec_bytes)
            if len(payload) != vec_bytes:
                raise TruncatedFile(f"{path}: ended inside vector {i + 1}")
            try:
                labels.append(token_bytes.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ParseError(f"token {i + 1} is not UTF-8: {exc}", path=str(path))
            data[i] = np.frombuffer(payload, dtype="<f4")
    bad = _first_nonfinite_row(data)
    if bad is not None:
        raise ParseError(f"vector {bad + 1} has a non-finite value", path=str(path))
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"{path}: repeated token in binary vocabulary")
    ranks = np.arange(1, rows + 1, dtype=np.int64)
    return LabeledMatrix(labels=labels, data=data, source_rank=ranks)


def write_native(matrix: LabeledMatrix, matrix_path, labels_path) -> None:
    """Write the native artifact: EMB1 binary matrix + labels text file."""
    rows, dims = matrix.data.shape
    with open(matrix_path, "wb") as f:
        f.write(NATIVE_MAGIC)
        f.write(struct.pack("<II", rows, dims))
        f.write(np.ascontiguousarray(matrix.data, dtype="<f4").tobytes())
    with open(labels_path, "w", encoding="utf-8", newline="\n") as f:
        for label in matrix.labels:
            f.write(label + "\n")


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
