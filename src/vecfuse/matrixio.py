"""Reading and writing embedding matrices.

Supports the text formats distributed by the GloVe and word2vec projects,
the word2vec binary format, and a native little-endian binary format that
round-trips bit-exactly (labels in a separate UTF-8 file, one per line).
"""

from __future__ import annotations

import os
import struct
import warnings
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
    open_utf8,
)

NATIVE_MAGIC = b"EMB1"
# what `read_text_embeddings` does with a repeated token
ON_DUPLICATE = ("error", "first")

# characters of a text vector file read and parsed at a time (`readlines`'
# hint). A chunk's temporaries are freed to the allocator each time; at
# 1 MiB, glibc then served a later stage's 1 MiB buffer from the heap, and
# fuse_two_source's peak RSS rose by 3 MB.
_TEXT_CHUNK_CHARS = 1 << 18
# the only characters numpy's C parser strips from a number and `float` rejects
_C_PARSER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# bytes read at a time while scanning word2vec binary tokens
_BINARY_CHUNK_BYTES = 1 << 16


@dataclass
class LabeledMatrix:
    """Ordered unique labels paired with a dense float32 embedding matrix."""

    labels: list
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise DimensionMismatch(f"matrix must be 2-d, got {self.data.ndim}-d")
        if len(self.labels) != self.data.shape[0]:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for {self.data.shape[0]} rows")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel("labels are not unique")

    @property
    def dims(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.data.shape[0]

    def label_index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    def take(self, indices) -> "LabeledMatrix":
        """The rows at `indices`, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledMatrix(labels=[self.labels[i] for i in indices],
                             data=self.data[indices])


def _check_field_count(fields, dims, path, lineno):
    if not fields:
        raise ParseError("vector line has no values", path=path, line=lineno)
    if len(fields) != dims:
        raise DimensionMismatch(
            f"{path}:{lineno}: expected {dims} values, got {len(fields)}")


def _parse_chunk(lines, dims):
    """(tokens, float64 values) of vector lines by one call of numpy's C
    parser, or None where it might not give what `_parse_lines` gives: a
    blank line, a line without values, a field the C parser rejects (its
    grammar is `float`'s less `1_0`, non-ASCII digits and the empty field
    of a repeated space; trailing spaces are cut off before it), a row of
    other than `dims` values, a warning, or one of the separators U+001C
    to U+001F, which the C parser strips from a field as whitespace and
    `float` does not."""
    text = "".join(lines)
    if any(sep in text for sep in _C_PARSER_ONLY_SPACE):
        return None
    # trailing spaces only make empty fields, which the line loop drops
    tokens, _, rests = zip(*[line.rstrip(" \n").partition(" ") for line in lines])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a token is cut off, so a field may start with "#"
            values = np.loadtxt(rests, delimiter=" ", comments=None,
                                dtype=np.float64, ndmin=2)
    except (ValueError, Warning):
        return None
    # the parser skips a line that is blank once its token is cut off
    if values.shape != (len(lines), dims or values.shape[1]):
        return None
    return tokens, values


def _parse_lines(lines, lineno, dims, path):
    """(tokens, float64 values, line numbers, error, dims) of the vector
    lines among `lines`, the first of which is line `lineno + 1`, parsed
    line by line with `float`'s grammar. The first bad line stops the
    parse; its error is returned, not raised, so that a repeated token
    before it can be reported first."""
    tokens, rows, linenos = [], [], []
    error = None
    for lineno, line in enumerate(lines, start=lineno + 1):
        line = line.rstrip("\n")
        if not line:
            continue
        token, _, rest = line.partition(" ")
        fields = rest.split(" ")
        if "" in fields:
            fields = [v for v in fields if v]
        if dims is None:
            dims = len(fields)
        try:
            _check_field_count(fields, dims, path, lineno)
        except DataError as exc:
            error = exc
            break
        tokens.append(token)
        rows.append(fields)
        linenos.append(lineno)
    try:
        values = np.array(rows, dtype=np.float64)
    except ValueError:
        for i, fields in enumerate(rows):
            try:
                [float(v) for v in fields]
            except ValueError as exc:
                error = ParseError(f"non-numeric field: {exc}", path=path, line=linenos[i])
                break
        else:
            raise  # numpy rejected a field that float accepts: not seen, kept loud
        del tokens[i:], rows[i:], linenos[i:]
        values = np.array(rows, dtype=np.float64)
    return tokens, values.reshape(len(rows), dims or 0), linenos, error, dims


def _new_tokens(tokens, seen, on_duplicate, path, linenos):
    """Indices of the tokens not in `seen`, which gets them, or None when
    all of them are new and distinct. Unless `on_duplicate` is "first", a
    repeated token is a `DuplicateLabel` naming its line."""
    fresh = set(tokens)
    if len(fresh) == len(tokens) and seen.isdisjoint(fresh):
        seen |= fresh
        return None
    kept = []
    for i, token in enumerate(tokens):
        if token not in seen:
            seen.add(token)
            kept.append(i)
        elif on_duplicate == "error":
            raise DuplicateLabel(f"{path}:{linenos[i]}: repeated token {token!r}")
    return kept


def _first_repeat(labels) -> int:
    """Index of the first label that repeats an earlier one; called only
    once `LabeledMatrix` has found a repeat."""
    seen = set()
    for i, label in enumerate(labels):
        if label in seen:
            return i
        seen.add(label)


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
    dimension, bytes that are not UTF-8, and a nan or inf anywhere, in a
    skipped duplicate too, are each a `ParseError` naming its line.

    The file is read `_TEXT_CHUNK_CHARS` at a time. Each chunk's values
    are parsed as doubles by one call of numpy's C parser, or, where that
    parser might differ, line by line with `float`'s grammar, and rounded
    once to float32; the float32 blocks are concatenated once at the end.
    Every error is raised at the line it would be raised at if each line
    were parsed as it is read.
    """
    if on_duplicate not in ON_DUPLICATE:
        raise ValueError(f"on_duplicate must be one of {ON_DUPLICATE}: {on_duplicate}")
    path_str = str(path)
    labels = []
    seen = set()
    blocks = []  # float32 rows kept from each chunk
    dims = None
    vector_lines = 0
    nonfinite_line = None  # first line with a nan, an inf or a value past float32

    with open_utf8(path) as f, np.errstate(over="ignore"):
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
        while lines := f.readlines(_TEXT_CHUNK_CHARS):
            parsed = _parse_chunk(lines, dims)
            if parsed is not None:
                tokens, values = parsed
                linenos = range(lineno + 1, lineno + 1 + len(lines))
                error, dims = None, values.shape[1]
            else:
                tokens, values, linenos, error, dims = _parse_lines(lines, lineno, dims,
                                                                    path_str)
            lineno += len(lines)
            vector_lines += len(tokens)
            kept = _new_tokens(tokens, seen, on_duplicate, path, linenos)
            if error is not None:
                raise error
            values = values.astype(np.float32)
            if nonfinite_line is None:
                bad = _first_nonfinite_row(values)
                if bad is not None:
                    nonfinite_line = linenos[bad]
            if kept is None:
                labels.extend(tokens)
            else:
                labels.extend([tokens[i] for i in kept])
                values = values[kept]
            if len(values):
                blocks.append(values)
    if header and vector_lines != declared_rows:
        raise ParseError(f"header declares {declared_rows} rows, file has {vector_lines}",
                         path=path_str, line=1)
    if nonfinite_line is not None:
        raise ParseError("non-finite value (nan, inf or past float32 range)",
                         path=path_str, line=nonfinite_line)
    if blocks:
        data = np.concatenate(blocks)
        del blocks  # freed before the labels are checked
    else:
        data = np.zeros((0, dims or 0), dtype=np.float32)
    return LabeledMatrix(labels=labels, data=data)


def read_word2vec_binary(path) -> LabeledMatrix:
    """Read the word2vec binary format (Google News distribution style).

    The header's counts are checked against the file size before anything
    is allocated; a nan or inf, and a token that still holds a line break
    once the newlines before it are stripped, are each a `ParseError`
    naming its vector, and a repeated token is a `DuplicateLabel` naming
    its vector. Tokens are scanned in chunks of `_BINARY_CHUNK_BYTES`,
    never the whole file.
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
    try:
        return LabeledMatrix(labels=labels, data=data)
    except DuplicateLabel:
        i = _first_repeat(labels)
        raise DuplicateLabel(f"{path}: token of vector {i + 1} repeats an earlier "
                             f"one: {labels[i]!r}") from None


def write_native(matrix: LabeledMatrix, matrix_path, labels_path) -> None:
    """Write the native artifact: EMB1 binary matrix + labels text file.
    A label holding a line break, or a first label starting with U+FEFF
    (read back as a byte order mark), could not be read back, and is a
    `DataError` naming its row, raised before either file is written."""
    rows, dims = matrix.data.shape
    text = "".join([label + "\n" for label in matrix.labels])
    if "\r" in text or text.count("\n") != rows:
        bad = next(i for i, label in enumerate(matrix.labels)
                   if "\n" in label or "\r" in label)
        raise DataError(f"{labels_path}: label of row {bad + 1} holds a line "
                        f"break: {matrix.labels[bad]!r}")
    if text.startswith("\ufeff"):
        raise DataError(f"{labels_path}: label of row 1 starts with a byte order "
                        f"mark: {matrix.labels[0]!r}")
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
    naming the file; a repeated label is a `DuplicateLabel` naming its
    line of the labels file.
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
    with open_utf8(labels_path) as f:
        labels = f.read().split("\n")
    if labels and labels[-1] == "":
        labels.pop()
    if len(labels) != rows:
        raise ChecksumOrLengthMismatch(
            f"{labels_path}: {len(labels)} labels for {rows} rows")
    try:
        return LabeledMatrix(labels=labels, data=data)
    except DuplicateLabel:
        i = _first_repeat(labels)
        raise DuplicateLabel(f"{labels_path}:{i + 1}: repeated label "
                             f"{labels[i]!r}") from None
