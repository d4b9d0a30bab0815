"""Edge-list ingestion and the sparse association matrix.

Relation labels are discarded: an edge between two terms contributes its
confidence weight symmetrically, duplicate pairs accumulate, rows are
L1-normalized off the diagonal, and every term gets a unit self-loop.

Edges are held in an `EdgeTable`: each term string once, int32 start and
end term ids, float64 weights and int32 source ids, plus the source
names. Loading, rescaling, term filtering and the association matrix are
numpy operations on its columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import DataError, NonPositiveWeight, ParseError, open_utf8
from .labels import StandardLabel, Standardizer, split_uri

DEFAULT_MIN_COUNT = {"en": 4, "other": 3}
DEFAULT_MAX_WORDS = 3
# characters of an edge file read and added at a time (`readlines`' hint);
# kept as small as matrixio's `_TEXT_CHUNK_CHARS`, for the same reason
_EDGE_CHUNK_CHARS = 1 << 18


class EdgeTable:
    """Edges as columns over a term list and a source list.

    Row r joins `terms[start[r]]` and `terms[end[r]]` with weight
    `weight[r]` from `sources[source[r]]`. Term strings are unique, so
    equal ids mean equal terms. Row order is input order; the lists may
    hold terms and sources that no row uses.
    """

    def __init__(self, terms, start, end, weight, source, sources):
        self.terms = terms
        self.start = np.asarray(start, dtype=np.int32)
        self.end = np.asarray(end, dtype=np.int32)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.source = np.asarray(source, dtype=np.int32)
        self.sources = sources

    @classmethod
    def concat(cls, tables) -> "EdgeTable":
        """The rows of `tables`, in order, over merged term and source
        lists; a lone table with rows is returned as it is, and tables
        without rows add nothing."""
        tables = [t for t in tables if len(t)]
        if len(tables) == 1:
            return tables[0]
        terms: dict = {}
        sources: dict = {}
        parts = []
        for t in tables:
            term_ids = np.array([terms.setdefault(s, len(terms)) for s in t.terms],
                                dtype=np.int32)
            source_ids = np.array([sources.setdefault(s, len(sources))
                                   for s in t.sources], dtype=np.int32)
            parts.append((term_ids[t.start], term_ids[t.end], t.weight,
                          source_ids[t.source]))
        if not parts:
            return cls([], (), (), (), (), [])
        start, end, weight, source = (np.concatenate(c) for c in zip(*parts))
        return cls(list(terms), start, end, weight, source, list(sources))

    def take(self, rows) -> "EdgeTable":
        """The rows selected by a slice, boolean mask or index array."""
        return EdgeTable(self.terms, self.start[rows], self.end[rows],
                         self.weight[rows], self.source[rows], self.sources)

    def without_sources(self, names) -> "EdgeTable":
        dropped = [i for i, name in enumerate(self.sources) if name in names]
        return self.take(~np.isin(self.source, dropped))

    def __len__(self) -> int:
        return len(self.weight)


def load_assertions(path, standardizer: Standardizer | None = None) -> EdgeTable:
    """Read a UTF-8 TSV edge list: start_uri, end_uri, weight, source.

    An empty weight field means 1.0 (PPDB-style unweighted edges); a
    weight that is not a positive finite number is a data error. Labels
    may be in any surface form (mixed case, inflected); they are
    re-standardized so that file content and embedding vocabularies
    agree, each distinct URI once; edges that collapse onto a single term
    are dropped.
    """
    if standardizer is None:
        standardizer = Standardizer()

    def label(uri):
        language, text = split_uri(uri)
        return standardizer.uri(text, language)
    return _read_edges(path, label, standardizer.uris)


def read_assertions(path) -> EdgeTable:
    """Read an edge list that `write_assertions` wrote. Its labels are
    checked to be standard URIs but are not standardized again."""
    return _read_edges(path, _standard_uri, lambda uris: list(map(_standard_uri, uris)))


def _read_edges(path, label, labels) -> EdgeTable:
    """The edge list at `path`, with `label(uri)` naming each distinct
    URI's term; a DataError or ValueError from it is reported at the
    URI's first line. `labels(uris)` names many URIs at once, None for
    one that `label` rejects.

    The file is read `_EDGE_CHUNK_CHARS` at a time, and each chunk is
    added in bulk, less its blank and `#` comment lines; a chunk with a
    line that is not an edge raises at the first such line."""
    edges = _EdgeReader(path, label, labels)
    lineno = 0
    with open_utf8(path) as f:
        while lines := f.readlines(_EDGE_CHUNK_CHARS):
            edges.add(lines, lineno)
            lineno += len(lines)
    return edges.table()


class _EdgeReader:
    """The terms, sources and edge columns of one edge file so far."""

    def __init__(self, path, label, labels):
        self.path = str(path)
        self.label, self.labels = label, labels
        self.ids: dict = {}         # raw URI -> term id
        self.term_ids: dict = {}    # term -> term id, in id order
        self.source_ids: dict = {}  # source -> source id, in id order
        self.columns = []           # (start, end, weight, source) of each chunk

    def table(self) -> EdgeTable:
        columns = [np.concatenate(c) for c in zip(*self.columns)] or [(), (), (), ()]
        return EdgeTable(list(self.term_ids), *columns, list(self.source_ids))

    def add(self, lines, lineno) -> None:
        """Add the edges of `lines`, the first of which is line `lineno + 1`,
        in one `add_chunk` call, or in two if blank or `#` comment lines
        must be dropped first; if a line is not an edge, `check_line`
        raises at the first such line."""
        if self.add_chunk(lines):
            return
        kept = [(i, line) for i, line in enumerate(lines, start=lineno + 1)
                if line.strip() and not line.startswith("#")]
        if not kept or self.add_chunk([line for _i, line in kept]):
            return
        for i, line in kept:
            self.check_line(line, i)
        raise AssertionError(f"{self.path}: add_chunk rejected lines {lineno + 1}"
                             f"-{lineno + len(lines)}, but no line is bad")

    def add_chunk(self, lines) -> bool:
        """Add the edges of `lines` with one split, one weight conversion
        and one `labels` call; False, with nothing added, if a line is
        blank, a comment or not an edge (`check_line` raises for it)."""
        n = len(lines)
        joined = "\t".join(lines)
        if joined.startswith("#") or "\n\t#" in joined:
            return False
        fields = joined.split("\t")
        # A line break only ever ends a field. With 4 fields a line, every
        # line-final field must be a 4th field, and then every line has 4.
        if (len(fields) != 4 * n
                or joined.count("\n") != "".join(fields[3::4]).count("\n")):
            return False
        weights = fields[2::4]
        try:
            weight = np.array(weights, dtype=np.float64)  # the grammar of `float`
        except ValueError:
            # an empty or blank weight means 1.0
            try:
                weight = np.array([w if w.strip() else "1" for w in weights],
                                  dtype=np.float64)
            except ValueError:
                return False
        if not (np.isfinite(weight).all() and (weight > 0).all()):
            return False
        # distinct URIs in order of first appearance, a start before its end
        uris = [None] * (2 * n)
        uris[0::2], uris[1::2] = fields[0::4], fields[1::4]
        ids = self.ids
        new = [uri for uri in dict.fromkeys(uris) if uri not in ids]
        try:
            terms = self.labels(new)
        except (DataError, ValueError):
            return False
        if None in terms:
            return False
        term_ids = self.term_ids
        for uri, term in zip(new, terms):
            ids[uri] = term_ids.setdefault(term, len(term_ids))

        start = np.fromiter(map(ids.__getitem__, fields[0::4]), np.int32, n)
        end = np.fromiter(map(ids.__getitem__, fields[1::4]), np.int32, n)
        sources = fields[3::4]
        keep = start != end
        if not keep.all():
            start, end, weight = start[keep], end[keep], weight[keep]
            sources = list(compress(sources, keep.tolist()))
        # a source's id is given at its first kept edge
        source_ids = self.source_ids
        raw_ids = {raw: source_ids.setdefault(raw.rstrip("\n"), len(source_ids))
                   for raw in dict.fromkeys(sources)}
        source = np.fromiter(map(raw_ids.__getitem__, sources), np.int32, len(sources))
        self.columns.append((start, end, weight, source))
        return True

    def check_line(self, line, lineno) -> None:
        """Raise the error of `line`, line `lineno`, if it is not an edge:
        its field count, its weight, then its start and end URIs."""
        path = self.path
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}",
                             path=path, line=lineno)
        start_uri, end_uri, weight_field, _source = fields
        if weight_field.strip():
            try:
                weight = float(weight_field)
            except ValueError:
                raise ParseError(f"bad weight {weight_field!r}", path=path, line=lineno)
            if not math.isfinite(weight):
                raise ParseError(f"non-finite weight {weight_field!r}", path=path, line=lineno)
            if weight <= 0:
                raise NonPositiveWeight(
                    f"{path}:{lineno}: weight must be positive, got {weight}")
        try:
            self.label(start_uri)
            self.label(end_uri)
        except (DataError, ValueError) as exc:
            raise ParseError(str(exc), path=path, line=lineno)


def _standard_uri(uri: str) -> str:
    StandardLabel.from_uri(uri)
    return uri


def write_assertions(path, table: EdgeTable) -> None:
    """Write an edge table out in the edge-list TSV format."""
    terms, sources = table.terms, table.sources
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join([f"{terms[s]}\t{terms[e]}\t{w!r}\t{sources[src]}\n"
                         for s, e, w, src in zip(table.start.tolist(), table.end.tolist(),
                                                 table.weight.tolist(),
                                                 table.source.tolist())]))


def rescale_by_source(table: EdgeTable) -> EdgeTable:
    """Divide each weight by its data source's mean weight.

    Confidence scores are not comparable across sources; afterwards every
    source has mean weight 1. `bincount` adds each source's weights left
    to right, in row order.
    """
    if not len(table):
        raise ValueError("cannot rescale an empty edge table")
    totals = np.bincount(table.source, weights=table.weight)
    # a source no row uses has total 0 and is never looked up
    means = totals / np.maximum(np.bincount(table.source), 1)
    return EdgeTable(table.terms, table.start, table.end,
                     table.weight / means[table.source], table.source, table.sources)


def filter_terms(table: EdgeTable, min_count: dict | None = None,
                 max_words: int = DEFAULT_MAX_WORDS) -> EdgeTable:
    """Drop edges touching fringe terms.

    A term is excluded when it appears (on either side) in fewer input
    edges than its language class requires, or has more than
    `max_words` underscore-joined words. Thresholds are computed once on
    the input counts; exclusion does not cascade.
    """
    if min_count is None:
        min_count = DEFAULT_MIN_COUNT
    other = min_count.get("other", DEFAULT_MIN_COUNT["other"])
    n = len(table.terms)
    counts = np.bincount(table.start, minlength=n) + np.bincount(table.end, minlength=n)
    bad = np.zeros(n, dtype=bool)
    for tid in np.flatnonzero(counts).tolist():
        language, text = split_uri(table.terms[tid])
        bad[tid] = (text.count("_") + 1 > max_words
                    or counts[tid] < min_count.get(language, other))
    return table.take(~(bad[table.start] | bad[table.end]))


@dataclass
class AssociationMatrix:
    """Sparse nonnegative term-by-term matrix in CSR form.

    The vocabulary is in label order, so columns are too, and within each
    row entries are stored in column order: every accumulation over a row
    is independent of how the terms happened to be enumerated. The
    diagonal is exactly 1 everywhere; off-diagonal rows sum to 1 for
    connected terms and 0 for isolated ones.
    """

    vocab: list
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def size(self) -> int:
        return len(self.vocab)


def _row_major_order(rows: np.ndarray, cols: np.ndarray, m: int) -> np.ndarray:
    """The stable permutation that sorts coordinates in [0, m) by (row,
    column), as `np.lexsort((cols, rows))` gives it, from one sort of one
    int64 key, in half the time; m * m fits in int64 for m below 3e9."""
    return np.argsort(rows * m + cols, kind="stable")


def build_association(table: EdgeTable) -> AssociationMatrix:
    """Accumulate symmetric weights, L1-normalize rows, add unit self-loops.

    The vocabulary is the terms some edge uses, in sorted order. Self-edges
    are dropped, as `load_assertions` does, so the diagonal stays exactly
    1. One sort places every entry, self-loops included.
    """
    keep = table.start != table.end
    start, end, weight = table.start[keep], table.end[keep], table.weight[keep]
    used = np.zeros(len(table.terms), dtype=bool)
    used[start] = True
    used[end] = True
    used_ids = np.flatnonzero(used).tolist()
    used_ids.sort(key=table.terms.__getitem__)
    vocab = [table.terms[i] for i in used_ids]
    m = len(vocab)
    position = np.zeros(len(table.terms), dtype=np.int64)
    position[used_ids] = np.arange(m)

    # Each edge gives (i, j) then (j, i), in row order, so that duplicate
    # coordinates are summed in input order; then a zero placeholder for
    # every self-loop, so the sort gives it its slot.
    n = len(start)
    rows = np.empty(2 * n + m, dtype=np.int64)
    cols = np.empty(2 * n + m, dtype=np.int64)
    vals = np.zeros(2 * n + m, dtype=np.float64)
    rows[0:2 * n:2] = cols[1:2 * n:2] = position[start]
    rows[1:2 * n:2] = cols[0:2 * n:2] = position[end]
    rows[2 * n:] = cols[2 * n:] = np.arange(m)
    vals[0:2 * n:2] = vals[1:2 * n:2] = weight
    # The retrofit matrix's only sort, and a stable one: column index is
    # label rank, and relabelling keeps the order, so later steps move rows
    # whole.
    order = _row_major_order(rows, cols, m)
    rows, cols, vals = rows[order], cols[order], vals[order]
    boundary = np.ones(len(rows), dtype=bool)
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    first = np.flatnonzero(boundary)
    data = np.add.reduceat(vals, first)
    indices = cols[first]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[first], minlength=m))])

    # L1-normalize the off-diagonal entries of each row, then set the
    # diagonal. The placeholders stay out of the row sums: an extra term
    # would regroup numpy's pairwise summation of long rows.
    diag = indices == np.repeat(np.arange(m), np.diff(indptr))
    off = data[~diag]
    counts = np.diff(indptr) - 1
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]
    data[~diag] = off / np.repeat(np.add.reduceat(off, starts), counts[nonempty])
    data[diag] = 1.0
    return AssociationMatrix(vocab=vocab, indptr=indptr, indices=indices, data=data)
