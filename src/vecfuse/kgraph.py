"""Edge-list ingestion and the sparse association matrix.

Relation labels are discarded: an edge between two terms contributes its
confidence weight symmetrically, duplicate pairs accumulate, rows are
L1-normalized off the diagonal, and every term gets a unit self-loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NonPositiveWeight, ParseError
from .labels import Standardizer

DEFAULT_MIN_COUNT = {"en": 4, "other": 3}
DEFAULT_MAX_WORDS = 3


@dataclass(frozen=True)
class Assertion:
    """One undirected edge between two standardized terms."""

    start: str
    end: str
    weight: float
    source: str


def load_assertions(path, standardizer: Standardizer | None = None) -> list:
    """Read a UTF-8 TSV edge list: start_uri, end_uri, weight, source.

    An empty weight field means 1.0 (PPDB-style unweighted edges). Labels
    are re-standardized so that file content and embedding vocabularies
    agree; edges that collapse onto a single term are dropped.
    """
    if standardizer is None:
        standardizer = Standardizer()
    assertions = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}",
                                 path=str(path), line=lineno)
            start_uri, end_uri, weight_field, source = fields
            if weight_field.strip() == "":
                weight = 1.0
            else:
                try:
                    weight = float(weight_field)
                except ValueError:
                    raise ParseError(f"bad weight {weight_field!r}",
                                     path=str(path), line=lineno)
            if weight <= 0:
                raise NonPositiveWeight(
                    f"{path}:{lineno}: weight must be positive, got {weight}")
            try:
                start = _restandardize(start_uri, standardizer)
                end = _restandardize(end_uri, standardizer)
            except (DataError, ValueError) as exc:
                raise ParseError(str(exc), path=str(path), line=lineno)
            if start == end:
                continue
            assertions.append(Assertion(start=start, end=end,
                                         weight=weight, source=source))
    return assertions


def _restandardize(uri: str, standardizer: Standardizer) -> str:
    # Lenient parse: input files may carry labels that are not yet in
    # normal form (mixed case, inflected); standardization fixes them.
    parts = uri.split("/", 3)
    if len(parts) != 4 or parts[0] != "" or parts[1] != "c" or not parts[3]:
        raise ValueError(f"not a /c/<language>/<text> uri: {uri!r}")
    return standardizer.uri(parts[3], parts[2])


def write_assertions(path, assertions) -> None:
    """Write assertions back out in the edge-list TSV format."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for a in assertions:
            f.write(f"{a.start}\t{a.end}\t{float(a.weight)!r}\t{a.source}\n")


def rescale_by_source(assertions) -> list:
    """Divide each weight by its data source's mean weight.

    Confidence scores are not comparable across sources; afterwards every
    source has mean weight 1.
    """
    if not assertions:
        raise ValueError("cannot rescale an empty assertion list")
    totals: dict = {}
    counts: dict = {}
    for a in assertions:
        totals[a.source] = totals.get(a.source, 0.0) + a.weight
        counts[a.source] = counts.get(a.source, 0) + 1
    means = {s: totals[s] / counts[s] for s in totals}
    return [replace(a, weight=a.weight / means[a.source]) for a in assertions]


def _term_language(uri: str) -> str:
    return uri.split("/", 3)[2]


def _term_words(uri: str) -> int:
    return uri.split("/", 3)[3].count("_") + 1


def filter_terms(assertions, min_count: dict | None = None,
                 max_words: int = DEFAULT_MAX_WORDS) -> list:
    """Drop assertions touching fringe terms.

    A term is excluded when it appears (on either side) in fewer input
    assertions than its language class requires, or has more than
    `max_words` underscore-joined words. Thresholds are computed once on
    the input counts; exclusion does not cascade.
    """
    if min_count is None:
        min_count = DEFAULT_MIN_COUNT
    other = min_count.get("other", DEFAULT_MIN_COUNT["other"])
    counts: dict = {}
    for a in assertions:
        counts[a.start] = counts.get(a.start, 0) + 1
        counts[a.end] = counts.get(a.end, 0) + 1

    def excluded(term: str) -> bool:
        if _term_words(term) > max_words:
            return True
        return counts[term] < min_count.get(_term_language(term), other)

    bad = {t for t in counts if excluded(t)}
    return [a for a in assertions if a.start not in bad and a.end not in bad]


@dataclass
class AssociationMatrix:
    """Sparse nonnegative term-by-term matrix in CSR form.

    Within each row, entries are stored in lexicographic order of the
    neighbor's label (not column index), so that every accumulation over a
    row is independent of how the vocabulary happens to be enumerated.
    The diagonal is exactly 1 everywhere; off-diagonal rows sum to 1 for
    connected terms and 0 for isolated ones.
    """

    vocab: list
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def size(self) -> int:
        return len(self.vocab)

    def toarray(self) -> np.ndarray:
        m = self.size
        out = np.zeros((m, m))
        for i in range(m):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            out[i, self.indices[lo:hi]] = self.data[lo:hi]
        return out


def canonical_csr(rows, cols, vals, vocab):
    """Build CSR arrays with per-row entries in neighbor-label order,
    summing duplicate coordinates. This is the retrofit matrix's only sort:
    relabelling keeps that order, so later steps move rows whole."""
    m = len(vocab)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    ranks = np.empty(m, dtype=np.int64)
    ranks[np.argsort(np.asarray(vocab, dtype=object), kind="stable")] = np.arange(m)
    order = np.lexsort((ranks[cols], rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    boundary = np.ones(len(rows), dtype=bool)
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(boundary)
    vals = np.add.reduceat(vals, starts)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[starts], minlength=m))])
    return indptr, cols[starts], vals


def build_association(assertions, extra_vocab=()) -> AssociationMatrix:
    """Accumulate symmetric weights, L1-normalize rows, add unit self-loops.

    The vocabulary is the union of assertion endpoints and `extra_vocab`
    (typically the embedding labels): extra_vocab keeps its own order and
    graph-only terms follow in lexicographic order. Self-edges are dropped,
    as `load_assertions` does, so the diagonal stays exactly 1. One sort
    places every entry, self-loops included.
    """
    assertions = [a for a in assertions if a.start != a.end]
    vocab = []
    index: dict = {}
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
    # a zero placeholder for every self-loop, so the sort gives it its slot
    rows.extend(range(m))
    cols.extend(range(m))
    vals.extend([0.0] * m)
    indptr, indices, data = canonical_csr(rows, cols, vals, vocab)

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
