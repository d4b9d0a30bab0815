"""Collapsing raw embedding rows that share a standardized label.

Frequency is approximated by Zipf's law from each row's rank, its 1-based
position in its source file (both GloVe and word2vec list words in
descending frequency; the nth row gets pseudo-frequency 1/n), and rows
standardizing to the same label are combined by a weighted average.
The groups of one size are averaged together, as many per numpy call as
`_MERGE_BYTES` holds; each group is still summed over its rows in
ascending rank, so the bits are those of a loop over groups.

Every column and row norm of the package lives here too.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRank, PlanMismatch
from .labels import Standardizer
from .matrixio import LabeledMatrix

ZERO_NORM_THRESHOLD = 1e-12
UNIT_NORM_TOLERANCE = 1e-6

MERGE_STRATEGIES = ("zipf", "first", "unweighted")
# Bytes of the float64 rows of the groups of one size averaged in one call.
_MERGE_BYTES = 1 << 20
# Bytes of each float64 row block `l2_normalize_rows` widens and divides.
# A whole-matrix float64 copy and its square take twice the float32
# matrix's size apiece: on the `fuse_two_source` benchmark they raised the
# peak RSS by 5.4 MB in runs where glibc placed them on fresh pages.
_NORM_BYTES = 1 << 20


def zipf_weight(rank):
    """Pseudo-frequency of the token at 1-based frequency rank `rank`, an
    integer or an integer array."""
    low = np.min(rank)
    if low < 1:
        raise InvalidRank(f"rank must be >= 1, got {low}")
    return 1.0 / rank


def build_merge_plan(matrix: LabeledMatrix, standardizer: Standardizer,
                     language: str = "en") -> list:
    """The merge plan of `matrix`: the standardized label of each of its
    rows, in row order, or None for a row whose label normalizes to
    nothing (pure punctuation)."""
    return standardizer.uris(matrix.labels, language)


def merge_standardized(matrix: LabeledMatrix, plan: list,
                       strategy: str = "zipf") -> LabeledMatrix:
    """Collapse the rows of `matrix` that `plan`, one label per row, gives
    the same label into one row; a row labelled None is dropped.

    A row's rank is its position plus one. zipf: average weighted by
    1/rank; first: keep the lowest-rank row; unweighted: plain mean.
    Output rows come in order of each label's first row.

    Raises PlanMismatch when `plan` does not hold one label per row.
    """
    if strategy not in MERGE_STRATEGIES:
        raise ValueError(f"unknown merge strategy {strategy!r}")
    if len(plan) != len(matrix):
        raise PlanMismatch(f"plan has {len(plan)} labels for {len(matrix)} rows")
    number = {}  # label -> its number, in order of first appearance
    ids = np.fromiter((-1 if label is None else number.setdefault(label, len(number))
                       for label in plan), dtype=np.int64, count=len(plan))
    # grouped by number, each group in row order; None rows sort first
    rows = np.argsort(ids, kind="stable")[np.count_nonzero(ids < 0):]
    sizes = np.bincount(ids[rows])
    starts = np.cumsum(sizes) - sizes
    # every group's lowest-rank row in one gather: the whole of a one-row
    # group, and of every group under "first"
    out = matrix.data[rows[starts]]
    if strategy != "first":
        for size in sorted(set(sizes.tolist()) - {1}):
            of_size = np.flatnonzero(sizes == size)
            step = max(1, _MERGE_BYTES // (8 * size * max(matrix.dims, 1)))
            for at in np.split(of_size, range(step, len(of_size), step)):
                members = starts[at, None] + np.arange(size)
                group = matrix.data[rows[members]].astype(np.float64)
                if strategy == "zipf":
                    weights = zipf_weight(rows[members] + 1)  # rank = row + 1
                    out[at] = ((weights[:, :, None] * group).sum(axis=1)
                               / weights.sum(axis=1)[:, None])
                else:
                    out[at] = group.mean(axis=1)
    return LabeledMatrix(labels=list(number), data=out)


def _divide(data: np.ndarray, norms: np.ndarray) -> None:
    """Divide `data` in place by `norms` (one per row or column), skipping
    zero and already-unit slices: that keeps normalization exactly
    idempotent at the bit level, which downstream fixed-point behavior
    relies on; the deviation from exact unit norm is below 1e-6."""
    data /= np.where(
        (norms > ZERO_NORM_THRESHOLD) & (np.abs(norms - 1.0) > UNIT_NORM_TOLERANCE),
        norms, 1.0)


def _rescaled(matrix: LabeledMatrix, normalize) -> LabeledMatrix:
    """`matrix` with `normalize` applied in place to a float64 copy."""
    data = matrix.data.astype(np.float64)
    normalize(data)
    return LabeledMatrix(labels=list(matrix.labels), data=data.astype(np.float32))


def l1_normalize_columns(matrix: LabeledMatrix) -> LabeledMatrix:
    """Scale each column to unit absolute-value sum; zero columns unchanged."""
    return _rescaled(matrix, lambda data: _divide(data, np.abs(data).sum(axis=0)))


def l2_normalize_columns(matrix: LabeledMatrix) -> LabeledMatrix:
    """Scale each column to unit Euclidean norm; zero columns unchanged."""
    return _rescaled(matrix,
                     lambda data: _divide(data, np.sqrt((data * data).sum(axis=0))))


def l2_normalize_rows(matrix: LabeledMatrix) -> LabeledMatrix:
    """Scale each row to unit Euclidean norm; zero rows unchanged. Rows
    are widened to float64 and divided in blocks of `_NORM_BYTES`; every
    row is normalized on its own, so the blocks do not change a bit."""
    data = np.empty(matrix.data.shape, dtype=np.float32)
    block = max(1, _NORM_BYTES // (8 * max(1, matrix.dims)))
    for start in range(0, len(data), block):
        rows = matrix.data[start:start + block].astype(np.float64)
        normalize_rows_inplace(rows)
        data[start:start + block] = rows
    return LabeledMatrix(labels=list(matrix.labels), data=data)


def normalize_rows_inplace(data: np.ndarray) -> None:
    """L2-normalize the nonzero rows of a float64 matrix in place; rows
    already of unit norm are left as they are (see `_divide`)."""
    _divide(data, np.sqrt((data * data).sum(axis=1))[:, None])


def unit_rows(data: np.ndarray) -> np.ndarray:
    """Float64 unit rows for fusion's neighbour search; rows of norm at or
    below `ZERO_NORM_THRESHOLD` become zero. Unlike `normalize_rows_inplace`
    it divides near-unit rows too: the two policies stay apart by design,
    since one shared policy changes fused bits."""
    out = data.astype(np.float64)
    norms = np.sqrt((out * out).sum(axis=1))
    out /= np.where(norms > ZERO_NORM_THRESHOLD, norms, 1.0)[:, None]
    out[norms <= ZERO_NORM_THRESHOLD] = 0.0
    return out
