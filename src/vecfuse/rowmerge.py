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

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidRank, PlanMismatch
from .labels import Standardizer
from .matrixio import LabeledMatrix

ZERO_NORM_THRESHOLD = 1e-12
UNIT_NORM_TOLERANCE = 1e-6

MERGE_STRATEGIES = ("zipf", "first", "unweighted")
# Bytes of the float64 rows of the groups of one size averaged in one call.
_MERGE_BYTES = 1 << 20


def zipf_weight(rank):
    """Pseudo-frequency of the token at 1-based frequency rank `rank`, an
    integer or an integer array."""
    low = np.min(rank)
    if low < 1:
        raise InvalidRank(f"rank must be >= 1, got {low}")
    return 1.0 / rank


@dataclass
class MergePlan:
    """Maps each output label to the raw rows that collapse into it.

    groups: label -> non-empty list of (raw row index, source rank), in
    ascending rank.
    """

    groups: dict


def build_merge_plan(matrix: LabeledMatrix, standardizer: Standardizer,
                     language: str = "en"):
    """Group matrix rows by standardized label.

    Returns (plan, kept) where `kept` lists the row indices whose labels
    standardized successfully; the plan indexes rows of matrix.take(kept).
    Rows whose labels normalize to nothing (pure punctuation) are dropped.
    Row `idx` of `matrix` has rank `idx + 1`, whether or not rows before
    it are dropped; rows join their group in ascending rank.
    """
    groups: dict = {}
    kept = []
    for idx, uri in enumerate(standardizer.uris(matrix.labels, language)):
        if uri is None:  # the label does not standardize
            continue
        groups.setdefault(uri, []).append((len(kept), idx + 1))
        kept.append(idx)
    return MergePlan(groups=groups), np.asarray(kept, dtype=np.int64)


def merge_standardized(matrix: LabeledMatrix, plan: MergePlan,
                       strategy: str = "zipf") -> LabeledMatrix:
    """Collapse each plan group into one row.

    zipf: average weighted by 1/rank; first: keep the lowest-rank row;
    unweighted: plain mean. Output rows are ordered by ascending group
    minimum rank, ties broken lexicographically by label.

    Raises PlanMismatch unless the plan covers each row once, in
    non-empty groups of ascending rank.
    """
    if strategy not in MERGE_STRATEGIES:
        raise ValueError(f"unknown merge strategy {strategy!r}")
    if not all(plan.groups.values()):
        raise PlanMismatch("plan has an empty group")
    ordered = sorted(plan.groups.items(), key=lambda kv: (kv[1][0][1], kv[0]))
    sizes = np.array([len(members) for _label, members in ordered], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(
        members for _label, members in ordered)), dtype=np.int64).reshape(-1, 2)
    rows, ranks = flat[:, 0], flat[:, 1]
    n_rows = len(matrix)
    if not np.array_equal(np.sort(rows), np.arange(n_rows)):
        raise PlanMismatch(
            f"plan covers {len(rows)} row references for a {n_rows}-row matrix")
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    if ((np.diff(ranks) < 0) & (np.diff(group_of) == 0)).any():
        raise PlanMismatch("plan group ranks are not ascending")

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
                    weights = zipf_weight(ranks[members])
                    out[at] = ((weights[:, :, None] * group).sum(axis=1)
                               / weights.sum(axis=1)[:, None])
                else:
                    out[at] = group.mean(axis=1)
    return LabeledMatrix(labels=[label for label, _members in ordered], data=out)


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
    """Scale each row to unit Euclidean norm; zero rows unchanged."""
    return _rescaled(matrix, normalize_rows_inplace)


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
