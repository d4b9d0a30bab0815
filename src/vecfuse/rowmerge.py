"""Collapsing raw embedding rows that share a standardized label.

Frequency is approximated by Zipf's law from each row's rank in its
source file (the nth most frequent token gets pseudo-frequency 1/n), and
rows standardizing to the same label are combined by a weighted average.
Every column and row norm of the package lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAfterNormalization, InvalidRank, PlanMismatch
from .labels import Standardizer
from .matrixio import LabeledMatrix

ZERO_NORM_THRESHOLD = 1e-12
UNIT_NORM_TOLERANCE = 1e-6

MERGE_STRATEGIES = ("zipf", "first", "unweighted")


def zipf_weight(rank: int) -> float:
    """Pseudo-frequency of the token at 1-based frequency rank `rank`."""
    if rank < 1:
        raise InvalidRank(f"rank must be >= 1, got {rank}")
    return 1.0 / rank


@dataclass
class MergePlan:
    """Maps each output label to the raw rows that collapse into it.

    groups: label -> list of (raw row index, source rank), ascending rank.
    """

    groups: dict

    def covered_indices(self):
        for members in self.groups.values():
            for idx, _rank in members:
                yield idx


def build_merge_plan(matrix: LabeledMatrix, standardizer: Standardizer,
                     language: str = "en"):
    """Group matrix rows by standardized label.

    Returns (plan, kept) where `kept` lists the row indices whose labels
    standardized successfully; the plan indexes rows of matrix.take(kept).
    Rows whose labels normalize to nothing (pure punctuation) are dropped.
    """
    if matrix.source_rank is None:
        raise PlanMismatch("matrix has no source ranks to merge by")
    groups: dict = {}
    kept = []
    for idx, raw in enumerate(matrix.labels):
        try:
            uri = standardizer.uri(raw, language)
        except (EmptyAfterNormalization, ValueError):
            continue
        new_idx = len(kept)
        kept.append(idx)
        groups.setdefault(uri, []).append((new_idx, int(matrix.source_rank[idx])))
    for members in groups.values():
        members.sort(key=lambda m: m[1])
    return MergePlan(groups=groups), np.asarray(kept, dtype=np.int64)


def merge_standardized(matrix: LabeledMatrix, plan: MergePlan,
                       strategy: str = "zipf") -> LabeledMatrix:
    """Collapse each plan group into one row.

    zipf: average weighted by 1/rank; first: keep the lowest-rank row;
    unweighted: plain mean. Output rows are ordered by ascending group
    minimum rank (ties broken lexicographically by label), and each output
    row inherits its group's minimum source rank.
    """
    if strategy not in MERGE_STRATEGIES:
        raise ValueError(f"unknown merge strategy {strategy!r}")
    n_rows = len(matrix)
    covered = sorted(plan.covered_indices())
    if covered != list(range(n_rows)):
        raise PlanMismatch(
            f"plan covers {len(covered)} row references for a {n_rows}-row matrix")

    ordered = sorted(plan.groups.items(), key=lambda kv: (kv[1][0][1], kv[0]))
    labels = [label for label, _members in ordered]
    ranks = np.array([members[0][1] for _label, members in ordered], dtype=np.int64)
    # every group's lowest-rank row in one gather: the whole of a one-row
    # group, and of every group under "first"
    out = matrix.data[np.array([members[0][0] for _label, members in ordered],
                               dtype=np.int64)]
    for gi, (_label, members) in enumerate(ordered):
        if len(members) == 1 or strategy == "first":
            continue
        rows = matrix.data[[m[0] for m in members]].astype(np.float64)
        if strategy == "zipf":
            weights = np.array([zipf_weight(r) for _i, r in members])
            merged = (weights[:, None] * rows).sum(axis=0) / weights.sum()
        else:
            merged = rows.mean(axis=0)
        out[gi] = merged
    return LabeledMatrix(labels=labels, data=out, source_rank=ranks)


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
    return LabeledMatrix(labels=list(matrix.labels), data=data.astype(np.float32),
                         source_rank=matrix.source_rank)


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
