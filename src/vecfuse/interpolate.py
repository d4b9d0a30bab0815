"""Aligning two embedding spaces and fusing their features.

Terms missing from one space get a vector inferred from their nearest
overlapping neighbors (cosine-weighted average in the space where they do
exist). The aligned spaces are concatenated and, optionally, passed
through an SVD that replaces the concatenation with U·Σ^1/2, shrinking
directions that both sources over-represent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, EmptyOverlap
from .matrixio import LabeledMatrix
from .rowmerge import unit_rows

DEFAULT_NEIGHBORS = 10
# Bytes of float64 similarities per inference block. Larger blocks were
# barely faster and raised the peak RSS of a whole pipeline run.
_SIMS_BYTES = 1 << 19


@dataclass
class OverlapIndex:
    """Shared/exclusive vocabulary split between two spaces, with each
    space's label->row map and unit copies of the shared vectors."""

    a: LabeledMatrix
    b: LabeledMatrix
    shared: list
    only_a: list
    only_b: list
    a_shared_rows: np.ndarray
    b_shared_rows: np.ndarray
    a_shared_unit: np.ndarray
    b_shared_unit: np.ndarray
    a_index: dict
    b_index: dict


def build_overlap(a: LabeledMatrix, b: LabeledMatrix) -> OverlapIndex:
    """Index the vocabulary overlap; shared terms keep a's order."""
    b_index = b.label_index()
    shared = [lab for lab in a.labels if lab in b_index]
    shared_set = set(shared)
    only_a = [lab for lab in a.labels if lab not in shared_set]
    only_b = [lab for lab in b.labels if lab not in shared_set]
    a_index = a.label_index()
    a_rows = np.array([a_index[lab] for lab in shared], dtype=np.int64)
    b_rows = np.array([b_index[lab] for lab in shared], dtype=np.int64)
    return OverlapIndex(
        a=a, b=b, shared=shared, only_a=only_a, only_b=only_b,
        a_shared_rows=a_rows, b_shared_rows=b_rows, a_index=a_index, b_index=b_index,
        a_shared_unit=unit_rows(a.data[a_rows]) if len(shared) else np.zeros((0, a.dims)),
        b_shared_unit=unit_rows(b.data[b_rows]) if len(shared) else np.zeros((0, b.dims)),
    )


def _top_k(neg: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k smallest entries of `neg`, ordered by
    (value, index): the first k of a stable argsort, without sorting whole
    rows."""
    n = neg.shape[1]
    if k < n:
        cand = np.argpartition(neg, k, axis=1)[:, :k + 1]
    else:
        cand = np.broadcast_to(np.arange(n), neg.shape)
    vals = np.take_along_axis(neg, cand, axis=1)
    order = np.lexsort((cand, vals))
    top = np.take_along_axis(cand, order[:, :k], axis=1)
    if k < n:
        edge = np.take_along_axis(vals, order[:, k - 1:k + 1], axis=1)
        tied = edge[:, 0] == edge[:, 1]
        if tied.any():
            # the k-th value recurs past the k+1 candidates: only a full
            # sort knows which of its copies have the lowest indices
            top[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :k]
    return top


def _infer_rows(vecs: np.ndarray, have_unit: np.ndarray,
                want_shared: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write into `out` the inferred `want`-space row of each row of
    `vecs`, working in row blocks whose similarities fit `_SIMS_BYTES`.

    Neighbors are the k shared rows most cosine-similar to the query, equal
    similarities going to the lower shared index; a zero query is equally
    similar to every shared row.
    """
    n = len(have_unit)
    k = min(k, n)
    block = max(1, _SIMS_BYTES // (8 * max(n, 1)))
    for start in range(0, len(vecs), block):
        neg = unit_rows(vecs[start:start + block]) @ have_unit.T
        np.negative(neg, out=neg)
        top = _top_k(neg, k)
        weights = np.maximum(-np.take_along_axis(neg, top, axis=1), 0.0)
        neighbors = want_shared[top].astype(np.float64)
        total = weights.sum(axis=1)
        rows = (weights[:, :, None] * neighbors).sum(axis=1)
        flat = total <= 0.0
        rows[~flat] /= total[~flat, None]
        rows[flat] = neighbors[flat].mean(axis=1)
        out[start:start + block] = rows


def infer_missing(term: str, have: LabeledMatrix, want: LabeledMatrix,
                  index: OverlapIndex, k: int = DEFAULT_NEIGHBORS) -> np.ndarray:
    """Infer `term`'s vector in the `want` space.

    Takes the k overlapping terms most cosine-similar to `term` in the
    `have` space and averages their `want` vectors weighted by similarity
    (negative similarities clamped to zero; if every similarity is
    non-positive, the plain mean of the k neighbors is used instead).
    Equal similarities go to the earlier shared term, in a's order, so a
    zero vector takes the first k shared terms.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not index.shared:
        raise EmptyOverlap("the two spaces share no vocabulary")
    if have is index.a and want is index.b:
        row_of, have_unit, want_rows = index.a_index, index.a_shared_unit, index.b_shared_rows
    elif have is index.b and want is index.a:
        row_of, have_unit, want_rows = index.b_index, index.b_shared_unit, index.a_shared_rows
    else:
        raise ValueError("index was built for different matrices")
    row = row_of[term]
    out = np.empty((1, want.dims))
    _infer_rows(have.data[row:row + 1], have_unit, want.data[want_rows], k, out)
    return out[0]


def svd_factors(m: np.ndarray):
    """Thin SVD with a deterministic sign convention.

    Each left-singular column is flipped so its largest-magnitude entry
    is nonnegative. Singular values come back non-increasing.
    """
    m = np.asarray(m, dtype=np.float64)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}")
    pick = np.argmax(np.abs(u), axis=0)
    flip = u[pick, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0
    return u, s, vt


def svd_discount(m: np.ndarray, out_dims: int):
    """Redundancy-discounted features U·Σ^1/2, truncated to `out_dims`.

    Returns (features, singular_values); the full non-increasing spectrum
    is returned even when the features are truncated.
    """
    m = np.asarray(m, dtype=np.float64)
    r, c = m.shape
    if not 1 <= out_dims <= min(r, c):
        raise ValueError(f"out_dims must be in [1, {min(r, c)}], got {out_dims}")
    u, s, _vt = svd_factors(m)
    features = u * np.sqrt(s)[None, :]
    return features[:, :out_dims], s


@dataclass
class FusionResult:
    """Fused matrix over the union vocabulary plus the SVD spectrum
    (empty when the discount step was skipped)."""

    matrix: LabeledMatrix
    singular_values: np.ndarray


def fuse(a: LabeledMatrix, b: LabeledMatrix, k: int = DEFAULT_NEIGHBORS,
         out_dims: int | None = None, discount: bool = True) -> FusionResult:
    """Align, concatenate and (optionally) SVD-discount two spaces.

    Union vocabulary order: shared terms in a's order, then terms only in
    a, then terms only in b. Missing sides are inferred from the overlap;
    with `discount` off the raw concatenation is returned (dimensionality
    dims(a) + dims(b)) and `out_dims` is ignored.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    index = build_overlap(a, b)
    if (index.only_a or index.only_b) and not index.shared:
        raise EmptyOverlap("cannot infer missing vectors without shared terms")
    labels = index.shared + index.only_a + index.only_b
    da = a.dims
    ns, na = len(index.shared), len(index.only_a)
    concat = np.empty((len(labels), da + b.dims), dtype=np.float32)
    shared, only_a, only_b = concat[:ns], concat[ns:ns + na], concat[ns + na:]
    shared[:, :da] = a.data[index.a_shared_rows]
    shared[:, da:] = b.data[index.b_shared_rows]
    # the rows outside the overlap, in their source's order
    only_a[:, :da] = np.delete(a.data, index.a_shared_rows, axis=0)
    only_b[:, da:] = np.delete(b.data, index.b_shared_rows, axis=0)
    _infer_rows(only_a[:, :da], index.a_shared_unit, shared[:, da:], k, only_a[:, da:])
    _infer_rows(only_b[:, da:], index.b_shared_unit, shared[:, :da], k, only_b[:, :da])
    if not discount:
        return FusionResult(matrix=LabeledMatrix(labels=labels, data=concat),
                            singular_values=np.zeros(0))
    if out_dims is None:
        out_dims = concat.shape[1]
    features, spectrum = svd_discount(concat.astype(np.float64), out_dims)
    return FusionResult(
        matrix=LabeledMatrix(labels=labels, data=features.astype(np.float32)),
        singular_values=spectrum)
