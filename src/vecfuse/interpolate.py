"""Aligning two embedding spaces and fusing their features.

Terms missing from one space get a vector inferred from their nearest
overlapping neighbors (cosine-weighted average in the space where they do
exist), found in fixed-size tiles of query rows × shared rows. The
aligned spaces are concatenated and, optionally, passed through an SVD
that replaces the concatenation with U·Σ^1/2, shrinking directions that
both sources over-represent. The discount works from the c × c Gram
matrix of the c concatenated columns and writes the features block by
block, so its memory beyond the output is a fixed block budget plus c × c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, EmptyOverlap
from .matrixio import LabeledMatrix
from .parallel import run_split
from .rowmerge import unit_rows

DEFAULT_NEIGHBORS = 10
# Bytes of float64 similarities per inference tile, in one buffer that
# each worker of `_infer_rows` allocates once and reuses for every tile.
# Allocated anew for each tile, larger tiles made glibc trim and re-fault
# its heap: with 2 MiB tiles a fresh `fuse_two_source` benchmark child took
# 60k minor faults, against 12k-16k with 512 KiB tiles; reused 1 or 2 MiB
# tiles take 16k. On that corpus reused 1 and 2 MiB tiles run equally fast,
# both faster than 512 KiB ones. Each tile's argpartition indices take as
# many bytes again, so 2 MiB tiles hold 2 MiB more at the peak; on the
# larger corpus of the ROADMAP they spend 2.45 s in inference against
# 2.66 s for 1 MiB tiles.
_SIMS_BYTES = 1 << 20
# Below 16 query rows per tile a GEMM against every shared row degrades
# towards one GEMV per query; 64 x 1,024 tiles then timed fastest of
# 32 x 2,048 to 256 x 256 on 1,000 queries against 5k-40k shared rows.
# With 1 MiB tiles the switch to 2-D tiles comes at 8,192 shared rows.
_MIN_TILE_ROWS = 16
_TILE_COLS = 1024
# Bytes of each float64 row block the SVD discount widens and projects.
_GRAM_BYTES = 1 << 20


@dataclass
class OverlapIndex:
    """Shared/exclusive vocabulary split between two spaces, with the rows
    and unit copies of the shared vectors in each space."""

    a: LabeledMatrix
    b: LabeledMatrix
    shared: list
    only_a: list
    only_b: list
    a_shared_rows: np.ndarray
    b_shared_rows: np.ndarray
    a_shared_unit: np.ndarray
    b_shared_unit: np.ndarray


def build_overlap(a: LabeledMatrix, b: LabeledMatrix) -> OverlapIndex:
    """Index the vocabulary overlap; shared terms keep a's order."""
    a_row, b_row = a.label_index(), b.label_index()
    shared = [lab for lab in a.labels if lab in b_row]
    only_a = [lab for lab in a.labels if lab not in b_row]
    only_b = [lab for lab in b.labels if lab not in a_row]
    a_rows = np.array([a_row[lab] for lab in shared], dtype=np.int64)
    b_rows = np.array([b_row[lab] for lab in shared], dtype=np.int64)
    return OverlapIndex(
        a=a, b=b, shared=shared, only_a=only_a, only_b=only_b,
        a_shared_rows=a_rows, b_shared_rows=b_rows,
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


def _tile_shape(n: int) -> tuple:
    """(query rows, shared rows) of one similarity tile against `n` shared
    rows: every shared row while that leaves at least `_MIN_TILE_ROWS`
    query rows, else `_TILE_COLS` shared rows and as many query rows as
    `_SIMS_BYTES` holds."""
    rows = _SIMS_BYTES // (8 * max(n, 1))
    if rows >= _MIN_TILE_ROWS:
        return rows, n
    cols = min(n, _TILE_COLS)
    return max(1, _SIMS_BYTES // (8 * cols)), cols


def _nearest(query: np.ndarray, have_unit: np.ndarray, k: int, cols: int,
             sims: np.ndarray) -> tuple:
    """(negated similarities, shared indices) of the k shared rows nearest
    each row of the unit rows `query`, ordered by (-similarity, shared
    index), from tiles of `cols` shared rows. Each tile's exact top k is
    merged into the running top k by that order, which is total, so equal
    similarities go to the lower index across tiles too. `sims`, a float64
    buffer of at least len(query) × cols entries, holds each tile in turn.

    The query is negated once, not each tile: IEEE rounding is symmetric
    in sign, so (-q)·s is -(q·s) down to the bit, but for the sign of an
    exact zero, which every comparison ignores and `np.maximum(-neg, 0.0)`
    turns into +0.0 either way.
    """
    neg_query = np.negative(query)
    best = None
    for col in range(0, len(have_unit), cols):
        tile = have_unit[col:col + cols]
        # a contiguous view of the buffer, so that matmul writes it through BLAS
        neg = sims[:len(query) * len(tile)].reshape(len(query), len(tile))
        np.matmul(neg_query, tile.T, out=neg)
        top = _top_k(neg, min(k, neg.shape[1]))
        vals, top = np.take_along_axis(neg, top, axis=1), top + col
        if best is not None:
            vals = np.concatenate((best[0], vals), axis=1)
            top = np.concatenate((best[1], top), axis=1)
            order = np.lexsort((top, vals))[:, :k]
            vals = np.take_along_axis(vals, order, axis=1)
            top = np.take_along_axis(top, order, axis=1)
        best = vals, top
    return best


def _infer_rows(vecs: np.ndarray, have_unit: np.ndarray,
                want_shared: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write into `out` the inferred `want`-space row of each row of
    `vecs`, working in tiles of query rows × shared rows whose
    similarities fit `_SIMS_BYTES`. Runs of tiles go to `run_split`'s
    workers, each with one reused buffer of its own; a tile's shape does
    not depend on the worker count, so neither do the output bits.

    Neighbors are the k shared rows most cosine-similar to the query, equal
    similarities going to the lower shared index; a zero query is equally
    similar to every shared row.
    """
    k = min(k, len(have_unit))
    rows, cols = _tile_shape(len(have_unit))
    starts = range(0, len(vecs), rows)

    def part(lo, hi):
        # tiles lo..hi-1, with this worker's own buffer
        sims = np.empty(min(rows, len(vecs)) * cols)
        for start in starts[lo:hi]:
            neg, top = _nearest(unit_rows(vecs[start:start + rows]), have_unit, k, cols, sims)
            weights = np.maximum(-neg, 0.0)
            neighbors = want_shared[top].astype(np.float64)
            total = weights.sum(axis=1)
            sums = (weights[:, :, None] * neighbors).sum(axis=1)
            flat = total <= 0.0
            sums[~flat] /= total[~flat, None]
            sums[flat] = neighbors[flat].mean(axis=1)
            out[start:start + rows] = sums

    run_split(part, [*starts, len(vecs)])


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
    is returned even when the features are truncated. The features have
    the input's float dtype (float64 for any other input).

    The factors come from the c × c Gram matrix MᵀM, accumulated in
    float64 over row blocks: σ² are its eigenvalues and the features are
    M·V·Σ^-1/2, written block by block, so no float64 copy of M and no
    whole-matrix U is ever held. The Gram matrix squares the condition
    number, so a direction whose eigenvalue is at most λ_max · c · eps is
    treated as null: its singular value is 0 and its feature column is 0.
    A live direction's σ_j and feature column carry a relative error of
    about eps · (σ_max / σ_j)², where an SVD of M keeps about
    eps · σ_max / σ_j; past a condition number of about 1e4 that exceeds a
    float32 ulp. Each column's sign is fixed as `svd_factors` fixes it.
    """
    m = np.asarray(m)
    dtype = m.dtype if np.issubdtype(m.dtype, np.floating) else np.dtype(np.float64)
    r, c = m.shape
    if not 1 <= out_dims <= min(r, c):
        raise ValueError(f"out_dims must be in [1, {min(r, c)}], got {out_dims}")
    block = max(1, _GRAM_BYTES // (8 * c))
    gram = np.zeros((c, c))
    for start in range(0, r, block):
        rows = m[start:start + block].astype(np.float64)
        if not np.isfinite(rows).all():
            raise ConvergenceFailure("SVD did not converge: non-finite input")
        gram += rows.T @ rows
    try:
        eigvals, eigvecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}")
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    live = eigvals > eigvals[0] * c * np.finfo(np.float64).eps
    spectrum = np.sqrt(np.where(live, eigvals, 0.0))
    # features = M·V·Σ^-1/2; a null direction's column of the map is 0
    scale = np.zeros(c)
    scale[live] = 1.0 / np.sqrt(spectrum[live])
    project = eigvecs * scale
    features = np.empty((r, out_dims), dtype=dtype)
    peak = np.zeros(out_dims)
    negative = np.zeros(out_dims, dtype=bool)
    cols = np.arange(out_dims)
    for start in range(0, r, block):
        # the whole map, not its first out_dims columns, so that the kept
        # columns have the same bits at every truncation
        rows = (m[start:start + block].astype(np.float64) @ project)[:, :out_dims]
        pick = np.argmax(np.abs(rows), axis=0)
        vals = rows[pick, cols]
        # strictly larger: the first index wins a tie, as in svd_factors
        larger = np.abs(vals) > peak
        peak[larger] = np.abs(vals[larger])
        negative[larger] = vals[larger] < 0
        features[start:start + block] = rows
    if negative.any():
        features *= np.where(negative, -1.0, 1.0).astype(dtype)
    return features, spectrum[:min(r, c)]


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
    a, then terms only in b. A term's missing side is the average of the
    other space's vectors of the k shared terms most cosine-similar to it
    in its own space, weighted by similarity (negative similarities
    clamped to zero; if no weight is positive, the plain mean of the k).
    Equal similarities go to the earlier shared term, so a zero vector
    takes the first k shared terms. With `discount` off the raw
    concatenation is returned (dimensionality dims(a) + dims(b)) and
    `out_dims` is ignored.
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
    features, spectrum = svd_discount(concat, out_dims)
    return FusionResult(matrix=LabeledMatrix(labels=labels, data=features),
                        singular_values=spectrum)
