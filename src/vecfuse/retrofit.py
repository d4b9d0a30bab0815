"""Expanded retrofitting over the union vocabulary.

Each step updates every row simultaneously: blend the graph-propagated
state S·W with the anchored original rows, halve anchored rows, then
L2-normalize nonzero rows. Out-of-vocabulary terms (zero original rows)
take values purely from their neighbors, stabilized by the unit
self-loops on the diagonal of S. The step runs in row blocks of at most
`_PROD_BYTES` of float64 products, so its memory grows with the
vocabulary, not with the number of edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import os

from .errors import DimensionMismatch
from .kgraph import AssociationMatrix
from .matrixio import LabeledMatrix, write_native
from .rowmerge import normalize_rows_inplace

DEFAULT_ITERATIONS = 10

# float64 products S[i, j] * W[j] computed at once by one row block of a step
_PROD_BYTES = 256 * 1024


@dataclass
class RetrofitProblem:
    """One retrofitting run: association structure, seed matrix, anchors.

    S is stored CSR with per-row entries in neighbor-label order; every
    accumulation is therefore identical no matter how the vocabulary was
    enumerated, which makes the update permutation-equivariant down to
    the bit level.
    """

    vocab: list
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    w0: np.ndarray
    anchored: np.ndarray

    @property
    def size(self) -> int:
        return len(self.vocab)

    @property
    def dims(self) -> int:
        return self.w0.shape[1]


def assemble_problem(embeddings: LabeledMatrix, assoc: AssociationMatrix,
                     self_loops: bool = True) -> RetrofitProblem:
    """Align an embedding matrix with an association matrix.

    The union vocabulary lists embedding terms first (their order), then
    graph-only terms lexicographically. Graph-only terms get zero seed
    rows and no anchor. Embedding terms absent from the graph keep a bare
    unit self-loop so the update leaves them anchored in place. With
    `self_loops` off (ablation) every diagonal entry is dropped.

    Rows of `assoc` move whole to their slots, unsorted: neighbor-label
    order survives relabelling. Embedding rows should be L2-normalized.
    """
    if len(embeddings) == 0:
        raise DimensionMismatch("cannot assemble a problem from an empty matrix")
    emb_index = embeddings.label_index()
    vocab = list(embeddings.labels)
    vocab.extend(sorted(t for t in assoc.vocab if t not in emb_index))
    position = {term: i for i, term in enumerate(vocab)}
    m = len(vocab)

    remap = np.array([position[t] for t in assoc.vocab], dtype=np.int64)
    counts = np.diff(assoc.indptr)
    lengths = np.ones(m, dtype=np.int64)
    lengths[remap] = counts
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    rows = np.repeat(np.arange(m), lengths)
    # every row starts as a bare self-loop; graph rows then overwrite theirs
    indices, data = rows.copy(), np.ones(len(rows))
    moved = np.repeat(indptr[remap] - assoc.indptr[:-1], counts) + np.arange(len(assoc.data))
    indices[moved] = remap[assoc.indices]
    data[moved] = assoc.data
    if not self_loops:
        keep = indices != rows
        indices, data = indices[keep], data[keep]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=m))])

    w0 = np.zeros((m, embeddings.dims), dtype=np.float32)
    w0[: len(embeddings)] = embeddings.data
    anchored = np.zeros(m, dtype=bool)
    anchored[: len(embeddings)] = True
    return RetrofitProblem(vocab=vocab, indptr=indptr, indices=indices,
                           data=data, w0=w0, anchored=anchored)


def retrofit_step(problem: RetrofitProblem, w: np.ndarray) -> np.ndarray:
    """One simultaneous update of the whole matrix.

    Computes S·W + A·W0, halves anchored rows, and L2-normalizes nonzero
    rows. Products accumulate in float64 in each row's fixed entry order;
    the result is cast back to float32 storage. Rows are processed in
    blocks of at most `_PROD_BYTES` of products (at least one row each);
    since every row is reduced on its own, the block size never changes
    a bit of the output.
    """
    if w.shape != (problem.size, problem.dims):
        raise DimensionMismatch(
            f"state is {w.shape}, problem needs {(problem.size, problem.dims)}")
    indptr, indices, data = problem.indptr, problem.indices, problem.data
    out = np.empty((problem.size, problem.dims), dtype=np.float32)
    budget = max(1, _PROD_BYTES // (8 * max(1, problem.dims)))
    r0 = 0
    while r0 < problem.size:
        # the most rows whose entries fit the budget: at least one row, and
        # at most `budget` rows so that runs of empty rows stay bounded too
        r1 = int(np.searchsorted(indptr, indptr[r0] + budget, side="right")) - 1
        r1 = min(max(r1, r0 + 1), r0 + budget)
        lo, hi = indptr[r0], indptr[r1]
        block = np.zeros((r1 - r0, problem.dims))
        # float32 -> float64 is exact, so widening w and w0 block by block
        # gives the bits of widening them whole
        if hi > lo:
            prod = data[lo:hi, None] * w[indices[lo:hi]]
            starts = indptr[r0:r1]
            nonempty = starts < indptr[r0 + 1:r1 + 1]
            block[nonempty] = np.add.reduceat(prod, starts[nonempty] - lo, axis=0)
        anchored = problem.anchored[r0:r1]
        block[anchored] += problem.w0[r0:r1][anchored]
        block[anchored] *= 0.5
        normalize_rows_inplace(block)
        out[r0:r1] = block
        r0 = r1
    return out


def retrofit(problem: RetrofitProblem, iterations: int = DEFAULT_ITERATIONS,
             checkpoint_dir=None) -> LabeledMatrix:
    """Run `iterations` update steps starting from the seed matrix.

    With `checkpoint_dir`, every intermediate iterate is written there in
    the native matrix format (iterate_01.emb1, ...).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    w = problem.w0
    for step in range(1, iterations + 1):
        w = retrofit_step(problem, w)
        if checkpoint_dir is not None:
            write_native(LabeledMatrix(labels=list(problem.vocab), data=w),
                         os.path.join(checkpoint_dir, f"iterate_{step:02d}.emb1"),
                         os.path.join(checkpoint_dir, f"iterate_{step:02d}.labels"))
    return LabeledMatrix(labels=list(problem.vocab), data=w)
