"""Expanded retrofitting over the union vocabulary.

The whole matrix is updated at once each step: blend the graph-propagated
state S·W with the anchored original rows, halve anchored rows, then
L2-normalize nonzero rows. Out-of-vocabulary terms (zero original rows)
take values purely from their neighbors, stabilized by the unit
self-loops on the diagonal of S.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import os

from .errors import DimensionMismatch
from .kgraph import AssociationMatrix
from .matrixio import LabeledMatrix, write_native
from .rowmerge import normalize_rows_inplace

DEFAULT_ITERATIONS = 10


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
    _w0_64: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.vocab)

    @property
    def dims(self) -> int:
        return self.w0.shape[1]

    def w0_64(self) -> np.ndarray:
        if self._w0_64 is None:
            self._w0_64 = self.w0.astype(np.float64)
        return self._w0_64


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
    the result is cast back to float32 storage.
    """
    if w.shape != (problem.size, problem.dims):
        raise DimensionMismatch(
            f"state is {w.shape}, problem needs {(problem.size, problem.dims)}")
    w64 = np.asarray(w, dtype=np.float64)
    out = np.zeros((problem.size, problem.dims))
    if len(problem.data):
        prod = problem.data[:, None] * w64[problem.indices]
        nonempty = problem.indptr[:-1] < problem.indptr[1:]
        starts = problem.indptr[:-1][nonempty]
        out[nonempty] = np.add.reduceat(prod, starts, axis=0)
    anchored = problem.anchored
    out[anchored] += problem.w0_64()[anchored]
    out[anchored] *= 0.5
    normalize_rows_inplace(out)
    return out.astype(np.float32)


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
