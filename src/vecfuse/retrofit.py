"""Expanded retrofitting over the union vocabulary.

Each step updates every row simultaneously: blend the graph-propagated
state S·W with the anchored original rows, halve anchored rows, then
L2-normalize nonzero rows. Out-of-vocabulary terms (zero original rows)
take values purely from their neighbors, stabilized by the unit
self-loops on the diagonal of S.

The step sweeps the rows in order of descending entry count, anchored
rows first, in blocks of `_PROD_BYTES // (8 * dims)` rows. Within a
block, the rows with more than k entries form a prefix, so entry k of
all of them is gathered and multiplied in one call and added to the
block's float64 sums. That is the same left-to-right sum per row as a
segmented reduction, in as many calls per block as its longest row has
entries. Memory grows with the vocabulary, not with the number of edges;
the gather plan holds 16 bytes per entry and is built once per problem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .kgraph import AssociationMatrix
from .matrixio import LabeledMatrix, write_native
from .parallel import run_split
from .rowmerge import normalize_rows_inplace

DEFAULT_ITERATIONS = 10

# float64 bytes of one row block's sums, and of the products S[i, j] * W[j]
# computed at once in it; each worker holds its own pair. Blocks of half
# the size on each of 2 workers made a step slower than 1 worker (7.7 ms
# against 7.4 ms on a 2-vCPU host; 5.3 ms with whole blocks): the gathers
# hold the interpreter lock, and smaller blocks take more of them.
_PROD_BYTES = 256 * 1024


@dataclass
class _Block:
    """Rows swept together: `rows` in descending entry count, all anchored
    or none; `widths[k]` rows have more than k entries."""

    rows: np.ndarray
    anchored: bool
    widths: list


@dataclass
class _SweepPlan:
    """Row blocks plus every entry's column and weight in sweep order:
    block by block, then entry k of each row in the block's prefix.
    Block b's entries start at `starts[b]`; the last item is their count."""

    blocks: list
    starts: list
    indices: np.ndarray
    data: np.ndarray


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
    # block rows -> _SweepPlan; the arrays above are not changed after
    # the first step
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.vocab)

    @property
    def dims(self) -> int:
        return self.w0.shape[1]

    def sweep_plan(self, block_rows: int) -> _SweepPlan:
        """The gather plan of a step in blocks of `block_rows` rows."""
        plan = self._plans.get(block_rows)
        if plan is None:
            plan = self._plans[block_rows] = _build_plan(self, block_rows)
        return plan


def _build_plan(problem: RetrofitProblem, block_rows: int) -> _SweepPlan:
    counts = np.diff(problem.indptr)
    # anchored rows first, each group by descending count; stable, so ties
    # keep row order
    order = np.lexsort((-counts, ~problem.anchored))
    n_anchored = int(problem.anchored.sum())
    blocks, positions, block_starts = [], [], [0]
    for anchored, g0, g1 in ((True, 0, n_anchored), (False, n_anchored, problem.size)):
        for b0 in range(g0, g1, block_rows):
            rows = order[b0:min(b0 + block_rows, g1)]
            c = counts[rows]
            # rows with more than k entries, for k = 0 .. longest row - 1
            widths = np.searchsorted(-c, -np.arange(c[0]), side="left").tolist()
            starts = problem.indptr[rows]
            positions.extend(starts[:n] + k for k, n in enumerate(widths))
            blocks.append(_Block(rows=rows, anchored=anchored, widths=widths))
            block_starts.append(block_starts[-1] + sum(widths))
    entries = np.concatenate(positions) if positions else np.zeros(0, np.int64)
    del positions
    return _SweepPlan(blocks=blocks, starts=block_starts, indices=problem.indices[entries],
                      data=problem.data[entries])


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
    the result is cast back to float32 storage. Rows are swept in blocks
    of `_PROD_BYTES // (8 * dims)` rows (at least one); since every row is
    summed on its own, the block size never changes a bit of the output.
    Runs of blocks, about equal in entries, go to `run_split`'s workers,
    each with `_PROD_BYTES` buffers of its own; a block's shape does not
    depend on the worker count, so neither do the output bits.
    """
    if w.shape != (problem.size, problem.dims):
        raise DimensionMismatch(
            f"state is {w.shape}, problem needs {(problem.size, problem.dims)}")
    block_rows = max(1, _PROD_BYTES // (8 * max(1, problem.dims)))
    plan = problem.sweep_plan(block_rows)
    out = np.empty((problem.size, problem.dims), dtype=np.float32)

    def part(lo, hi):
        # blocks lo..hi-1, with this worker's own buffers
        sums = np.empty((min(block_rows, problem.size), problem.dims))
        prods = np.empty_like(sums)
        pos = plan.starts[lo]
        for block in plan.blocks[lo:hi]:
            acc = sums[:len(block.rows)]
            for k, n in enumerate(block.widths):
                # widen the gathered rows (exact), then multiply in float64
                prod = prods[:n]
                prod[...] = w[plan.indices[pos:pos + n]]
                if k:
                    prod *= plan.data[pos:pos + n, None]
                    acc[:n] += prod
                else:
                    # assigned, not added to zero: a sum of -0.0 stays -0.0
                    np.multiply(prod, plan.data[pos:pos + n, None], out=acc[:n])
                pos += n
            acc[block.widths[0] if block.widths else 0:] = 0.0
            if block.anchored:
                acc += problem.w0[block.rows]
                acc *= 0.5
            normalize_rows_inplace(acc)
            out[block.rows] = acc

    run_split(part, plan.starts)
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
