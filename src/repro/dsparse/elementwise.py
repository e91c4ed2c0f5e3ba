"""Element-wise and row-wise distributed kernels.

These are the CombBLAS primitives Algorithm 2 composes around the SpGEMM:

* ``REDUCE(Row, 0, max)``  → :func:`reduce_rows`
* ``APPLY(x, add)``        → :func:`apply_vector` (on the reduced vector)
* ``DIMAPPLY(Row, v, return2nd)`` → :func:`dimapply_rows`
* ``M ≥ N`` intersection   → :func:`ewise_compare_mask`
* ``R ← R ∘ ¬I``           → :func:`prune_mask` (set difference on patterns)
* in-place APPLY/PRUNE on entries → :func:`apply_entries`, :func:`prune_entries`

Row reductions need one allreduce per process row (a block row's nonzeros are
spread over ``√P`` ranks); everything else is embarrassingly local, which is
why the paper counts no communication for the element-wise parts of the
transitive reduction (Section V-D).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..mpisim.comm import SimComm
from .backend import Backend, get_backend
from .coomat import CooMat
from .distmat import DistMat
from .membership import in_sorted, match_sorted

__all__ = [
    "reduce_rows",
    "apply_vector",
    "dimapply_rows",
    "ewise_compare_mask",
    "prune_mask",
    "apply_entries",
    "prune_entries",
]


def reduce_rows(A: DistMat, field: int, op_reduceat: Callable,
                identity: int, comm: SimComm | None = None,
                stage: str = "Reduce",
                backend: Backend | str | None = None) -> np.ndarray:
    """Row-wise reduction of one value field → global dense vector.

    ``op_reduceat`` is a numpy ufunc (e.g. ``np.maximum``) whose ``reduceat``
    folds each row's local entries (via the backend's row-reduction kernel);
    partial per-block-row vectors are then allreduced along each process row
    (charged to ``stage`` when ``comm`` is given).  Rows with no nonzeros
    hold ``identity``.
    """
    backend = get_backend(backend)
    q = A.grid.q
    out = np.full(A.shape[0], identity, dtype=np.int64)
    for i in range(q):
        r0, r1 = int(A.row_bounds[i]), int(A.row_bounds[i + 1])
        partials = [backend.row_reduce(A.blocks[i][j], field, op_reduceat,
                                       identity) for j in range(q)]
        if comm is not None:
            row_comm = comm.sub(A.grid.row_ranks(i))
            acc = row_comm.allreduce(partials, lambda a, b: op_reduceat(a, b),
                                     stage=stage)
        else:
            acc = partials[0]
            for p in partials[1:]:
                acc = op_reduceat(acc, p)
        out[r0:r1] = acc
    return out


def apply_vector(v: np.ndarray, f: Callable[[np.ndarray], np.ndarray]
                 ) -> np.ndarray:
    """``APPLY`` on a dense vector (Algorithm 2 line 6: add the fuzz x)."""
    return f(v)


def dimapply_rows(A: DistMat, v: np.ndarray, out_field: int = 0) -> DistMat:
    """``DIMAPPLY(Row, v, return2nd)``: replace every nonzero's value with
    its row's vector entry, keeping A's pattern (Algorithm 2 line 7 builds
    the maximal-suffix matrix M this way)."""
    q = A.grid.q
    blocks = []
    for i in range(q):
        r0 = int(A.row_bounds[i])
        brow = []
        for j in range(q):
            b = A.blocks[i][j]
            vals = np.empty((b.nnz, 1), dtype=np.int64)
            vals[:, 0] = v[b.row + r0]
            brow.append(CooMat(b.shape, b.row.copy(), b.col.copy(), vals,
                               checked=True))
        blocks.append(brow)
    return DistMat(A.shape, A.grid, blocks, 1)


def ewise_compare_mask(M: DistMat, N: DistMat,
                       predicate: Callable[[np.ndarray, np.ndarray], np.ndarray]
                       ) -> DistMat:
    """``I ← predicate(M, N)`` over the **intersection** of patterns.

    Returns a boolean-valued (0/1 single field) DistMat whose nonzeros are
    the intersection coordinates where the predicate holds — Algorithm 2
    line 8's ``I ← M ≥ N``, with the orientation checks folded into
    ``predicate`` by the caller.
    """
    if M.shape != N.shape:
        raise ValueError("shape mismatch")
    q = M.grid.q
    blocks = []
    for i in range(q):
        brow = []
        for j in range(q):
            mb, nb = M.blocks[i][j], N.blocks[i][j]
            im, inn = match_sorted(mb.keys(), nb.keys())
            if im.shape[0] == 0:
                brow.append(CooMat.empty(mb.shape, 1))
                continue
            hold = predicate(mb.vals[im], nb.vals[inn])
            sel = np.flatnonzero(hold)
            vals = np.ones((sel.shape[0], 1), dtype=np.int64)
            brow.append(CooMat(mb.shape, mb.row[im[sel]], mb.col[im[sel]],
                               vals, checked=True))
        blocks.append(brow)
    return DistMat(M.shape, M.grid, blocks, 1)


def prune_mask(R: DistMat, I: DistMat,
               backend: Backend | str | None = None) -> DistMat:
    """``R ← R ∘ ¬I``: drop R's entries whose coordinate appears in I.

    The paper phrases this as element-wise multiply with the negation, i.e.
    the set difference ``nonzeros(R) \\ nonzeros(I)`` (Section IV-E).
    """
    if R.shape != I.shape:
        raise ValueError("shape mismatch")
    backend = get_backend(backend)
    q = R.grid.q
    blocks = []
    for i in range(q):
        brow = []
        for j in range(q):
            rb, ib = R.blocks[i][j], I.blocks[i][j]
            if ib.nnz == 0 or rb.nnz == 0:
                brow.append(rb)
                continue
            keep = ~in_sorted(ib.keys(), rb.keys())
            brow.append(backend.select(rb, keep))
        blocks.append(brow)
    return DistMat(R.shape, R.grid, blocks, R.nfields)


def apply_entries(A: DistMat, f: Callable[[np.ndarray], np.ndarray],
                  nfields: int | None = None) -> DistMat:
    """In-place-style APPLY over nonzero values (returns a new DistMat).

    ``f`` maps an ``(nnz, nf)`` value block to new values; the pattern is
    unchanged.  This models the paper's in-place alignment flagging on C
    (Section IV-D).
    """
    q = A.grid.q
    nf = nfields if nfields is not None else A.nfields
    blocks = []
    for i in range(q):
        brow = []
        for j in range(q):
            b = A.blocks[i][j]
            vals = f(b.vals) if b.nnz else np.empty((0, nf), dtype=np.int64)
            brow.append(CooMat(b.shape, b.row.copy(), b.col.copy(),
                               np.asarray(vals, dtype=np.int64), checked=True))
        blocks.append(brow)
    return DistMat(A.shape, A.grid, blocks, nf)


def prune_entries(A: DistMat, keep: Callable[[np.ndarray], np.ndarray],
                  backend: Backend | str | None = None) -> DistMat:
    """PRUNE: keep nonzeros where ``keep(vals)`` is true (Algorithm 1 line 8)."""
    backend = get_backend(backend)
    q = A.grid.q
    blocks = []
    for i in range(q):
        brow = []
        for j in range(q):
            b = A.blocks[i][j]
            if b.nnz == 0:
                brow.append(b)
                continue
            brow.append(backend.select(
                b, np.asarray(keep(b.vals), dtype=bool)))
        blocks.append(brow)
    return DistMat(A.shape, A.grid, blocks, A.nfields)
