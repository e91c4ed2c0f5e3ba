"""Row-wise distributed reduction: Algorithm 2's ``REDUCE(Row, 0, max)``.

Row reductions need one allreduce per process row (a block row's nonzeros
are spread over ``√P`` ranks).  The rest of the element-wise work of
Algorithm 2 (the ``M ≥ N`` compare, pruning ``R`` by ``I``) is local per
block and lives with the transitive reduction
(:mod:`repro.core.transitive_reduction`), which is why the paper counts no
communication for it (Section V-D).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..mpisim.comm import SimComm
from .coomat import CooMat
from .distmat import DistMat

__all__ = ["reduce_rows"]


def _row_reduce(A: CooMat, field: int, op_reduceat: Callable,
                identity: int) -> np.ndarray:
    """One block's per-row fold of value ``field`` into a dense vector."""
    out = np.full(A.shape[0], identity, dtype=np.int64)
    if A.nnz:
        indptr = A.csr_indptr()
        nz = np.diff(indptr) > 0
        out[np.flatnonzero(nz)] = op_reduceat.reduceat(A.vals[:, field],
                                                       indptr[:-1][nz])
    return out


def reduce_rows(A: DistMat, field: int, op_reduceat: Callable,
                identity: int, comm: SimComm | None = None,
                stage: str = "Reduce") -> np.ndarray:
    """Row-wise reduction of one value field → global dense vector.

    ``op_reduceat`` is a numpy ufunc (e.g. ``np.maximum``) whose ``reduceat``
    folds each row's entries inside every block (CSR row pointers, no
    Python loop over entries); the partial per-block-row vectors are then allreduced along each process row
    (charged to ``stage`` when ``comm`` is given).  Rows with no nonzeros
    hold ``identity``.
    """
    q = A.grid.q
    out = np.full(A.shape[0], identity, dtype=np.int64)
    for i in range(q):
        r0, r1 = int(A.row_bounds[i]), int(A.row_bounds[i + 1])
        partials = [_row_reduce(A.blocks[i][j], field, op_reduceat, identity)
                    for j in range(q)]
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
