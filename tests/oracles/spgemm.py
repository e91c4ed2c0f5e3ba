"""Row-by-row dict-accumulator SpGEMM: the reference oracle the
vectorized kernels (:func:`repro.dsparse.spgemm.spgemm_esc` and the masked
kernels of :mod:`repro.dsparse.masked`) are checked against.  Test-only:
nothing under ``src/`` imports it."""

from __future__ import annotations

import numpy as np

from repro.dsparse.coomat import CooMat
from repro.dsparse.semiring import Semiring


def spgemm_gustavson(A: CooMat, B: CooMat, semiring: Semiring) -> CooMat:
    """Row-by-row dict-accumulator reference SpGEMM.

    Semantically identical to :func:`spgemm_esc` (products are accumulated
    per output coordinate with the semiring's reduce applied to the collected
    group), but uses Python dictionaries — easy to audit, slow, and kept as
    the correctness oracle.
    """
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    out_shape = (A.shape[0], B.shape[1])
    b_rows = B.csr()
    acc: dict[tuple[int, int], list[np.ndarray]] = {}
    for t in range(A.nnz):
        i = int(A.row[t]); k = int(A.col[t])
        lo, hi = int(b_rows.indptr[k]), int(b_rows.indptr[k + 1])
        if lo == hi:
            continue
        bidx = b_rows.stored(np.arange(lo, hi))
        cvals, mask = semiring.multiply(
            np.broadcast_to(A.vals[t], (hi - lo, A.nfields)), B.vals[bidx])
        for s in range(hi - lo):
            if mask is not None and not mask[s]:
                continue
            acc.setdefault((i, int(b_rows.index[lo + s])), []).append(
                cvals[s])
    if not acc:
        return CooMat.empty(out_shape, semiring.out_nfields)
    keys = sorted(acc.keys())
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    stacked = []
    starts = []
    counts = []
    off = 0
    for k in keys:
        group = acc[k]
        stacked.extend(group)
        starts.append(off)
        counts.append(len(group))
        off += len(group)
    vals = np.vstack(stacked)
    reduced = semiring.reduce(vals, np.array(starts, dtype=np.int64),
                              np.array(counts, dtype=np.int64))
    return CooMat(out_shape, rows, cols, reduced, checked=True)
