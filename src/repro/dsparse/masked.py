"""Masked semiring SpGEMM — output-pattern-pruned ESC.

CombBLAS's masked SpGEMM (paper Section IV-D) never materializes products
that fall outside a known output pattern.  :func:`spgemm_esc_masked` is the
reproduction's equivalent for the ESC kernel: after expansion, every
elementary product whose output coordinate is absent from the mask is
dropped **before** the semiring multiply and the sort/compress — the two
superlinear steps of ESC — so the kernel's cost tracks the mask's nnz, not
the full product's.

Byte-identity with ``unmasked ∩ mask`` is structural, not numeric: the
coordinate filter removes only *whole* output groups (a coordinate is either
in the mask or not) and the surviving products keep their expansion order,
so the stable sort produces exactly the groups — in exactly the within-group
order — that the unmasked kernel produces for those coordinates.  Order-
sensitive reduces (``PositionsSemiring``'s first-two-seeds backfill) are
therefore preserved verbatim.

Semirings that declare ``product_reduce_depth = k`` (the positions semiring:
its reduce reads a group's first two products plus the group size) get a
second pruning stage: after the stable key sort, only ``k`` products per
surviving group are gathered through the operand values and the semiring
multiply (:func:`_truncated_sort_reduce`), so the wide output-value arrays
never exist at elementary-product scale.

The ``spgemm_impl`` axis (:data:`repro.options.SPGEMM_IMPL`) selects between
this kernel's callers and the monolithic ESC path, which stays available as
the byte-identical oracle.
"""

from __future__ import annotations

import numpy as np

from .coomat import CooMat
from .semiring import Semiring
from .spgemm import _sort_reduce, expand_products, spgemm_esc

__all__ = ["mask_select", "spgemm_esc_masked"]

def _packable(shape: tuple[int, int]) -> bool:
    """Whether (row, col) coordinates of ``shape`` pack into one int64 key."""
    return not shape[0] or shape[0] <= (2 ** 63 - 1) // max(1, shape[1])


def mask_select(A: CooMat, mask: CooMat) -> CooMat:
    """Entries of ``A`` whose coordinates appear in ``mask`` (order kept).

    Both operands are canonical, so their packed key arrays are sorted and
    unique — membership is a single ``np.isin`` over int64 keys.
    """
    if A.shape != mask.shape:
        raise ValueError(f"mask shape {mask.shape} != matrix shape {A.shape}")
    if A.nnz == 0 or mask.nnz == 0:
        return CooMat.empty(A.shape, A.nfields)
    keep = np.isin(A.keys(), mask.keys(), assume_unique=True)
    return A.select(keep)


def spgemm_esc_masked(A: CooMat, B: CooMat, semiring: Semiring,
                      mask: CooMat) -> CooMat:
    """``(A ⊗ B) ∩ mask`` without materializing the unmasked product.

    ``mask`` is consulted for its coordinate pattern only (values ignored).
    Byte-identical to ``mask_select(spgemm_esc(A, B, semiring), mask)`` —
    see the module docstring for why.  Shapes whose coordinates cannot pack
    into int64 keys (beyond ~9.2e18 cells) fall back to exactly that
    compute-then-filter form rather than wrapping keys silently.
    """
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    out_shape = (A.shape[0], B.shape[1])
    if mask.shape != out_shape:
        raise ValueError(f"mask shape {mask.shape} != output shape "
                         f"{out_shape}")
    if not _packable(out_shape):
        return mask_select(spgemm_esc(A, B, semiring), mask)
    if mask.nnz == 0 or A.nnz == 0 or B.nnz == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    a_idx, b_idx = expand_products(A, B)
    if a_idx.shape[0] == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    ci = A.row[a_idx]
    cj = B.col[b_idx]
    # Coordinate prune FIRST: products outside the mask never reach the
    # semiring multiply or the sort.  Product keys repeat per group, so only
    # the mask side is assume_unique.
    keys = ci * np.int64(out_shape[1]) + cj
    keep = np.isin(keys, mask.keys())
    if not keep.all():
        a_idx, b_idx, keys = a_idx[keep], b_idx[keep], keys[keep]
        ci, cj = ci[keep], cj[keep]
    if keys.shape[0] == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    depth = semiring.product_reduce_depth
    if depth is not None:
        return _truncated_sort_reduce(out_shape, keys, ci, cj, a_idx, b_idx,
                                      A, B, semiring, depth)
    cvals, valid = semiring.multiply(A.vals[a_idx], B.vals[b_idx])
    if valid is not None:
        ci, cj, cvals = ci[valid], cj[valid], cvals[valid]
        if ci.shape[0] == 0:
            return CooMat.empty(out_shape, semiring.out_nfields)
    return _sort_reduce(out_shape, ci, cj, cvals, semiring)


def _truncated_sort_reduce(out_shape, keys, ci, cj, a_idx, b_idx, A, B,
                           semiring, depth):
    """Sort-compress that multiplies only ``depth`` products per group.

    The semiring declared (``product_reduce_depth``) that a fresh group's
    reduce reads only its first ``depth`` products plus the group size, so
    after the stable key sort only those products are gathered through the
    operand values and the semiring multiply — the wide value arrays never
    exist at elementary-product scale.  Byte-identical to the full
    multiply + :func:`~repro.dsparse.spgemm._sort_reduce` by the
    ``reduce_truncated`` contract (groups keep expansion order under the
    stable sort, exactly as in the full path).
    """
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    new_group = np.ones(sk.shape[0], dtype=bool)
    new_group[1:] = sk[1:] != sk[:-1]
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, sk.shape[0]))
    clipped = np.minimum(counts, depth)
    tstarts = np.cumsum(clipped) - clipped
    within = np.arange(int(clipped.sum()), dtype=np.int64) - \
        np.repeat(tstarts, clipped)
    sel = order[np.repeat(starts, clipped) + within]
    cvals, valid = semiring.multiply(A.vals[a_idx[sel]], B.vals[b_idx[sel]])
    if valid is not None:  # the depth contract forbids validity masks
        raise ValueError(f"{type(semiring).__name__} sets "
                         f"product_reduce_depth but multiply returned a "
                         f"validity mask")
    reduced = semiring.reduce_truncated(cvals, tstarts, counts)
    lead = order[starts]
    return CooMat(out_shape, ci[lead], cj[lead], reduced, checked=True)
