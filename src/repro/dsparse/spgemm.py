"""Local semiring SpGEMM kernels.

:func:`spgemm_esc` computes ``C = A ⊗ B`` over a
:class:`~repro.dsparse.semiring.Semiring` by **expand-sort-compress**: all
products are materialized with numpy repeat/gather arithmetic, masked by
the semiring's validity check, lexsorted by output coordinate, and folded
with the semiring's segmented reduce.  No Python-level loop over nonzeros.

CombBLAS uses a hybrid hash/heap local multiply inside Sparse SUMMA (paper
Section IV-D); ESC is the vectorized equivalent appropriate for numpy.
Per-block kernel *selection* lives in :mod:`repro.dsparse.masked`.
"""

from __future__ import annotations

import numpy as np

from .coomat import CooMat
from .semiring import Semiring

__all__ = ["expand_products", "packed_order", "stable_key_order",
           "stable_key_sort", "key_packs", "spgemm_esc", "multiway_merge"]

_INT64_MAX = 2 ** 63 - 1


def key_packs(shape: tuple[int, int]) -> bool:
    """Whether every ``row * ncols + col`` key of ``shape`` fits int64."""
    return int(shape[0]) * int(shape[1]) <= _INT64_MAX


def _tagged_sort(keys: np.ndarray, bound: int
                 ) -> tuple[np.ndarray, int] | None:
    """``keys`` shifted left with each one's index in the low bits, sorted
    (ties break by index), and the shift; ``None`` when key and index bits
    together do not fit 63."""
    n = keys.shape[0]
    shift = n.bit_length()
    if int(bound).bit_length() + shift > 63:
        return None
    tagged = keys.astype(np.int64)
    tagged <<= np.int64(shift)
    tagged |= np.arange(n, dtype=np.int64)
    tagged.sort()
    return tagged, shift


def stable_key_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative keys ``< bound``.

    Each key is shifted left and its index put in the low bits, so ties
    break by index and one in-place (vectorized, unstable) ``sort`` of the
    tagged keys yields the stable order — several times faster than a
    stable argsort of the same keys.  Falls back to the stable argsort when
    key and index bits together do not fit 63.
    """
    sort = _tagged_sort(keys, bound)
    if sort is None:
        return np.argsort(keys, kind="stable")
    tagged, shift = sort
    tagged &= np.int64((1 << shift) - 1)
    return tagged


def stable_key_sort(keys: np.ndarray, bound: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``(keys[order], order)`` for ``order = stable_key_order(keys,
    bound)``, both read off the one tagged sort: the high bits are the
    sorted keys, so nothing is gathered through the order."""
    sort = _tagged_sort(keys, bound)
    if sort is None:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    tagged, shift = sort
    return tagged >> np.int64(shift), tagged & np.int64((1 << shift) - 1)


def packed_order(rows: np.ndarray, cols: np.ndarray,
                 shape: tuple[int, int]) -> np.ndarray:
    """Stable row-major sort order over (row, col) coordinate pairs.

    Packs both coordinates into one int64 key (``row * ncols + col``) and
    orders it with :func:`stable_key_order` — the same ordering as
    ``np.lexsort((cols, rows))`` from one sort of one key.  Shapes whose
    coordinate product would overflow int64 (matrices beyond ~9.2e18
    cells, far past any genomic workload) fall back to the two-key lexsort
    instead of wrapping silently.
    """
    if not key_packs(shape):
        return np.lexsort((cols, rows))
    return stable_key_order(rows * np.int64(shape[1]) + cols,
                            int(shape[0]) * int(shape[1]))


def _sort_reduce(out_shape: tuple[int, int], ci: np.ndarray, cj: np.ndarray,
                 cvals: np.ndarray, semiring: Semiring) -> CooMat:
    """The sort-compress tail of ESC: group products by output coordinate
    (stable, so each group keeps expansion order) and fold each group with
    the semiring's segmented reduce."""
    order = packed_order(ci, cj, out_shape)
    ci, cj, cvals = ci[order], cj[order], cvals[order]
    new_group = np.ones(ci.shape[0], dtype=bool)
    new_group[1:] = (ci[1:] != ci[:-1]) | (cj[1:] != cj[:-1])
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, ci.shape[0]))
    reduced = semiring.reduce(cvals, starts, counts)
    return CooMat(out_shape, ci[starts], cj[starts], reduced, checked=True)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lens)])``."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + \
        np.arange(int(lens.sum()), dtype=np.int64)


def expand_products(A: CooMat, B: CooMat):
    """Materialize all elementary products of A's nnz with B's rows.

    For each A-nonzero ``(i, k)``, pair it with every B-nonzero in row ``k``.
    Returns aligned index arrays ``(a_idx, b_at)``: ``a_idx`` into A's
    storage, ordered by A's entry order (so, for a row-major ``A``, the
    implied output rows are non-decreasing), and ``b_at`` into B's CSR
    (:meth:`~repro.dsparse.coomat.CooMat.csr`: ``B.csr().index[b_at]`` are
    the output columns, ``B.csr().stored(b_at)`` the storage indices — the
    same array unless ``B`` is a transposed view).  Only the A entries
    whose row of B is non-empty are expanded.  This is the expansion
    half of ESC, also reused by the 1D baseline's per-owner outer product.
    """
    b_indptr = B.csr_indptr()
    counts = b_indptr[A.col + 1] - b_indptr[A.col]
    has = np.flatnonzero(counts)
    counts = counts[has]
    return np.repeat(has, counts), _ranges(b_indptr[A.col[has]], counts)


def spgemm_esc(A: CooMat, B: CooMat, semiring: Semiring) -> CooMat:
    """Expand-sort-compress semiring SpGEMM (vectorized)."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    out_shape = (A.shape[0], B.shape[1])
    a_idx, b_at = expand_products(A, B)
    if a_idx.shape[0] == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    b_rows = B.csr()
    ci = A.row[a_idx]
    cj = b_rows.index[b_at]
    cvals, mask = semiring.multiply(A.vals[a_idx],
                                    B.vals[b_rows.stored(b_at)])
    if mask is not None:
        ci, cj, cvals = ci[mask], cj[mask], cvals[mask]
        if ci.shape[0] == 0:
            return CooMat.empty(out_shape, semiring.out_nfields)
    return _sort_reduce(out_shape, ci, cj, cvals, semiring)


def multiway_merge(parts: list[CooMat], semiring: Semiring,
                   shape: tuple[int, int]) -> CooMat:
    """Reduce several partial-result matrices into one (SUMMA accumulation).

    SUMMA produces ``√P`` partial products per block; their union is folded
    coordinate-wise with the semiring's reduce (the same "addition" the
    products would have met inside a single local multiply).
    """
    parts = [p for p in parts if p.nnz > 0]
    if not parts:
        return CooMat.empty(shape, semiring.out_nfields)
    rows = np.concatenate([p.row for p in parts])
    cols = np.concatenate([p.col for p in parts])
    vals = np.vstack([p.vals for p in parts])
    return _sort_reduce(shape, rows, cols, vals, semiring)
