"""Local sparse matrix container with multi-field integer values.

:class:`CooMat` is the per-block storage of the distributed matrices: COO
coordinates plus an ``(nnz, nfields)`` ``int64`` value array (see
:mod:`repro.dsparse.semiring` for why values are field arrays).  Entries are
kept in canonical row-major order with unique coordinates, which every kernel
(SpGEMM, element-wise ops, reductions) relies on.

Because the canonical order *is* CSR order, a ``CooMat`` doubles as CSR
storage: :meth:`csr_indptr` is computed once and cached, and
:meth:`to_csr` exposes one value field as a :class:`scipy.sparse.csr_matrix`
**view** that shares the column-index and (for single-field matrices) value
arrays with the COO storage — no conversion pass.  The CSR side is what the
``scipy`` backend (:mod:`repro.dsparse.backend`) lowers scalar semirings
onto, and what the ESC kernel's expansion step indexes.

:attr:`CooMat.T` is the transpose as a **view**: it shares ``row``,
``col`` and ``vals`` with its base (swapped), and its storage order is its
own column-major order.  Kernels read lines through :meth:`CooMat.csr` /
:meth:`CooMat.csc`, which list each line's entries and, where storage is
not in that line order, the storage index of every one.  A view's CSR is
its base's CSC (one counting pass over the base, kept by the view) and
its CSC is its base's CSR (free), so ``A · Aᵀ`` reads both operands out
of one copy of ``A``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = ["CooMat", "Lines"]


class Lines(NamedTuple):
    """A matrix's entries line by line: rows for CSR, columns for CSC."""

    #: Line ``l`` holds positions ``indptr[l]:indptr[l + 1]``.
    indptr: np.ndarray
    #: Each position's other coordinate, ascending within its line.
    index: np.ndarray
    #: Each position's storage index; ``None`` means the identity.
    order: np.ndarray | None

    def stored(self, at: np.ndarray) -> np.ndarray:
        """Storage indices of the entries at line positions ``at``."""
        return at if self.order is None else self.order[at]


class CooMat:
    """Sorted, duplicate-free COO matrix with ``(nnz, nf)`` int64 values."""

    #: Storage is row-major; a :attr:`T` view's is column-major.
    transposed = False

    def __init__(self, shape: tuple[int, int], row: np.ndarray,
                 col: np.ndarray, vals: np.ndarray, *,
                 checked: bool = False) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.row = np.asarray(row, dtype=np.int64)
        self.col = np.asarray(col, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        if vals.ndim == 1:
            vals = vals[:, None]
        self.vals = vals
        if self.row.shape[0] != self.col.shape[0] or \
                self.row.shape[0] != self.vals.shape[0]:
            raise ValueError("row/col/vals length mismatch")
        if not checked:
            self._canonicalize()
        # Lazily-built derivatives (valid because entries are immutable once
        # canonical): the row pointer, per-field scipy CSR views, the CSC.
        self._indptr: np.ndarray | None = None
        self._csr: dict[int, sp.csr_matrix] = {}
        self._csc: Lines | None = None

    # -- construction ------------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, int], nfields: int = 1) -> "CooMat":
        return cls(shape, np.empty(0, np.int64), np.empty(0, np.int64),
                   np.empty((0, nfields), np.int64), checked=True)

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix | sp.sparray) -> "CooMat":
        """Build from a scipy sparse matrix (values cast to int64)."""
        coo = sp.coo_matrix(mat)
        return cls(coo.shape, coo.row.astype(np.int64),
                   coo.col.astype(np.int64), coo.data.astype(np.int64))

    def to_scipy(self, field: int = 0) -> sp.coo_matrix:
        """Export one value field as a scipy COO matrix (tests/inspection)."""
        return sp.coo_matrix((self.vals[:, field].astype(np.float64),
                              (self.row, self.col)), shape=self.shape)

    # -- invariants ---------------------------------------------------------
    def _canonicalize(self) -> None:
        from .spgemm import key_packs, stable_key_order  # spgemm imports us
        if self.row.shape[0] == 0:
            return
        # Builders that emit entries in row-major order (the batched A scan,
        # kernel outputs) skip the sort: strict monotonicity certifies both
        # canonical order and coordinate uniqueness in one linear pass.  The
        # packed key is trusted only where it cannot wrap; beyond int64 the
        # check and the sort run on the two coordinates.
        if key_packs(self.shape):
            key = self.keys()
            if bool(np.all(key[1:] > key[:-1])):
                return
            order = stable_key_order(key, self.shape[0] * self.shape[1])
        else:
            row, col = self.row, self.col
            if bool(np.all((row[1:] > row[:-1]) | ((row[1:] == row[:-1])
                                                   & (col[1:] > col[:-1])))):
                return
            order = np.lexsort((col, row))
        self.row = self.row[order]
        self.col = self.col[order]
        self.vals = self.vals[order]
        key_same = np.zeros(self.row.shape[0], dtype=bool)
        key_same[1:] = (self.row[1:] == self.row[:-1]) & \
                       (self.col[1:] == self.col[:-1])
        if key_same.any():
            raise ValueError("duplicate coordinates; reduce with a semiring first")

    # -- basic properties ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.row.shape[0])

    @property
    def nfields(self) -> int:
        return int(self.vals.shape[1])

    def keys(self) -> np.ndarray:
        """Packed (row, col) keys in storage order — unique per entry, and
        sorted unless this is a :attr:`T` view."""
        return self.row * np.int64(self.shape[1]) + self.col

    # -- derived forms --------------------------------------------------------
    def csr_indptr(self) -> np.ndarray:
        """CSR row pointer: the row counts, cumulated (cached).  Storage
        order does not enter, so a view reads it off its base's column
        counts, without the base's CSC pass."""
        if self._indptr is None:
            counts = np.bincount(self.row, minlength=self.shape[0])
            indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._indptr = indptr
        return self._indptr

    def csr(self) -> Lines:
        """The entries row by row: storage *is* CSR order, so this is the
        row pointer over the shared ``col`` array, with no permutation."""
        return Lines(self.csr_indptr(), self.col, None)

    def csc(self) -> Lines:
        """The entries column by column, rows ascending (cached).

        One linear CSR→CSC counting pass over a CSR whose ``data`` is
        ``arange(nnz)`` yields the storage index of every CSC position;
        nothing is compared or sorted, whatever the field count, and no
        value moves.  A :attr:`T` view reads the same pass as its own CSR
        and keeps it itself, so it lives no longer than the view.
        """
        if self._csc is None:
            self._csc = self._columns()
        return self._csc

    def _columns(self) -> Lines:
        csc = self._csr_over(np.arange(self.nnz, dtype=np.int64)).tocsc()
        return Lines(csc.indptr.astype(np.int64, copy=False),
                     self.row[csc.data], csc.data)

    @property
    def T(self) -> "CooMat":
        """The transpose as a view sharing this matrix's arrays."""
        return _Transposed(self)

    def to_csr(self, field: int = 0) -> sp.csr_matrix:
        """One value field as a CSR matrix sharing this matrix's storage.

        The canonical row-major order means ``col`` already *is* the CSR
        index array; the returned matrix aliases it (and, for single-field
        matrices, the value column) rather than copying.  Callers must treat
        the result as read-only.  Built once per field and cached.  (A view
        gathers the field into its CSR order: the one place a view's
        values are copied, which only a scalar lowering asks for.)
        """
        csr = self._csr.get(field)
        if csr is None:
            data = self.vals[:, field]
            order = self.csr().order
            if order is not None:
                data = data[order]
            if not data.flags.c_contiguous:
                data = np.ascontiguousarray(data)
            csr = self._csr[field] = self._csr_over(data)
        return csr

    def _csr_over(self, data: np.ndarray) -> sp.csr_matrix:
        """A CSR matrix of ``data`` over this matrix's (shared) indices."""
        lines = self.csr()
        csr = sp.csr_matrix(self.shape, dtype=np.int64)
        csr.indptr = lines.indptr
        csr.indices = lines.index
        csr.data = data
        return csr

    def pattern_csr(self) -> sp.csr_matrix:
        """The pattern with unit weights, sharing the cached CSR indices."""
        return self._csr_over(np.ones(self.nnz, dtype=np.int64))

    @classmethod
    def from_csr(cls, mat: sp.csr_matrix, *, checked: bool = False
                 ) -> "CooMat":
        """Build from a duplicate-free CSR matrix without re-sorting.

        CSR with sorted indices is already canonical COO order, so the only
        work is expanding ``indptr`` back into a row array; the produced
        matrix inherits the row pointer into its cache.  Duplicate
        coordinates (legal in raw scipy CSR) are rejected unless
        ``checked=True`` asserts the input has none — as with the
        constructor, only for callers that can prove it (scipy matmul /
        binop / conversion outputs cannot carry duplicates).

        The result takes ownership of ``mat``'s arrays where dtypes allow
        (no copy) and sorting may happen in place — do not mutate ``mat``
        or its buffers afterwards.
        """
        if not mat.has_sorted_indices:
            mat.sort_indices()
        indptr = mat.indptr.astype(np.int64, copy=False)
        col = mat.indices.astype(np.int64, copy=False)
        row = np.repeat(np.arange(mat.shape[0], dtype=np.int64),
                        np.diff(indptr))
        if not checked and col.shape[0] and \
                ((row[1:] == row[:-1]) & (col[1:] == col[:-1])).any():
            raise ValueError("duplicate coordinates; reduce with a semiring "
                             "first")
        out = cls(mat.shape, row, col,
                  mat.data.astype(np.int64, copy=False), checked=True)
        out._indptr = indptr
        return out

    def transpose(self) -> "CooMat":
        """``Aᵀ`` as a new, re-sorted matrix (the oracle :attr:`T` is
        tested against; runtime paths take the view)."""
        return CooMat((self.shape[1], self.shape[0]), self.col.copy(),
                      self.row.copy(), self.vals.copy())

    # -- slicing (block extraction) -------------------------------------------
    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "CooMat":
        """Block ``[r0:r1, c0:c1]`` with local (shifted) coordinates."""
        m = (self.row >= r0) & (self.row < r1) & \
            (self.col >= c0) & (self.col < c1)
        return CooMat((r1 - r0, c1 - c0), self.row[m] - r0,
                      self.col[m] - c0, self.vals[m], checked=True)

    def select(self, mask: np.ndarray) -> "CooMat":
        """Entries where ``mask`` is true (order preserved)."""
        return CooMat(self.shape, self.row[mask], self.col[mask],
                      self.vals[mask], checked=True)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CooMat(shape={self.shape}, nnz={self.nnz}, nf={self.nfields})"


class _Transposed(CooMat):
    """``base``ᵀ over ``base``'s own arrays (what :attr:`CooMat.T` returns).

    ``row`` / ``col`` are the base's ``col`` / ``row`` and ``vals`` is the
    base's, all in the base's storage order — column-major for the view.
    Its CSR is the base's CSC (computed once and kept by the view) and its
    CSC the base's CSR; it reports the base's byte size, so shipping it
    charges what shipping the base would.
    Selections and blocks of a view are views again, and its ``T`` is the
    base itself.
    """

    transposed = True

    def __init__(self, base: CooMat) -> None:
        self.shape = (base.shape[1], base.shape[0])
        self.row, self.col, self.vals = base.col, base.row, base.vals
        self._base = base
        self._indptr = None
        self._csr = {}
        self._csc = None     # here: the view's CSR, the base's columns

    @property
    def T(self) -> CooMat:
        return self._base

    def csr(self) -> Lines:
        if self._csc is None:
            self._csc = self._base._columns()
        return self._csc

    def csc(self) -> Lines:
        return self._base.csr()

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> CooMat:
        return self._base.submatrix(c0, c1, r0, r1).T

    def select(self, mask: np.ndarray) -> CooMat:
        return self._base.select(mask).T

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self._base!r}.T"
