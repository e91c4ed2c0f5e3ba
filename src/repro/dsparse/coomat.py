"""Local sparse matrix container with multi-field integer values.

:class:`CooMat` is the per-block storage of the distributed matrices: COO
coordinates plus an ``(nnz, nfields)`` ``int64`` value array (see
:mod:`repro.dsparse.semiring` for why values are field arrays).  Entries are
kept in canonical row-major order with unique coordinates, which every kernel
(SpGEMM, element-wise ops, reductions) relies on.

Because the canonical order *is* CSR order, a ``CooMat`` doubles as CSR
storage: :meth:`csr_indptr` is computed once and cached, and the shared
``col`` array is the CSR index array — no conversion pass.  :class:`Lines`
(row pointer, index, storage order) is the one line format every kernel
reads: the ESC kernel's expansion, the dot kernel's walks and the pattern
product's operands.  :func:`lines_by` is the one transposition: it lays
entries out along their other coordinate with one stable tagged sort.

:attr:`CooMat.T` is the transpose as a **view**: it shares ``row``,
``col`` and ``vals`` with its base (swapped), and its storage order is its
own column-major order.  Kernels read lines through :meth:`CooMat.csr` /
:meth:`CooMat.csc`, which list each line's entries and, where storage is
not in that line order, the storage index of every one.  A view's CSR is
its base's CSC (one :func:`lines_by` pass over the base, kept by the view)
and its CSC is its base's CSR (free), so ``A · Aᵀ`` reads both operands out
of one copy of ``A``.

:func:`coo_nbytes` is the byte size of a block of this layout — the one
entry-size rule that traffic charges and memory plans share.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["CooMat", "Lines", "coo_nbytes", "key_packs", "lines_by"]

_INT64_MAX = 2 ** 63 - 1


def coo_nbytes(nnz: int, nfields: int) -> int:
    """Bytes of an ``nnz``-entry :class:`CooMat` with ``nfields`` value
    fields: one int64 row index, one int64 column index and ``nfields``
    int64 payload fields per entry."""
    return int(nnz) * 8 * (2 + int(nfields))


def key_packs(shape: tuple[int, int]) -> bool:
    """Whether every ``row * ncols + col`` key of ``shape`` fits int64."""
    return int(shape[0]) * int(shape[1]) <= _INT64_MAX


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


def lines_by(line: np.ndarray, index: np.ndarray, n_lines: int,
             n_index: int | None = None) -> Lines:
    """Entries grouped into ``n_lines`` lines by ``line``, storage order
    kept inside each line: the transposition.

    For a matrix stored row-major, ``lines_by(col, row, n_cols)`` is its
    CSC with rows ascending in each column, the order a counting-sort
    CSR → CSC conversion gives.  One stable tagged sort of ``line``
    (:func:`~repro.dsparse.spgemm.stable_key_order`) gives each position's
    storage index; the pointer comes from the line counts, and no value
    moves.

    A caller that needs the pattern only passes ``n_index`` (every index
    below it, and each line's indices ascending in storage order, as in a
    canonical matrix): the sort then carries the index itself in place of
    the storage index, so nothing is gathered, and the lines come back as
    a fresh CSR pattern (``order`` None; ``index`` int32 where the sort
    ran on 32-bit words, a view of them, else int64).
    """
    from .spgemm import _tagged_sort, stable_key_order  # spgemm imports us
    indptr = np.zeros(n_lines + 1, dtype=np.int64)
    np.cumsum(np.bincount(line, minlength=n_lines), out=indptr[1:])
    sort = None if n_index is None else \
        _tagged_sort(line, n_lines, index, n_index)
    if sort is not None:
        tagged, shift = sort
        tagged &= tagged.dtype.type((1 << shift) - 1)
        if tagged.dtype == np.uint32:   # index < 2 ** 31: the same bits
            tagged = tagged.view(np.int32)
        return Lines(indptr, tagged, None)
    order = stable_key_order(line, n_lines)
    return Lines(indptr, index[order], order if n_index is None else None)


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
        # canonical): the row pointer and the CSC.
        self._indptr: np.ndarray | None = None
        self._csc: Lines | None = None

    # -- construction ------------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, int], nfields: int = 1) -> "CooMat":
        return cls(shape, np.empty(0, np.int64), np.empty(0, np.int64),
                   np.empty((0, nfields), np.int64), checked=True)

    # -- invariants ---------------------------------------------------------
    def _canonicalize(self) -> None:
        from .spgemm import stable_key_order  # spgemm imports us
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
        sorted unless this is a :attr:`T` view.  A shape whose keys would
        overflow int64 is refused by name rather than wrapped."""
        if not key_packs(self.shape):
            raise ValueError(f"(row, col) keys of a {self.shape[0]} x "
                             f"{self.shape[1]} matrix overflow int64")
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

        One :func:`lines_by` pass over the columns yields the storage
        index of every CSC position, whatever the field count, and no
        value moves.  A :attr:`T` view reads the same pass as its own CSR
        and keeps it itself, so it lives no longer than the view.
        """
        if self._csc is None:
            self._csc = self._columns()
        return self._csc

    def _columns(self) -> Lines:
        return lines_by(self.col, self.row, self.shape[1])

    @property
    def T(self) -> "CooMat":
        """The transpose as a view sharing this matrix's arrays."""
        return _Transposed(self)

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
