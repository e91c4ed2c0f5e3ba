"""2D block-distributed sparse matrix.

A :class:`DistMat` mirrors CombBLAS's distribution (paper Section IV-D): the
``√P × √P`` process grid owns one block each, blocks use *local* coordinates,
and global index arithmetic goes through the grid's balanced block bounds.

Blocks are :class:`~repro.dsparse.coomat.CooMat`\\ s living in per-rank slots
of the simulated runtime.  Construction from global data models the initial
scatter; :meth:`to_global` gathers for verification (tests only — a real run
never materializes the global matrix, and neither do the pipeline stages).
:attr:`DistMat.T` is the transpose as a view: every block is the
:attr:`~repro.dsparse.coomat.CooMat.T` view of its mirror block, so a
matrix and its transpose are one copy of the entries.
"""

from __future__ import annotations

import numpy as np

from ..mpisim.grid import ProcessGrid2D, partition_by_owner
from .coomat import CooMat

__all__ = ["DistMat"]


class DistMat:
    """Sparse ``shape[0] × shape[1]`` matrix distributed over a 2D grid."""

    def __init__(self, shape: tuple[int, int], grid: ProcessGrid2D,
                 blocks: list[list[CooMat]], nfields: int) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.grid = grid
        self.blocks = blocks  # blocks[i][j] owned by rank grid.rank_of(i, j)
        self.nfields = nfields
        self.row_bounds = grid.row_bounds(self.shape[0])
        self.col_bounds = grid.col_bounds(self.shape[1])

    # -- construction ------------------------------------------------------
    @classmethod
    def from_coo(cls, shape: tuple[int, int], grid: ProcessGrid2D,
                 row: np.ndarray, col: np.ndarray, vals: np.ndarray
                 ) -> "DistMat":
        """Distribute global COO data onto the grid."""
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        if vals.ndim == 1:
            vals = vals[:, None]
        q = grid.q
        rb = grid.row_bounds(shape[0])
        cb = grid.col_bounds(shape[1])
        if row.shape[0] and not (0 <= row.min() and row.max() < shape[0] and
                                 0 <= col.min() and col.max() < shape[1]):
            raise ValueError(f"coordinates outside the {shape[0]}x{shape[1]} "
                             f"matrix")
        # One stable partition by owning block: each block's entries keep
        # their input order, as a boolean mask per block would leave them.
        order, cut = partition_by_owner(
            grid.owners_of(row, col, shape[0], shape[1]), q * q)
        blocks: list[list[CooMat]] = []
        for i in range(q):
            brow: list[CooMat] = []
            for j in range(q):
                mine = order[cut[i * q + j]:cut[i * q + j + 1]]
                block = CooMat(
                    (int(rb[i + 1] - rb[i]), int(cb[j + 1] - cb[j])),
                    row[mine] - rb[i], col[mine] - cb[j], vals[mine])
                brow.append(block)
            blocks.append(brow)
        return cls(shape, grid, blocks, vals.shape[1])

    @classmethod
    def empty(cls, shape: tuple[int, int], grid: ProcessGrid2D,
              nfields: int = 1) -> "DistMat":
        q = grid.q
        rb = grid.row_bounds(shape[0])
        cb = grid.col_bounds(shape[1])
        blocks = [[CooMat.empty((int(rb[i + 1] - rb[i]),
                                 int(cb[j + 1] - cb[j])), nfields)
                   for j in range(q)] for i in range(q)]
        return cls(shape, grid, blocks, nfields)

    # -- inspection ----------------------------------------------------------
    def nnz(self) -> int:
        """Global nonzero count (an ``MPI_Allreduce`` in a real run; the
        transitive-reduction loop's convergence test uses this)."""
        return sum(b.nnz for brow in self.blocks for b in brow)

    def block(self, i: int, j: int) -> CooMat:
        return self.blocks[i][j]

    def to_global(self) -> CooMat:
        """Gather all blocks into one global CooMat (verification only)."""
        rows, cols, vals = [], [], []
        for i in range(self.grid.q):
            for j in range(self.grid.q):
                b = self.blocks[i][j]
                rows.append(b.row + self.row_bounds[i])
                cols.append(b.col + self.col_bounds[j])
                vals.append(b.vals)
        if not rows:
            return CooMat.empty(self.shape, self.nfields)
        return CooMat(self.shape,
                      np.concatenate(rows) if rows else np.empty(0, np.int64),
                      np.concatenate(cols) if cols else np.empty(0, np.int64),
                      np.vstack(vals) if vals else np.empty((0, self.nfields)))

    # -- structural ops --------------------------------------------------------
    @property
    def T(self) -> "DistMat":
        """The transpose as a view: block ``(i, j)`` is block ``(j, i)``'s
        :attr:`~repro.dsparse.coomat.CooMat.T`, sharing its arrays.

        The paper's ``TRANSPOSE(A)`` (Algorithm 1 line 5) exchanges blocks
        across the grid diagonal; here no entry moves or is copied.  A view
        ships at its base's byte size, so SUMMA's broadcasts of ``Aᵀ``
        charge the same bytes from the same roots a formed transpose would.
        """
        q = self.grid.q
        blocks = [[self.blocks[j][i].T for j in range(q)] for i in range(q)]
        return DistMat((self.shape[1], self.shape[0]), self.grid, blocks,
                       self.nfields)

    def row_slice(self, lo: int, hi: int) -> "DistMat":
        """Rows ``[lo, hi)`` as a shorter DistMat on the same grid.

        The slice is re-blocked to the grid's balanced bounds for its new
        height — each destination block gathers, in order, the row ranges
        of the source blocks its global rows overlap (on a real grid, a
        block-column-local exchange).  Rows ascend across source blocks, so
        every block is canonical as gathered.  Viewed transposed, these are
        the strips of the blocked overlap mode:
        ``C[:, lo:hi] = A · A.row_slice(lo, hi).T``.
        """
        if not 0 <= lo <= hi <= self.shape[0]:
            raise ValueError(f"row slice [{lo}, {hi}) out of range for "
                             f"{self.shape[0]} rows")
        q = self.grid.q
        strip_rb = self.grid.row_bounds(hi - lo)
        blocks: list[list[CooMat]] = []
        for i in range(q):
            # Global rows of this destination block row.
            g0, g1 = lo + int(strip_rb[i]), lo + int(strip_rb[i + 1])
            brow: list[CooMat] = []
            for j in range(q):
                shape = (g1 - g0, int(self.col_bounds[j + 1] -
                                      self.col_bounds[j]))
                rows, cols, vals = [], [], []
                for si in range(q):
                    s0 = int(self.row_bounds[si])
                    o0 = max(g0, s0)
                    o1 = min(g1, int(self.row_bounds[si + 1]))
                    if o0 >= o1:
                        continue
                    b = self.blocks[si][j]
                    ptr = b.csr_indptr()
                    a, z = ptr[o0 - s0], ptr[o1 - s0]
                    rows.append(b.row[a:z] + (s0 - g0))
                    cols.append(b.col[a:z])
                    vals.append(b.vals[a:z])
                brow.append(CooMat(shape, np.concatenate(rows),
                                   np.concatenate(cols), np.vstack(vals),
                                   checked=True)
                            if rows else CooMat.empty(shape, self.nfields))
            blocks.append(brow)
        return DistMat((hi - lo, self.shape[1]), self.grid, blocks,
                       self.nfields)

    def copy(self) -> "DistMat":
        q = self.grid.q
        blocks = [[CooMat(self.blocks[i][j].shape,
                          self.blocks[i][j].row.copy(),
                          self.blocks[i][j].col.copy(),
                          self.blocks[i][j].vals.copy(), checked=True)
                   for j in range(q)] for i in range(q)]
        return DistMat(self.shape, self.grid, blocks, self.nfields)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DistMat(shape={self.shape}, grid={self.grid.q}x{self.grid.q},"
                f" nnz={self.nnz()})")
