"""2D block-distributed sparse matrix.

A :class:`DistMat` mirrors CombBLAS's distribution (paper Section IV-D): the
``√P × √P`` process grid owns one block each, blocks use *local* coordinates,
and global index arithmetic goes through the grid's balanced block bounds.

Blocks are :class:`~repro.dsparse.coomat.CooMat`\\ s living in per-rank slots
of the simulated runtime.  Construction from global data models the initial
scatter; :meth:`to_global` gathers for verification (tests only — a real run
never materializes the global matrix, and neither do the pipeline stages).
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
    def transpose(self, backend=None) -> "DistMat":
        """Distributed transpose.

        Block ``(i, j)`` becomes block ``(j, i)`` transposed; on a real grid
        this is a pairwise exchange across the diagonal (the paper's
        ``TRANSPOSE(A)``, Algorithm 1 line 5).  ``backend`` (a
        :class:`~repro.dsparse.backend.Backend` instance or name) picks the
        local transpose kernel; ``None`` resolves to the default backend,
        matching every other backend seam.
        """
        from .backend import get_backend
        bk = get_backend(backend)
        q = self.grid.q
        blocks = [[bk.transpose(self.blocks[j][i]) for j in range(q)]
                  for i in range(q)]
        return DistMat((self.shape[1], self.shape[0]), self.grid, blocks,
                       self.nfields)

    def column_slice(self, lo: int, hi: int) -> "DistMat":
        """Columns ``[lo, hi)`` as a narrower DistMat on the same grid.

        The slice is re-blocked to the grid's balanced bounds for its new
        width — each destination block gathers from the source blocks its
        global column range overlaps (on a real grid, a block-row-local
        exchange).  This is the strip extraction of the blocked overlap
        mode: ``C[:, lo:hi] = A · Aᵀ.column_slice(lo, hi)``.
        """
        if not 0 <= lo <= hi <= self.shape[1]:
            raise ValueError(f"column slice [{lo}, {hi}) out of range for "
                             f"{self.shape[1]} columns")
        q = self.grid.q
        strip_cb = self.grid.col_bounds(hi - lo)
        blocks: list[list[CooMat]] = []
        for i in range(q):
            n_rows = int(self.row_bounds[i + 1] - self.row_bounds[i])
            brow: list[CooMat] = []
            for j in range(q):
                c0, c1 = int(strip_cb[j]), int(strip_cb[j + 1])
                # Global source columns of this destination block.
                g0, g1 = lo + c0, lo + c1
                rows, cols, vals = [], [], []
                for sj in range(q):
                    s0 = int(self.col_bounds[sj])
                    s1 = int(self.col_bounds[sj + 1])
                    o0, o1 = max(g0, s0), min(g1, s1)
                    if o0 >= o1:
                        continue
                    b = self.blocks[i][sj]
                    gcol = b.col + s0
                    m = (gcol >= o0) & (gcol < o1)
                    rows.append(b.row[m])
                    cols.append(gcol[m] - g0)
                    vals.append(b.vals[m])
                if rows:
                    brow.append(CooMat((n_rows, c1 - c0),
                                       np.concatenate(rows),
                                       np.concatenate(cols),
                                       np.vstack(vals)))
                else:
                    brow.append(CooMat.empty((n_rows, c1 - c0), self.nfields))
            blocks.append(brow)
        return DistMat((self.shape[0], hi - lo), self.grid, blocks,
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
