"""2D process grid used by the Sparse SUMMA decomposition.

CombBLAS organizes the ``P`` processes in a ``√P × √P`` logical grid; the
matrices are block-distributed so processor ``P_ij`` owns block ``(i, j)``
(paper Section V-B).  :class:`ProcessGrid2D` provides the rank ↔ (row, col)
mapping and the balanced block-boundary arithmetic used everywhere a global
index must be located on the grid.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ProcessGrid2D", "block_bounds", "partition_by_owner"]


def block_bounds(n: int, parts: int) -> np.ndarray:
    """Balanced partition boundaries of ``range(n)`` into ``parts`` blocks.

    Returns an ``int64`` array ``b`` of length ``parts + 1`` with block ``i``
    spanning ``[b[i], b[i+1])``; the first ``n % parts`` blocks get one extra
    element (the standard balanced block distribution).
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, rem = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def partition_by_owner(owner: np.ndarray, n_owners: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Stable partition of items by owner id: ``(order, bounds)``.

    ``order[bounds[p]:bounds[p + 1]]`` lists the items of owner ``p`` in
    their original relative order — what one boolean mask per owner
    selects, in one pass.  Owner ids are a small universe, so the stable
    argsort runs on the narrowest unsigned dtype that holds them (numpy
    radix-sorts 8- and 16-bit keys) and the cuts come from a ``bincount``;
    nothing compares 64-bit keys.  Ids outside ``[0, n_owners)`` are
    refused.
    """
    if owner.shape[0] and not 0 <= owner.min() <= owner.max() < n_owners:
        raise ValueError(f"owner ids must lie in [0, {n_owners}), got "
                         f"{owner.min()}..{owner.max()}")
    narrow = owner.astype(np.min_scalar_type(max(0, n_owners - 1)),
                          copy=False)
    bounds = np.zeros(n_owners + 1, dtype=np.int64)
    np.cumsum(np.bincount(narrow, minlength=n_owners), out=bounds[1:])
    return np.argsort(narrow, kind="stable"), bounds


class ProcessGrid2D:
    """A ``q × q`` logical grid over ``P = q²`` ranks (row-major)."""

    def __init__(self, nprocs: int) -> None:
        q = math.isqrt(nprocs)
        if q * q != nprocs:
            raise ValueError(f"2D grid needs a perfect-square process count, got {nprocs}")
        self.nprocs = nprocs
        self.q = q

    def rank_of(self, row: int, col: int) -> int:
        return row * self.q + col

    def coords_of(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.q)

    def row_ranks(self, row: int) -> list[int]:
        """Ranks in process-row ``row`` (a SUMMA row broadcast group)."""
        return [self.rank_of(row, c) for c in range(self.q)]

    def col_ranks(self, col: int) -> list[int]:
        """Ranks in process-column ``col`` (a SUMMA column broadcast group)."""
        return [self.rank_of(r, col) for r in range(self.q)]

    def row_bounds(self, n_rows: int) -> np.ndarray:
        """Global row boundaries of the grid's block rows."""
        return block_bounds(n_rows, self.q)

    def col_bounds(self, n_cols: int) -> np.ndarray:
        """Global column boundaries of the grid's block columns."""
        return block_bounds(n_cols, self.q)

    def owner_of(self, i: int, j: int, n_rows: int, n_cols: int) -> int:
        """Rank owning global entry ``(i, j)`` of an ``n_rows×n_cols`` matrix."""
        rb = self.row_bounds(n_rows)
        cb = self.col_bounds(n_cols)
        br = int(np.searchsorted(rb, i, side="right") - 1)
        bc = int(np.searchsorted(cb, j, side="right") - 1)
        return self.rank_of(br, bc)

    def owners_of(self, row: np.ndarray, col: np.ndarray, n_rows: int,
                  n_cols: int) -> np.ndarray:
        """:meth:`owner_of` for whole coordinate arrays: one rank id each.

        Built in place on the block-row index, so nothing entry-sized
        beyond the result and one ``searchsorted`` output is alive at once.
        """
        owner = np.searchsorted(self.row_bounds(n_rows), row, side="right")
        owner -= 1
        owner *= self.q
        owner += np.searchsorted(self.col_bounds(n_cols), col, side="right")
        owner -= 1
        return owner

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessGrid2D({self.q}x{self.q})"
