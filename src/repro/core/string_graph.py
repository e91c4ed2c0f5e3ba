"""Bidirected string graph model and walk semantics.

The layout step's output is a *string graph* (paper Section II): vertices
are reads, edges are overlap **suffixes** (overhangs) with a bidirected head
at each end.  We encode heads as *end attachments* — which end of the read
(Begin=0 / End=1, in the read's forward orientation) the edge joins — which
is equivalent to the arrow-head formulation (DESIGN.md §5) and makes the
walk rules mechanical:

* a walk ``… → k → …`` is **valid** iff the edge arriving at ``k`` and the
  edge leaving ``k`` attach to *opposite* ends of ``k`` (Fig. 2's rule);
* edge ``i→j`` is a **transitive candidate** of path ``i→k→j`` iff the path's
  end attachments at ``i`` and ``j`` equal the direct edge's (rules (b), (c)
  of Section II).

:class:`StringGraph` is the friendly array view of the ``R``/``S`` matrices
used by baselines, metrics, examples and tests; the pipeline itself operates
on distributed matrices and converts at the edges of the API.

Contained reads (one read lying inside another to within the fuzz) are not
graph vertices: Myers' construction removes them before the reduction, and
:func:`~repro.core.transitive_reduction.transitive_reduction` does the
same.  The graph keeps them in ``container`` — each contained read's *root*
container, the non-contained read its containment chain ends at — which
:func:`containment_roots` derives from per-read container choices.
"""

from __future__ import annotations

import numpy as np

from ..dsparse.coomat import CooMat
from .semirings import (R_CONTAINED, R_END_I, R_END_J, R_NO_END, R_OLEN,
                        R_SUFFIX)

__all__ = ["StringGraph", "NO_CONTAINER", "container_key",
           "decode_container_key", "containment_roots"]

#: Identity of the container-key row minimum: the row has no container.
NO_CONTAINER = np.iinfo(np.int64).max


def container_key(col: np.ndarray, olen: np.ndarray, n: int) -> np.ndarray:
    """Container-choice keys of ``R_CONTAINED`` entries ``(i, col)``.

    The row-wise minimum picks read ``i``'s container deterministically:
    the longest overlap, then the lowest read index (``n`` = column count).
    """
    return col - olen * np.int64(n)


def decode_container_key(key: np.ndarray, n: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """``(container, overlap_len)`` of row-minimum keys; ``(-1, 0)`` where
    the row held no containment entry."""
    none = key == NO_CONTAINER
    key = np.where(none, 0, key)
    col = np.mod(key, n)
    return np.where(none, -1, col), (col - key) // n


def containment_roots(parent: np.ndarray) -> np.ndarray:
    """Root container of every read; ``-1`` for reads that are not contained.

    ``parent[i]`` is read ``i``'s chosen container (``-1``: not contained).
    Pointer jumping follows every chain to its first non-contained read in
    ``log2(n)`` rounds.  Containment need not be acyclic: in x-drop mode a
    read whose two unaligned tips both stay within the fuzz is contained
    even in a shorter read that sticks out past the fuzz on one side (chain
    mode cannot do this: equal spans on both reads make every container
    longer, or as long and higher-indexed).  A chain that never leaves the
    contained reads has run into
    such a cycle: the cycle's lowest-indexed read is released (kept as a
    graph vertex) and roots it.
    """
    parent = np.array(parent, dtype=np.int64)
    n = parent.shape[0]
    while True:
        up = np.where(parent < 0, np.arange(n), parent)
        for _ in range(n.bit_length()):
            nxt = up[up]
            if np.array_equal(nxt, up):
                break
            up = nxt
        cyclic = np.unique(up[parent[up] >= 0])
        if cyclic.shape[0] == 0:
            return np.where(parent < 0, -1, up)
        # Every ``cyclic`` read sits on a cycle; release each cycle's minimum.
        lows = set()
        for r in cyclic.tolist():
            low, c = r, int(parent[r])
            while c != r:
                low, c = min(low, c), int(parent[c])
            lows.add(low)
        parent[sorted(lows)] = -1


class StringGraph:
    """Directed-pair view of a bidirected overlap/string graph.

    Every physical overlap appears as two directed entries, ``(i, j)`` and
    ``(j, i)``, whose suffixes are the two walk directions' overhangs —
    exactly the dovetail entries of the symmetric ``R`` matrix of the
    pipeline.  ``container[i]`` is read ``i``'s root container (``-1``:
    not contained).
    """

    def __init__(self, n_reads: int, src: np.ndarray, dst: np.ndarray,
                 suffix: np.ndarray, end_src: np.ndarray, end_dst: np.ndarray,
                 overlap_len: np.ndarray | None = None,
                 container: np.ndarray | None = None) -> None:
        self.n_reads = int(n_reads)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.suffix = np.asarray(suffix, dtype=np.int64)
        self.end_src = np.asarray(end_src, dtype=np.int64)
        self.end_dst = np.asarray(end_dst, dtype=np.int64)
        self.overlap_len = (np.asarray(overlap_len, dtype=np.int64)
                            if overlap_len is not None
                            else np.zeros_like(self.suffix))
        self.container = (np.asarray(container, dtype=np.int64)
                          if container is not None
                          else np.full(self.n_reads, -1, dtype=np.int64))

    # -- conversions -------------------------------------------------------
    @classmethod
    def from_coomat(cls, mat: CooMat) -> "StringGraph":
        """The graph of an ``R`` or ``S`` matrix.

        Dovetail entries become edges; ``R_CONTAINED`` entries become
        ``container`` (the best container of each read, followed to its
        root by :func:`containment_roots` — on ``S`` the entry already
        names the root); ``R_CONTAINS`` entries carry nothing new.
        """
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("string graph matrix must be square")
        n = mat.shape[0]
        suffix = mat.vals[:, R_SUFFIX]
        dove = suffix >= 0
        inside = np.flatnonzero(suffix == R_CONTAINED)
        best = np.full(n, NO_CONTAINER, dtype=np.int64)
        np.minimum.at(best, mat.row[inside],
                      container_key(mat.col[inside],
                                    mat.vals[inside, R_OLEN], n))
        parent, _olen = decode_container_key(best, n)
        vals = mat.vals[dove]
        return cls(n, mat.row[dove], mat.col[dove], vals[:, R_SUFFIX],
                   vals[:, R_END_I], vals[:, R_END_J], vals[:, R_OLEN],
                   containment_roots(parent))

    def to_coomat(self) -> CooMat:
        """The graph in ``S``'s layout: the dovetails between non-contained
        reads plus one ``R_CONTAINED`` entry per contained read (overlap
        length 0: the graph does not keep it)."""
        g = self.without_contained()
        inside = np.flatnonzero(g.container >= 0)
        marks = np.zeros((inside.shape[0], 4), dtype=np.int64)
        marks[:, R_SUFFIX] = R_CONTAINED
        marks[:, R_END_I] = marks[:, R_END_J] = R_NO_END
        vals = np.vstack([np.stack([g.suffix, g.end_src, g.end_dst,
                                    g.overlap_len], axis=1), marks])
        return CooMat((g.n_reads, g.n_reads),
                      np.concatenate([g.src, inside]),
                      np.concatenate([g.dst, g.container[inside]]), vals)

    def without_contained(self) -> "StringGraph":
        """This graph less every edge that touches a contained read."""
        kept = self.container < 0
        keep = kept[self.src] & kept[self.dst]
        if keep.all():
            return self
        return self.select(keep)

    def select(self, keep: np.ndarray) -> "StringGraph":
        """The edges ``keep`` picks — a boolean mask or edge indices —
        with ``container`` carried over."""
        return StringGraph(self.n_reads, self.src[keep], self.dst[keep],
                           self.suffix[keep], self.end_src[keep],
                           self.end_dst[keep], self.overlap_len[keep],
                           self.container)

    # -- basic queries -----------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Directed entry count (2× the physical overlap count)."""
        return int(self.src.shape[0])

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.src.tolist(), self.dst.tolist()))

    def out_edges(self, v: int) -> np.ndarray:
        """Indices (into the edge arrays) of entries with source ``v``."""
        return np.flatnonzero(self.src == v)

    def degree_histogram(self) -> dict[int, int]:
        deg = np.bincount(self.src, minlength=self.n_reads)
        uniq, cnt = np.unique(deg, return_counts=True)
        return {int(u): int(c) for u, c in zip(uniq, cnt)}

    def density(self) -> float:
        """Average nonzeros per row (the paper's per-row density r/s)."""
        return self.n_edges / max(1, self.n_reads)

    # -- walk semantics ----------------------------------------------------
    def is_valid_walk(self, edge_indices: list[int]) -> bool:
        """Check Fig. 2's validity for a sequence of edge-array indices.

        Consecutive edges must chain (``dst`` of one is ``src`` of the next)
        and attach to opposite ends of every intermediate read.
        """
        for a, b in zip(edge_indices, edge_indices[1:]):
            if self.dst[a] != self.src[b]:
                return False
            if self.end_dst[a] == self.end_src[b]:
                return False
        return True

    def transitive_edges_bruteforce(self, fuzz: int = 0,
                                    use_rowmax: bool = True
                                    ) -> set[tuple[int, int]]:
        """Reference transitive-edge enumeration (O(E·deg), tests only).

        For every two-edge valid walk ``i→k→j`` with end attachments matching
        a direct edge ``i→j``, mark the direct edge transitive when the walk
        suffix sum is at most the tolerance bound: the direct edge's own
        suffix + ``fuzz`` (Myers' rule, ``use_rowmax=False``) or row i's max
        suffix + ``fuzz`` (the paper's Algorithm 2, ``use_rowmax=True``).
        """
        by_src: dict[int, list[int]] = {}
        for idx in range(self.n_edges):
            by_src.setdefault(int(self.src[idx]), []).append(idx)
        direct: dict[tuple[int, int], int] = {
            (int(self.src[e]), int(self.dst[e])): e
            for e in range(self.n_edges)}
        rowmax: dict[int, int] = {}
        for e in range(self.n_edges):
            s = int(self.src[e])
            rowmax[s] = max(rowmax.get(s, 0), int(self.suffix[e]))
        marked: set[tuple[int, int]] = set()
        for e1 in range(self.n_edges):
            i, k = int(self.src[e1]), int(self.dst[e1])
            for e2 in by_src.get(k, ()):
                j = int(self.dst[e2])
                if j == i:
                    continue
                if self.end_dst[e1] == self.end_src[e2]:
                    continue  # invalid walk through k
                d = direct.get((i, j))
                if d is None:
                    continue
                if self.end_src[d] != self.end_src[e1]:
                    continue
                if self.end_dst[d] != self.end_dst[e2]:
                    continue
                bound = (rowmax[i] if use_rowmax else int(self.suffix[d])) + fuzz
                if int(self.suffix[e1]) + int(self.suffix[e2]) <= bound:
                    marked.add((i, j))
        return marked

    def subgraph_without(self, edges: set[tuple[int, int]]) -> "StringGraph":
        """New graph dropping the listed directed entries."""
        keep = np.array([(int(s), int(d)) not in edges
                         for s, d in zip(self.src, self.dst)], dtype=bool)
        return self.select(keep)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StringGraph(n={self.n_reads}, entries={self.n_edges})"
