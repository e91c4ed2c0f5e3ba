"""Brute-force transitive-edge enumeration: the reference the distributed
transitive reduction (:mod:`repro.core.transitive_reduction`) is checked
against on small graphs.  Test-only: nothing under ``src/`` imports it."""

from __future__ import annotations


def transitive_edges_bruteforce(graph, fuzz: int = 0,
                                use_rowmax: bool = True
                                ) -> set[tuple[int, int]]:
    """Reference transitive-edge enumeration over a string graph, O(E·deg).

    For every two-edge valid walk ``i→k→j`` with end attachments matching
    a direct edge ``i→j``, mark the direct edge transitive when the walk
    suffix sum is at most the tolerance bound: the direct edge's own
    suffix + ``fuzz`` (Myers' rule, ``use_rowmax=False``) or row i's max
    suffix + ``fuzz`` (the paper's Algorithm 2, ``use_rowmax=True``).
    """
    by_src: dict[int, list[int]] = {}
    for idx in range(graph.n_edges):
        by_src.setdefault(int(graph.src[idx]), []).append(idx)
    direct: dict[tuple[int, int], int] = {
        (int(graph.src[e]), int(graph.dst[e])): e
        for e in range(graph.n_edges)}
    rowmax: dict[int, int] = {}
    for e in range(graph.n_edges):
        s = int(graph.src[e])
        rowmax[s] = max(rowmax.get(s, 0), int(graph.suffix[e]))
    marked: set[tuple[int, int]] = set()
    for e1 in range(graph.n_edges):
        i, k = int(graph.src[e1]), int(graph.dst[e1])
        for e2 in by_src.get(k, ()):
            j = int(graph.dst[e2])
            if j == i:
                continue
            if graph.end_dst[e1] == graph.end_src[e2]:
                continue  # invalid walk through k
            d = direct.get((i, j))
            if d is None:
                continue
            if graph.end_src[d] != graph.end_src[e1]:
                continue
            if graph.end_dst[d] != graph.end_dst[e2]:
                continue
            bound = (rowmax[i] if use_rowmax else int(graph.suffix[d])) + fuzz
            if int(graph.suffix[e1]) + int(graph.suffix[e2]) <= bound:
                marked.add((i, j))
    return marked
