"""Myers' sequential transitive reduction (the linear-time baseline).

Myers 2005 ("The fragment assembly string graph") reduces the overlap graph
by iterating over each vertex ``v``, examining vertices up to two edges away,
and marking transitive edges — inherently sequential (paper Section III).
This is both the paper's algorithmic reference point and our ground-truth
oracle: on identical inputs diBELLA's matrix formulation must remove an
equivalent edge set (tests assert this on clean data).

The implementation follows Myers' vertex-marking scheme adapted to the
bidirected end-attachment encoding: for ``v``, its out-neighbours are marked
*in-play*; for each out-edge ``v→w`` (in ascending suffix order) every
``w→x`` continuation that forms a valid walk and lands on an in-play ``x``
with matching end attachments marks ``v→x`` transitive — provided the
two-hop suffix is within the tolerance bound.
"""

from __future__ import annotations

import numpy as np

from ..core.string_graph import StringGraph

__all__ = ["myers_transitive_reduction"]


def myers_transitive_reduction(graph: StringGraph, fuzz: int = 150,
                               use_rowmax: bool = True) -> StringGraph:
    """Sequential transitive reduction of a bidirected string graph.

    Parameters
    ----------
    graph:
        Symmetric overlap graph (both directed entries per overlap).
    fuzz:
        Endpoint tolerance added to the bound.
    use_rowmax:
        When true, a two-hop path marks ``v→x`` if its suffix sum is at most
        ``rowmax(v) + fuzz`` — the bound diBELLA's Algorithm 2 uses, so the
        two implementations are directly comparable.  When false, uses
        Myers' original per-edge bound ``suffix(v→x) + fuzz``.

    Returns
    -------
    StringGraph
        The reduced graph.  Like Algorithm 2, the procedure iterates to a
        fixed point (multi-hop redundancies need several passes).  Myers
        removes contained reads first (``graph.container``), so their edges
        never witness a reduction — the order the pipeline follows too.
    """
    g = graph.without_contained()
    while True:
        marked = _one_pass(g, fuzz, use_rowmax)
        if not marked:
            return g
        g = g.subgraph_without(marked)


def _one_pass(g: StringGraph, fuzz: int, use_rowmax: bool
              ) -> set[tuple[int, int]]:
    n_edges = g.n_edges
    out_of: dict[int, list[int]] = {}
    for e in range(n_edges):
        out_of.setdefault(int(g.src[e]), []).append(e)
    # Sort each adjacency by ascending suffix (Myers processes shortest
    # extensions first so longer direct edges are seen as reducible).
    for v in out_of:
        out_of[v].sort(key=lambda e: int(g.suffix[e]))

    marked: set[tuple[int, int]] = set()
    for v, edges in out_of.items():
        # In-play table: direct neighbour -> its direct edge index.
        inplay: dict[int, int] = {int(g.dst[e]): e for e in edges}
        rowmax = int(g.suffix[edges[-1]]) if edges else 0
        for e1 in edges:
            w = int(g.dst[e1])
            for e2 in out_of.get(w, ()):
                x = int(g.dst[e2])
                if x == v or x not in inplay:
                    continue
                if g.end_dst[e1] == g.end_src[e2]:
                    continue  # invalid walk through w
                d = inplay[x]
                if g.end_src[d] != g.end_src[e1]:
                    continue
                if g.end_dst[d] != g.end_dst[e2]:
                    continue
                bound = (rowmax if use_rowmax else int(g.suffix[d])) + fuzz
                if int(g.suffix[e1]) + int(g.suffix[e2]) <= bound:
                    marked.add((v, x))
    return marked
