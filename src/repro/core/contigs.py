"""Contig extraction from the string graph.

The paper stops at the layout step ("This conversion makes it easier to
cluster sections of the graph into contigs", Section I); this module provides
that downstream clustering as a usable extension: maximal unbranched walks of
the bidirected string graph become contigs.

A read end is *unbranched* when exactly one string-graph edge attaches to it.
A contig is a maximal valid walk through unbranched interior ends; each
non-contained read appears in one contig's walk (or as a singleton), and
each contained read rides along in its root container's contig.  The walk
respects bidirected semantics: it enters each read at one end and leaves
from the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .string_graph import StringGraph

__all__ = ["Contig", "best_overlap_cleaning", "extract_contigs",
           "write_layout"]


@dataclass
class Contig:
    """A maximal unbranched walk: ordered reads with their orientations.

    ``orientations[t]`` is 0 when read ``reads[t]`` is traversed forward
    (entered at its Begin end), 1 when traversed reverse.  ``contained``
    lists the contained reads whose root container is on the walk
    (ascending); they are not part of the walk, so ``len`` and every
    path metric count ``reads`` only.
    """

    reads: list[int]
    orientations: list[int]
    contained: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.reads)


def best_overlap_cleaning(graph: StringGraph) -> StringGraph:
    """Keep only mutual-best edges per read end (miniasm-style cleaning).

    A reduced string graph can keep more than one edge per read end where
    a two-hop witness is missing — an overlap the aligner lost, or an
    inconsistent pair near a repeat.  The standard remedy before contig
    walking: at every (read, end) attachment keep the edge with the
    *smallest suffix* (longest overlap), and keep an overlap only when both
    endpoints choose it — the Best Overlap Graph.
    """
    best: dict[tuple[int, int], int] = {}
    for e in range(graph.n_edges):
        key = (int(graph.src[e]), int(graph.end_src[e]))
        if key not in best or graph.suffix[e] < graph.suffix[best[key]]:
            best[key] = e
    chosen = set(best.values())
    keep: list[int] = []
    for e in chosen:
        # The reverse entry of the same physical overlap.
        rev_key = (int(graph.dst[e]), int(graph.end_dst[e]))
        rev = best.get(rev_key)
        if rev is not None and int(graph.dst[rev]) == int(graph.src[e]) \
                and int(graph.end_dst[rev]) == int(graph.end_src[e]):
            keep.append(e)
    return graph.select(np.array(sorted(keep), dtype=np.int64))


def _attachment_index(graph: StringGraph) -> dict[tuple[int, int], list[int]]:
    """Map (read, end) -> list of edge indices attached to that read end."""
    att: dict[tuple[int, int], list[int]] = {}
    for e in range(graph.n_edges):
        att.setdefault((int(graph.src[e]), int(graph.end_src[e])), []).append(e)
    return att


def extract_contigs(graph: StringGraph, clean: bool = True) -> list[Contig]:
    """Greedy maximal unbranched walks over the string graph.

    Each physical overlap contributes directed entries in both orientations,
    so following out-edges with the opposite-end rule walks the bidirected
    graph correctly.  Walks cover the non-contained reads only (edges at
    contained reads are ignored) and stop at branch points (an end with
    ≠ 1 attached edge) and at already-visited reads; every non-contained
    read lands in exactly one contig's walk, and every contained read in
    its root container's ``Contig.contained``.  With ``clean=True``
    (default) the graph first goes through :func:`best_overlap_cleaning`.
    """
    graph = graph.without_contained()
    if clean:
        graph = best_overlap_cleaning(graph)
    att = _attachment_index(graph)
    # Contained reads start out visited: no walk starts at or enters one.
    visited = graph.container >= 0
    contigs: list[Contig] = []

    def walk(start: int, leave_end: int) -> tuple[list[int], list[int]]:
        """Walk from ``start`` leaving via ``leave_end``; returns the chain
        of (read, orientation) pairs after ``start``."""
        chain_reads: list[int] = []
        chain_orient: list[int] = []
        cur = start
        cur_leave = leave_end
        while True:
            edges = att.get((cur, cur_leave), [])
            if len(edges) != 1:
                break
            e = edges[0]
            nxt = int(graph.dst[e])
            enter = int(graph.end_dst[e])
            if visited[nxt]:
                break
            # The incoming attachment must also be unambiguous for the walk
            # to be unbranched from the next read's perspective.
            back = att.get((nxt, enter), [])
            if len(back) != 1:
                break
            visited[nxt] = True
            # Entering at Begin means forward traversal.
            chain_reads.append(nxt)
            chain_orient.append(0 if enter == 0 else 1)
            cur = nxt
            cur_leave = 1 - enter
        return chain_reads, chain_orient

    for v in range(graph.n_reads):
        if visited[v]:
            continue
        visited[v] = True
        # Extend in both directions: leaving via End (forward) and Begin.
        fwd_reads, fwd_orient = walk(v, 1)
        bwd_reads, bwd_orient = walk(v, 0)
        # Reverse the backward chain and flip orientations.
        reads = [r for r in reversed(bwd_reads)]
        orients = [1 - o for o in reversed(bwd_orient)]
        reads.append(v)
        orients.append(0)
        reads.extend(fwd_reads)
        orients.extend(fwd_orient)
        contigs.append(Contig(reads, orients))

    contig_of = np.empty(graph.n_reads, dtype=np.int64)
    for cid, contig in enumerate(contigs):
        contig_of[contig.reads] = cid
    for r in np.flatnonzero(graph.container >= 0).tolist():
        contigs[contig_of[graph.container[r]]].contained.append(r)
    return contigs


def write_layout(path, contigs: list[Contig]) -> None:
    """Write a contig layout TSV, one row per read.

    Columns ``contig``, ``position``, ``read``, ``orientation`` (``+`` /
    ``-``) for every read of every walk, in walk order; each contig's
    contained reads follow its walk with position ``-`` and orientation
    ``.`` (they lie inside their root container; the layout does not
    orient them).  ``contigs`` are written in the order given.
    """
    with open(path, "w") as fh:
        fh.write("contig\tposition\tread\torientation\n")
        for cid, contig in enumerate(contigs):
            for t, (rid, orient) in enumerate(zip(contig.reads,
                                                  contig.orientations)):
                fh.write(f"contig{cid}\t{t}\t{rid}\t"
                         f"{'-' if orient else '+'}\n")
            for rid in contig.contained:
                fh.write(f"contig{cid}\t-\t{rid}\t.\n")
