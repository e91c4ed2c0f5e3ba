"""Evaluation metrics: scaling efficiency and graph accuracy.

The paper reports strong-scaling parallel efficiency (Fig. 4) and —
implicitly via BELLA — overlap detection recall/precision.  These helpers
compute them from runtimes and ground-truth layouts.
"""

from __future__ import annotations

from ..core.string_graph import StringGraph
from ..seqs.simulator import TrueLayout

__all__ = [
    "parallel_efficiency",
    "overlap_recall_precision",
    "graph_edge_recall",
]


def parallel_efficiency(procs: list[int], times: list[float]) -> list[float]:
    """Strong-scaling efficiency relative to the smallest run.

    ``eff(P) = T(P0)·P0 / (T(P)·P)``; the paper quotes ≥80% for H. sapiens.
    """
    if len(procs) != len(times) or not procs:
        raise ValueError("procs and times must be equal-length, non-empty")
    p0, t0 = procs[0], times[0]
    return [(t0 * p0) / (t * p) if t > 0 else float("nan")
            for p, t in zip(procs, times)]


def overlap_recall_precision(found_pairs: set[tuple[int, int]],
                             layout: TrueLayout, min_overlap: int = 500
                             ) -> tuple[float, float]:
    """Recall/precision of detected read pairs against the true layout.

    A pair is *true* when the source genome intervals of the two reads share
    at least ``min_overlap`` bases (the BELLA evaluation criterion).
    """
    truth = layout.overlap_pairs(min_overlap)
    if not truth:
        return float("nan"), float("nan")
    norm_found = {(min(a, b), max(a, b)) for a, b in found_pairs}
    tp = len(norm_found & truth)
    recall = tp / len(truth)
    precision = tp / len(norm_found) if norm_found else float("nan")
    return recall, precision


def graph_edge_recall(graph: StringGraph, layout: TrueLayout,
                      min_overlap: int = 500) -> float:
    """Fraction of true overlapping pairs retained as string-graph edges.

    After transitive reduction most true pairs are *intentionally* removed;
    this metric is used on the overlap graph R (before reduction) and for
    sanity bounds on S (reads adjacent on the genome should mostly remain
    connected).
    """
    pairs = {(min(int(s), int(d)), max(int(s), int(d)))
             for s, d in zip(graph.src, graph.dst)}
    truth = layout.overlap_pairs(min_overlap)
    if not truth:
        return float("nan")
    return len(pairs & truth) / len(truth)
