#!/usr/bin/env python
"""Compare diBELLA 2D against every baseline on one dataset.

Reproduces, at small scale, all three comparisons of the paper's Section
VII-B on a single simulated read set:

* overlap detection: diBELLA 2D vs diBELLA 1D (Fig. 9) vs minimap2-like;
* transitive reduction: diBELLA 2D vs SORA (Table VI) vs Myers sequential;
* and cross-checks that all three reduction implementations agree.

Usage::

    python examples/compare_baselines.py
"""

from repro import PipelineConfig, SUMMIT_CPU, run_pipeline
from repro.baselines import (myers_transitive_reduction, run_dibella1d,
                             run_minimap_like, sora_transitive_reduction)
from repro.core.string_graph import StringGraph
from repro.eval import load_preset, overlap_recall_precision


def main() -> None:
    preset, _genome, reads, layout = load_preset("toy")
    P = 4
    print(f"Dataset: {len(reads)} reads, depth {preset.depth}\n")

    # --- overlap detection ------------------------------------------------
    res2d = run_pipeline(reads, PipelineConfig(
        k=17, nprocs=P, align_mode="chain", depth_hint=preset.depth,
        error_hint=preset.error_rate))
    res1d = run_dibella1d(reads, k=17, nprocs=P, align_mode="chain",
                          depth_hint=preset.depth,
                          error_hint=preset.error_rate)
    mm = run_minimap_like(reads)

    t2d = res2d.modeled_total(SUMMIT_CPU) - res2d.modeled_time(
        SUMMIT_CPU).get("TrReduction", 0.0)
    t1d = res1d.modeled_total(SUMMIT_CPU)
    print("Overlap detection (modeled on Summit CPU):")
    print(f"  diBELLA 2D   {t2d:8.3f} s   ({res2d.nnz_c} candidate pairs)")
    print(f"  diBELLA 1D   {t1d:8.3f} s   ({res1d.n_candidate_pairs} pairs)"
          f"   -> 2D speedup {t1d / t2d:.2f}x")
    print(f"  minimap-like {mm.modeled_threads_time(32):8.3f} s "
          f"(1 node, 32 threads, {mm.n_pairs} pairs)")
    r, p = overlap_recall_precision(mm.pairs, layout, min_overlap=500)
    print(f"  minimap-like recall/precision vs truth: {r:.2f}/{p:.2f}")

    # --- transitive reduction ------------------------------------------------
    from repro.eval.experiments import _overlap_graph_for, _CACHE
    from repro.core.transitive_reduction import transitive_reduction
    from repro.dsparse.distmat import DistMat
    from repro.mpisim import CommTracker, ProcessGrid2D, SimComm
    _CACHE.clear()
    _CACHE["toy"] = (preset, _genome, reads, layout)
    graph = _overlap_graph_for("toy")

    # All three reducers consume the *same* overlap graph.
    mat = graph.to_coomat()
    D = DistMat.from_coo(mat.shape, ProcessGrid2D(P), mat.row, mat.col,
                         mat.vals)
    comm = SimComm(P, CommTracker(P))
    tr = transitive_reduction(D, comm, fuzz=150)
    tr_time = (res2d.timer.stage_seconds.get("TrReduction", 0.0)
               * SUMMIT_CPU.compute_scale
               + comm.tracker.stage_comm_time("TrReduction", SUMMIT_CPU))
    ours = StringGraph.from_coomat(tr.S.to_global())
    sora = sora_transitive_reduction(graph, nodes=1, cores_per_node=32)
    myers = myers_transitive_reduction(graph, fuzz=150)

    print("\nTransitive reduction (same overlap graph, "
          f"{graph.n_edges} directed entries, "
          f"{int((graph.container >= 0).sum())} contained reads dropped "
          f"first):")
    print(f"  diBELLA 2D   {tr_time:8.3f} s -> {ours.n_edges} entries")
    print(f"  SORA (model) {sora.modeled_seconds:8.3f} s -> "
          f"{sora.graph.n_edges} entries "
          f"({sora.modeled_seconds / max(tr_time, 1e-9):.0f}x slower)")
    print(f"  Myers (seq.)             -> {myers.n_edges} entries")
    print(f"  diBELLA == Myers: {ours.edge_set() == myers.edge_set()}")
    print(f"  SORA == Myers:    {sora.graph.edge_set() == myers.edge_set()}")


if __name__ == "__main__":
    main()
