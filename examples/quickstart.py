#!/usr/bin/env python
"""Quickstart: simulate reads, run diBELLA 2D, inspect the string graph.

Runs the full pipeline — k-mer counting, sparse overlap detection
(C = A·Aᵀ), x-drop alignment, and distributed transitive reduction — on a
small simulated PacBio-CLR-like read set, then prints the matrix
statistics, the stage breakdown, and the resulting contigs.

Usage::

    python examples/quickstart.py [--workers N] [--executor NAME]
    python examples/quickstart.py --seed-mode minimizer

``--workers 4`` runs the same pipeline with the per-rank compute spread
over 4 real workers (identical output, lower wall-clock; see repro.exec).
``--seed-mode minimizer`` seeds overlaps from a (w,k)-minimizer sketch
instead of every k-mer window — ~4.5x smaller A at w=8 with a
near-identical overlap graph (see the "Pluggable seeding layer" README
section).
"""

import argparse
import time

from repro import CORI_HASWELL, PipelineConfig, extract_contigs, run_pipeline
from repro.core.memory import format_bytes, parse_bytes
from repro.options import add_flags
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.seeding import DEFAULT_SEED_W


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--memory-budget", type=parse_bytes, default=None,
                    metavar="BYTES",
                    help="candidate-matrix byte budget (e.g. 64M); implies "
                         "strip scheduling in blocked mode")
    ap.add_argument("--align-mode", choices=("xdrop", "chain"),
                    default="chain",
                    help="'chain' (default here, for a fast demo) is the "
                         "alignment-free estimate; 'xdrop' runs real banded "
                         "alignments — affordable via the batched engine")
    ap.add_argument("--seed-w", type=int, default=DEFAULT_SEED_W,
                    help="sketch window (k-mers per minimizer window / "
                         "syncmer density 1/w)")
    add_flags(ap)  # every option axis of the README's "Options" table
    args = ap.parse_args()
    # 1. Simulate a 30 kb genome at 15x depth with 5% CLR-style errors.
    genome, reads, layout = simulate_reads(
        ReadSimSpec(
            genome=GenomeSpec(length=30_000, seed=42),
            depth=15, mean_len=900, min_len=400,
            error=ErrorModel(rate=0.05), seed=1))
    print(f"Simulated {len(reads)} reads / {reads.total_bases():,} bases "
          f"over a {genome.shape[0]:,} bp genome")

    # 2. Run the pipeline on a 2x2 simulated process grid.  --align-mode
    #    xdrop runs real banded alignments (the batched engine extends all
    #    candidate pairs in lockstep kernel sweeps, ~an order of magnitude
    #    faster than per-pair dispatch); --workers spreads the per-rank
    #    compute over real cores (same output, smaller wall-clock).
    config = PipelineConfig.from_args(args, k=17, nprocs=4, depth_hint=15,
                                      error_hint=0.05)
    t0 = time.perf_counter()
    result = run_pipeline(reads, config)
    wall = time.perf_counter() - t0
    ran = result.config  # the resolved config: what actually ran
    print(f"Pipeline wall-clock: {wall:.2f} s "
          f"(executor={ran.executor}, workers={ran.workers}, "
          f"align={ran.align_mode}/{ran.align_impl}, "
          f"kmer={ran.kmer_impl}, seed={ran.seed_mode})")
    if ran.seed_mode != "full":
        print(f"Sketched seeding: {ran.seed_mode} (w={ran.seed_w}) — "
              f"nnz(A) = {result.nnz_a:,} vs ~every-window full-k")
    if ran.overlap_mode == "blocked":
        print(f"Blocked overlap mode: {result.n_strips} strips, peak "
              f"candidate memory "
              f"{format_bytes(result.peak_candidate_bytes)}")

    # 3. Matrix statistics (the quantities of the paper's Tables II-III).
    print(f"\nReliable k-mers: {result.n_kmers:,}")
    print(f"Candidate pairs nnz(C): {result.nnz_c:,} "
          f"(c = {result.c_density:.1f} per read)")
    print(f"Overlap entries nnz(R): {result.nnz_r:,} "
          f"(r = {result.r_density:.1f})")
    print(f"String graph nnz(S):   {result.nnz_s:,} "
          f"(s = {result.s_density:.1f}) "
          f"after {result.tr_rounds} reduction rounds")

    # 4. Stage breakdown: measured compute + modeled communication on the
    #    Cori Haswell machine model.
    print("\nModeled stage times (Cori Haswell):")
    for stage, secs in result.modeled_time(CORI_HASWELL).items():
        print(f"  {stage:13s} {secs * 1e3:8.1f} ms")

    # 5. Walk the string graph into contigs.
    contigs = extract_contigs(result.string_graph)
    big = sorted((len(c) for c in contigs), reverse=True)[:5]
    print(f"\nContigs: {len(contigs)} (largest by read count: {big})")


if __name__ == "__main__":
    main()
