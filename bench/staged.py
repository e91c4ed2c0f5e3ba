"""The traced pass: the pipeline's stages, one public call at a time.

:func:`run_staged` replays ``repro.core.pipeline._run_pipeline_inner``'s
monolithic sequence from outside ``src/`` with a span around each layer
boundary and the counts read at the same boundaries.  It must stay
byte-identical to ``run_pipeline`` (``bench/test_bench.py`` pins the S/R
digests), so the per-layer seconds it reports decompose the same work the
untraced ``wall_s`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.contigs import extract_contigs
from repro.core.overlap import (align_candidates, build_a_matrix,
                                candidate_overlaps, exchange_reads)
from repro.core.pipeline import PipelineConfig
from repro.core.semirings import R_OLEN
from repro.core.string_graph import StringGraph
from repro.core.transitive_reduction import transitive_reduction
from repro.dsparse.backend import get_backend
from repro.exec import get_executor
from repro.mpisim.comm import SimComm
from repro.mpisim.grid import ProcessGrid2D
from repro.mpisim.tracker import CommTracker, StageTimer
from repro.resilience.faults import FaultPlan, active_plan
from repro.seqs.fasta import ReadSet, read_fasta
from repro.seqs.kmer_counter import count_kmers, reliable_upper_bound
from repro.seqs.seeding import make_scheme

from spans import Tracer, self_times
from workloads import Outcome

__all__ = ["run_staged", "Staged", "BATCH_LAYERS"]

#: Span names, one per layer boundary, in pipeline order.
BATCH_LAYERS = ("fasta", "kmer", "spmat", "exch", "spgemm", "align", "tr",
                "contigs")


@dataclass
class Staged:
    outcome: Outcome
    wall: float
    layers: dict[str, float]   # the batch-layer metrics, by declared name


def run_staged(cfg: PipelineConfig, tracer: Tracer, *,
               fasta: str | None = None,
               reads: ReadSet | None = None) -> Staged:
    """One traced pipeline pass over ``fasta`` (or an in-memory ``reads``)."""
    backend = get_backend(cfg.backend)
    scheme = make_scheme(cfg.seed_mode, cfg.k, cfg.seed_w)
    grid = ProcessGrid2D(cfg.nprocs)
    tracker = CommTracker(cfg.nprocs)
    comm = SimComm(cfg.nprocs, tracker)
    timer = StageTimer()
    upper = cfg.kmer_upper
    if upper is None:
        upper = reliable_upper_bound(cfg.depth_hint, cfg.error_hint, cfg.k)
    common = dict(backend=backend, spgemm_impl=cfg.spgemm_impl)

    with tracer.span("pipeline") as root:
        if fasta is not None:
            with tracer.span("fasta") as sp:
                reads = read_fasta(fasta)
            timer.add("ReadFastq", (sp["end"] - sp["start"]) / cfg.nprocs)
        with active_plan(FaultPlan(cfg.fault_plan)), \
                get_executor(cfg.executor, cfg.workers) as ex:
            with tracer.span("kmer"):
                table = count_kmers(reads, cfg.k, comm, timer,
                                    batches=cfg.kmer_batches, upper=upper,
                                    executor=ex, impl=cfg.kmer_impl,
                                    scheme=scheme)
            with tracer.span("spmat"):
                A = build_a_matrix(reads, table, grid, comm, timer,
                                   executor=ex, impl=cfg.kmer_impl,
                                   scheme=scheme)
            with tracer.span("exch"):
                exchange_reads(reads, grid, comm)
            with tracer.span("spgemm"):
                C = candidate_overlaps(A, comm, timer, executor=ex, **common)
            with tracer.span("align"):
                R = align_candidates(C, reads, cfg.k, comm, timer,
                                     mode=cfg.align_mode,
                                     scoring=cfg.scoring, filt=cfg.filt,
                                     fuzz=cfg.fuzz, executor=ex,
                                     impl=cfg.align_impl)
            with tracer.span("tr"):
                tr = transitive_reduction(R, comm, timer, fuzz=cfg.fuzz,
                                          max_rounds=cfg.max_tr_rounds,
                                          executor=ex, **common)
        with tracer.span("contigs"):
            S_global, R_global = tr.S.to_global(), R.to_global()
            graph = StringGraph.from_coomat(S_global)
            contigs = extract_contigs(graph)
    wall = root["end"] - root["start"]

    out = Outcome(S=S_global, R=R_global, tracker=tracker, graph=graph,
                  cp=timer.breakdown())
    own = self_times([s for s in tracer.spans if s["id"] >= root["id"]])
    comm_mb = {stage: rec["total_bytes"] / 1e6
               for stage, rec in tracker.summary().items()}
    peaks = timer.peak_bytes()
    sp_rec = tracker.records.get("SpGEMM")
    nnz_c, nnz_r, nnz_s = C.nnz(), R.nnz(), tr.S.nnz()
    layers = {f"{name}.s": own.get(name, 0.0) for name in BATCH_LAYERS}
    layers.update({
        "glue.s": own["pipeline"],
        "fasta.mbases": reads.total_bases() / 1e6,
        "kmer.n_reliable": len(table),
        "kmer.comm_mb": comm_mb.get("CountKmer", 0.0),
        "spmat.nnz_a": A.nnz(),
        "spmat.comm_mb": comm_mb.get("CreateSpMat", 0.0),
        "exch.comm_mb": comm_mb.get("ExchangeRead", 0.0),
        "spgemm.nnz_c": nnz_c,
        "spgemm.comm_mb": comm_mb.get("SpGEMM", 0.0),
        "spgemm.msgs_max_rank": sp_rec.max_messages if sp_rec else 0.0,
        "spgemm.bytes_imbalance": (
            sp_rec.max_bytes * cfg.nprocs / sp_rec.total_bytes
            if sp_rec and sp_rec.total_bytes else 0.0),
        "spgemm.peak_live_mb": peaks.get("SpGEMM", 0) / 1e6,
        "spgemm.kernel_calls": sum(
            timer.kernel_counts().get("SpGEMM", {}).values()),
        "align.pairs": nnz_c,
        "align.kept_ratio": nnz_r / nnz_c if nnz_c else 0.0,
        "align.us_per_pair": 1e6 * own["align"] / nnz_c if nnz_c else 0.0,
        # R holds both directed entries of every surviving overlap.
        "align.overlap_mbases": float(R_global.vals[:, R_OLEN].sum()) / 2e6,
        "tr.rounds": tr.rounds,
        "tr.nnz_r": nnz_r,
        "tr.nnz_s": nnz_s,
        "tr.removed_ratio": (nnz_r - nnz_s) / nnz_r if nnz_r else 0.0,
        "tr.comm_mb": comm_mb.get("TrReduction", 0.0),
        "tr.peak_live_mb": peaks.get("TrReduction", 0) / 1e6,
        "contigs.n": len(contigs),
    })
    return Staged(outcome=out, wall=wall, layers=layers)
