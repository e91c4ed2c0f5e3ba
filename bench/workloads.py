"""The four benchmark workloads: seeded inputs, configs, scoring, digests.

Sizes are frozen here (tuned once on the recording host so one iteration
lasts a little over 2 s); a perf change never edits this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.contigs import extract_contigs
from repro.core.pipeline import PipelineConfig
from repro.eval.assembly_metrics import contig_spans, misjoin_count, n50
from repro.eval.metrics import overlap_recall_precision
from repro.mpisim.machine import CORI_HASWELL
from repro.seqs import (ErrorModel, GenomeSpec, ReadSimSpec, TrueLayout,
                        simulate_reads)

__all__ = ["WORKLOADS", "Workload", "Outcome", "dataset", "pipeline_config",
           "permuted", "digests", "score"]

#: True-overlap threshold of the recall/precision score (BELLA's criterion).
MIN_TRUE_OVERLAP = 500


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the configuration it runs under (why each
    exists is recorded next to its name in ``BENCHMARK.json``)."""

    name: str
    genome: int          # bp at full size
    smoke_genome: int    # bp for --smoke (about a tenth of the work)
    depth: float
    error: float
    mean_len: float
    align_mode: str
    nprocs: int
    seed_mode: str = "full"
    n_repeats: int = 0
    repeat_len: int = 0
    service: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload("clr_xdrop",
             genome=4_600, smoke_genome=1_600, depth=10, error=0.12,
             mean_len=800, align_mode="xdrop", nprocs=4),
    Workload("chain_wide",
             genome=90_000, smoke_genome=12_000, depth=30, error=0.13,
             mean_len=1_100, align_mode="chain", nprocs=16,
             n_repeats=4, repeat_len=2_000),
    Workload("hifi_deep",
             genome=22_000, smoke_genome=4_000, depth=40, error=0.01,
             mean_len=1_500, align_mode="chain", nprocs=4),
    Workload("service_stream",
             genome=90_000, smoke_genome=9_000, depth=12, error=0.01,
             mean_len=2_000, align_mode="chain", nprocs=4,
             seed_mode="minimizer", service=True),
]}


@dataclass
class Outcome:
    """What one iteration produced, in the form both scorers read."""

    S: object            # CooMat, global
    R: object            # CooMat, global, pre-reduction
    tracker: object      # CommTracker of the run (or of the final version)
    graph: object        # StringGraph built from S
    cp: dict             # critical-path seconds per paper stage


def dataset(wl: Workload, seed: int, smoke: bool):
    """``(reads, layout)`` for ``wl`` at ``seed`` (same seed, same bytes)."""
    base = seed * 1000 + 10 * list(WORKLOADS).index(wl.name)
    spec = ReadSimSpec(
        GenomeSpec(length=wl.smoke_genome if smoke else wl.genome,
                   n_repeats=wl.n_repeats, repeat_len=wl.repeat_len,
                   seed=base + 1),
        depth=wl.depth, mean_len=wl.mean_len,
        error=ErrorModel(rate=wl.error), seed=base + 2)
    _genome, reads, layout = simulate_reads(spec)
    return reads, layout


def pipeline_config(wl: Workload) -> PipelineConfig:
    """Every ``auto`` axis pinned, serial: 2 vCPUs measure the scheduler."""
    return PipelineConfig(
        nprocs=wl.nprocs, align_mode=wl.align_mode, seed_mode=wl.seed_mode,
        depth_hint=wl.depth, error_hint=wl.error,
        align_impl="batch", kmer_impl="batch", spgemm_impl="masked",
        overlap_mode="monolithic", read_store="inmem", fault_plan="",
        workers=1, executor="serial")


def permuted(layout: TrueLayout, order: np.ndarray) -> TrueLayout:
    """Layout of the reads taken in ``order`` (the service's arrival order)."""
    return TrueLayout(layout.start[order], layout.end[order],
                      layout.strand[order])


def digests(out: Outcome) -> dict[str, str]:
    """SHA-256 of S, R and the per-stage traffic records."""
    def sha(*arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(str((a.shape, a.dtype.str)).encode())
            h.update(a.tobytes())
        return h.hexdigest()
    summary = repr(sorted((stage, sorted(rec.items()))
                          for stage, rec in out.tracker.summary().items()))
    return {"S": sha(out.S.row, out.S.col, out.S.vals),
            "R": sha(out.R.row, out.R.col, out.R.vals),
            "comm": hashlib.sha256(summary.encode()).hexdigest()}


def score(out: Outcome, layout: TrueLayout) -> dict[str, float]:
    """The count-like metrics: they repeat exactly at one seed."""
    tracker = out.tracker
    found = set(zip(out.R.row.tolist(), out.R.col.tolist()))
    recall, precision = overlap_recall_precision(found, layout,
                                                 MIN_TRUE_OVERLAP)
    contigs = extract_contigs(out.graph)
    spans = contig_spans(contigs, layout)
    return {
        "comm_mbytes": sum(rec.total_bytes
                           for rec in tracker.records.values()) / 1e6,
        "comm_model_ms": 1e3 * sum(
            tracker.stage_comm_time(stage, CORI_HASWELL)
            for stage in tracker.records),
        "acc.overlap_recall": recall,
        "acc.overlap_precision": precision,
        "asm.contig_n50_bp": float(n50([hi - lo for lo, hi in spans])),
        "asm.misjoins": float(misjoin_count(contigs, layout)),
    }
