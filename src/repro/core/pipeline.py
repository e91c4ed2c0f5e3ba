"""The diBELLA 2D pipeline (paper Algorithm 1).

:func:`run_pipeline` wires the stages end to end on the simulated runtime:

``ReadFastq → CountKmer → CreateSpMat → SpGEMM (C = A·Aᵀ) → ExchangeRead →
Alignment → TrReduction``

using the same stage names as the paper's runtime-breakdown figures
(Figs. 5–8), so the benchmark harness can print the identical layers.  The
result object carries the string matrix, the per-stage compute times
(critical-path max over simulated ranks), the communication records, and the
sparsity statistics of Table III; :meth:`PipelineResult.modeled_time`
evaluates the α–β machine models to produce the runtimes the scaling figures
plot.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ..align.batch import resolve_align_impl
from ..align.xdrop import Scoring
from ..dsparse.backend import get_backend
from ..dsparse.coomat import CooMat
from ..dsparse.masked import resolve_spgemm_impl
from ..exec import get_executor, resolve_workers
from ..mpisim.comm import SimComm
from ..mpisim.grid import ProcessGrid2D
from ..mpisim.machine import MachineModel
from ..mpisim.tracker import CommTracker, StageTimer
from ..resilience.faults import (FaultPlan, active_plan, current_plan,
                                 resolve_fault_plan)
from ..seqs.fasta import ReadSet, read_fasta, read_fasta_to_store
from ..seqs.kmer_counter import (count_kmers, reliable_upper_bound,
                                 resolve_kmer_impl)
from ..seqs.read_store import resolve_read_store, resolve_store_dir
from ..seqs.seeding import DEFAULT_SEED_W, make_scheme, resolve_seed_mode
from .blocked import candidate_overlaps_blocked
from .memory import (apportion_budget, plan_strips, resolve_checkpoint_dir,
                     resolve_overlap_mode)
from .overlap import (AlignmentFilter, align_candidates, build_a_matrix,
                      candidate_overlaps, exchange_reads)
from .string_graph import StringGraph
from .transitive_reduction import transitive_reduction

__all__ = ["PipelineConfig", "PipelineResult", "run_pipeline",
           "run_pipeline_from_fasta", "STAGES"]

#: Stage names in the paper's breakdown order (Figs. 5–8, bottom to top).
STAGES = ["Alignment", "ReadFastq", "CountKmer", "CreateSpMat", "SpGEMM",
          "ExchangeRead", "TrReduction"]


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable parameters of a diBELLA 2D run.

    Defaults mirror the paper's settings (k = 17; reliable k-mer ceiling from
    the BELLA model; x-drop alignment).  ``nprocs`` must be a perfect square
    (the 2D grid); ``align_mode='chain'`` switches to the alignment-free
    coordinate estimate for large runs.  ``backend`` names the local
    sparse-kernel backend (:func:`repro.dsparse.get_backend`): ``"auto"``
    routes scalar semirings onto scipy CSR kernels and multi-field
    semirings onto the numpy ESC reference; results are byte-identical
    across backends.

    ``workers`` / ``executor`` select the shared-memory execution engine
    (:func:`repro.exec.get_executor`) that actually parallelizes the
    simulated ranks' local work: ``workers=None`` reads ``REPRO_WORKERS``
    (default 1), ``executor="auto"`` picks the serial reference for one
    worker and the process pool otherwise.  Like ``backend``, this is a
    pure performance axis — output is byte-identical for every executor
    and worker count.

    ``align_impl`` selects the alignment engine for the x-drop/chain
    stage (:func:`repro.align.resolve_align_impl`): ``"batch"`` packs all
    candidate pairs into structure-of-arrays buffers and extends them in
    lockstep batched kernel sweeps (the fast path), ``"loop"`` dispatches
    one Python call per pair (the reference oracle), ``"auto"`` honors the
    ``REPRO_ALIGN_IMPL`` environment variable, else runs ``batch``.  Output
    is byte-identical across engines.

    ``spgemm_impl`` selects the engine for the two multi-field semiring
    products (:func:`repro.dsparse.masked.resolve_spgemm_impl`):
    ``"masked"`` decomposes ``C = A·Aᵀ`` into a native scalar count product
    plus a mask-pruned ESC seed pass, and squares ``R`` under its own
    pattern in transitive reduction; ``"esc"`` runs the monolithic
    expand-sort-compress reference; ``"auto"`` honors
    ``REPRO_SPGEMM_IMPL``, else runs ``masked``.  C, R, S, and the
    communication records are byte-identical across engines (only the
    ``TrReduction`` live-set peak differs — the masked ``N`` genuinely
    holds fewer entries).

    ``kmer_impl`` does the same for the k-mer stages
    (:func:`repro.seqs.kmer_counter.resolve_kmer_impl`): ``"batch"`` runs
    ``CountKmer`` as exact per-owner histograms (resident, or spilled to
    sorted runs under ``memory_budget``'s table share) and the
    ``CreateSpMat`` scan as one vectorized pass per rank; ``"loop"`` keeps
    the Bloom-filtered per-read / per-key dict reference oracle; ``"auto"``
    honors ``REPRO_KMER_IMPL``, else runs ``batch``.  The k-mer table, A,
    and everything downstream are byte-identical across engines.

    ``overlap_mode`` selects the candidate-formation path: ``"monolithic"``
    forms all of ``C = A·Aᵀ`` at once, ``"blocked"`` strip-mines it
    (paper Section VIII) so peak candidate memory drops by ~``n_strips``
    while S stays byte-identical; ``"auto"`` honors the
    ``REPRO_OVERLAP_MODE`` environment variable, else runs monolithic.  In
    blocked mode an explicit ``n_strips`` wins; otherwise ``memory_budget``
    (bytes the live candidate strip may occupy — see
    :func:`repro.core.memory.plan_strips`) picks the count from the
    measured ``nnz(A)`` and the BELLA density model.

    ``seed_mode`` selects the seeding scheme
    (:func:`repro.seqs.seeding.resolve_seed_mode`): ``"full"`` seeds with
    every reliable k-mer window (the paper's behavior, byte-identical to
    the historical hardwired path), ``"minimizer"`` / ``"syncmer"`` sketch
    each read down to ~``2/(w+1)`` / ``1/w`` of its windows before
    counting and A construction — shrinking nnz(A), nnz(C), alignment
    work, and service refresh cost at a small recall cost measured by
    ``benchmarks/bench_seed_mode.py``; ``"auto"`` honors
    ``REPRO_SEED_MODE``, else runs ``full``.  ``seed_w`` is the window
    parameter of the sketched schemes (ignored by ``full``).  Unlike the
    ``*_impl`` axes this one intentionally changes output — but for a
    fixed mode it stays byte-identical across executors, engines, strip
    counts, and service batchings (schemes are pure per-read functions).

    ``fault_plan`` arms deterministic fault injection for the run
    (:class:`repro.resilience.FaultPlan` spec grammar, e.g.
    ``"exec.chunk:crash@3;summa.block:exc@2"``); ``None`` defers to
    ``REPRO_FAULT_SPEC`` when no plan is already armed, and an empty
    string pins the run fault-free regardless of the environment.  The
    recovery machinery re-runs only lost work, so every surviving run is
    byte-identical to a fault-free one.  ``checkpoint_dir`` enables
    crash-safe per-strip checkpointing on the blocked overlap path
    (``None`` defers to ``REPRO_CHECKPOINT_DIR``): a killed run
    re-invoked with the same directory resumes at the last completed
    strip.

    ``read_store`` selects the read-base backend
    (:func:`repro.seqs.read_store.resolve_read_store`): ``"inmem"`` keeps
    per-read code arrays resident (the historical behavior), ``"mmap"``
    persists the concatenated 2-bit buffer plus offsets/lengths to disk
    once and serves every ``soa``/``soa_block`` view as a read-only
    ``np.memmap`` — process workers reopen the store by path instead of
    receiving the bases over the pipe, and peak RSS stops scaling with
    input size; ``"auto"`` honors ``REPRO_READ_STORE``, else runs
    in-memory.  Output is byte-identical across backends.  ``store_dir``
    places the store files (``None`` defers to ``REPRO_STORE_DIR``, else
    a self-cleaning temporary directory).  When a ``memory_budget`` is
    set it is apportioned across the big consumers
    (:func:`repro.core.memory.apportion_budget`): half drives the blocked
    candidate strip count, a quarter caps the k-mer engine's buffered
    histograms (sorted runs spill to disk beyond it), the rest is headroom.
    """

    k: int = 17
    nprocs: int = 1
    align_mode: str = "xdrop"
    align_impl: str = "auto"
    kmer_impl: str = "auto"
    spgemm_impl: str = "auto"
    scoring: Scoring = field(default_factory=Scoring)
    filt: AlignmentFilter = field(default_factory=AlignmentFilter)
    fuzz: int = 150
    kmer_batches: int = 1
    kmer_upper: int | None = None
    depth_hint: float = 30.0
    error_hint: float = 0.15
    max_tr_rounds: int = 32
    backend: str = "auto"
    workers: int | None = None
    executor: str = "auto"
    overlap_mode: str = "auto"
    n_strips: int | None = None
    memory_budget: int | None = None
    seed_mode: str = "auto"
    seed_w: int = DEFAULT_SEED_W
    fault_plan: str | None = None
    checkpoint_dir: str | None = None
    read_store: str = "auto"
    store_dir: str | None = None


@dataclass
class PipelineResult:
    """Everything a diBELLA 2D run produces (matrices, stats, accounting)."""

    config: PipelineConfig
    n_reads: int
    n_kmers: int
    string_graph: StringGraph
    S: CooMat
    nnz_a: int
    nnz_c: int
    nnz_r: int
    nnz_s: int
    tr_rounds: int
    timer: StageTimer
    tracker: CommTracker
    overlap_mode: str = "monolithic"
    n_strips: int = 1
    align_impl: str = "batch"
    kmer_impl: str = "batch"
    spgemm_impl: str = "masked"
    seed_mode: str = "full"
    read_store: str = "inmem"
    #: The pre-reduction overlap matrix (global, canonical order).  The
    #: incremental assembly service splices delta rows into it on refresh;
    #: batch callers may ignore it.
    R: CooMat | None = None

    @property
    def spgemm_paths(self) -> dict[str, dict[str, int]]:
        """Per-stage SpGEMM kernel-dispatch counters (``repro stats``)."""
        return self.timer.kernel_counts()

    # -- paper statistics ---------------------------------------------------
    @property
    def a_density(self) -> float:
        """A nonzeros per k-mer column (Table II's ``a = nnz(A)/m``)."""
        return self.nnz_a / max(1, self.n_kmers)

    @property
    def c_density(self) -> float:
        """C nonzeros per row (Table III's ``c``; counts both triangles)."""
        return 2.0 * self.nnz_c / max(1, self.n_reads)

    @property
    def r_density(self) -> float:
        """R directed entries per row (Table III's ``r``)."""
        return self.nnz_r / max(1, self.n_reads)

    @property
    def s_density(self) -> float:
        """S directed entries per row (Table II's ``s``)."""
        return self.nnz_s / max(1, self.n_reads)

    def inefficiency(self, depth: float) -> float:
        """The overlapper inefficiency factor ``c / 2d`` (Table III)."""
        return self.c_density / (2.0 * depth)

    # -- memory trajectory --------------------------------------------------
    @property
    def peak_bytes(self) -> dict[str, int]:
        """Per-stage live-matrix high-water marks in bytes.

        ``SpGEMM`` is the candidate-matrix peak — the quantity the blocked
        mode divides by its strip count (Section VIII's memory reduction).
        """
        return self.timer.peak_bytes()

    @property
    def peak_candidate_bytes(self) -> int:
        """Candidate-matrix (SpGEMM stage) memory high-water mark."""
        return self.peak_bytes.get("SpGEMM", 0)

    # -- modeled runtimes ------------------------------------------------------
    def stage_compute(self) -> dict[str, float]:
        """Measured per-stage critical-path compute seconds."""
        return self.timer.breakdown()

    def modeled_time(self, machine: MachineModel,
                     include_alignment: bool = True) -> dict[str, float]:
        """Per-stage modeled runtime on ``machine`` (compute + α–β comm)."""
        out: dict[str, float] = {}
        for stage in STAGES:
            if not include_alignment and stage == "Alignment":
                continue
            comp = self.timer.stage_seconds.get(stage, 0.0)
            comm = self.tracker.stage_comm_time(stage, machine)
            total = comp * machine.compute_scale + comm
            if total > 0.0:
                out[stage] = total
        return out

    def modeled_total(self, machine: MachineModel,
                      include_alignment: bool = True) -> float:
        return sum(self.modeled_time(machine, include_alignment).values())


def _require_nonempty_reads(reads: ReadSet) -> None:
    """Refuse zero-length reads before they reach k-mer extraction.

    A zero-length read contributes no k-mers but still occupies a matrix
    row, silently skewing densities and layouts; strict FASTA parsing
    already refuses them at ingest, so one arriving here means a caller
    constructed it directly — name it instead of propagating the skew.
    """
    lengths = reads.lengths
    if lengths.shape[0] and int(lengths.min()) <= 0:
        i = int(np.argmin(lengths))
        raise ValueError(
            f"read {reads.names[i]!r} (index {i}) has length 0; "
            f"zero-length reads cannot enter k-mer extraction")


def run_pipeline(reads: ReadSet, config: PipelineConfig | None = None, *,
                 read_fastq_seconds: float = 0.0) -> PipelineResult:
    """Run overlap detection + transitive reduction on a ReadSet.

    ``read_fastq_seconds`` lets :func:`run_pipeline_from_fasta` charge the
    parse time it measured to the ``ReadFastq`` stage.  With
    ``read_store="mmap"`` an in-memory ReadSet is persisted to an on-disk
    store first (under ``store_dir`` when set, else a temporary directory
    removed when the run finishes); store-backed ReadSets pass through
    unchanged.
    """
    config = config if config is not None else PipelineConfig()
    backend = get_backend(config.backend)
    overlap_mode = resolve_overlap_mode(config.overlap_mode)
    align_impl = resolve_align_impl(config.align_impl)
    kmer_impl = resolve_kmer_impl(config.kmer_impl)
    spgemm_impl = resolve_spgemm_impl(config.spgemm_impl)
    seed_mode = resolve_seed_mode(config.seed_mode)
    scheme = make_scheme(seed_mode, config.k, config.seed_w)
    checkpoint_dir = resolve_checkpoint_dir(config.checkpoint_dir)
    read_store = resolve_read_store(config.read_store)
    _require_nonempty_reads(reads)
    store_dir = resolve_store_dir(config.store_dir)
    tmp_store: str | None = None
    if read_store == "mmap" and reads.store is None:
        if store_dir is not None:
            os.makedirs(store_dir, exist_ok=True)
            reads = reads.to_store(os.path.join(store_dir, "reads"))
        else:
            tmp_store = tempfile.mkdtemp(prefix="repro-read-store-")
            reads = reads.to_store(tmp_store)
    elif reads.store is not None:
        read_store = "mmap"
    try:
        return _run_pipeline_inner(
            reads, config, backend, overlap_mode, align_impl, kmer_impl,
            spgemm_impl, seed_mode, scheme, checkpoint_dir, read_store,
            store_dir, read_fastq_seconds)
    finally:
        if tmp_store is not None:
            shutil.rmtree(tmp_store, ignore_errors=True)


def _run_pipeline_inner(reads, config, backend, overlap_mode, align_impl,
                        kmer_impl, spgemm_impl, seed_mode, scheme,
                        checkpoint_dir, read_store, store_dir,
                        read_fastq_seconds):
    # Fault-plan precedence: an explicit config spec always arms a fresh
    # plan ("" pins the run fault-free); otherwise an already-armed plan
    # (e.g. the service's persistent cross-ingest plan) is left in place,
    # and only then does REPRO_FAULT_SPEC get a say.
    if config.fault_plan is not None:
        plan = FaultPlan(config.fault_plan)
    elif current_plan() is None:
        plan = resolve_fault_plan(None)
    else:
        plan = None
    grid = ProcessGrid2D(config.nprocs)
    tracker = CommTracker(config.nprocs)
    comm = SimComm(config.nprocs, tracker)
    timer = StageTimer()
    if read_fastq_seconds:
        timer.add("ReadFastq", read_fastq_seconds)

    upper = config.kmer_upper
    if upper is None:
        upper = reliable_upper_bound(config.depth_hint, config.error_hint,
                                     config.k)
    # One --memory-budget covers the big consumers (see apportion_budget):
    # the candidate share drives the strip count below, the table share
    # caps the k-mer counter's resident tables.  The split is applied for
    # every read-store backend so a budgeted run stays byte-identical
    # between inmem and mmap.
    budget = (apportion_budget(config.memory_budget)
              if config.memory_budget is not None else None)
    with active_plan(plan), \
            get_executor(config.executor,
                         resolve_workers(config.workers)) as ex:
        table = count_kmers(reads, config.k, comm, timer,
                            batches=config.kmer_batches, upper=upper,
                            executor=ex, impl=kmer_impl, scheme=scheme,
                            table_budget=(budget.tables if budget else None),
                            spill_dir=store_dir)

        A = build_a_matrix(reads, table, grid, comm, timer, executor=ex,
                           impl=kmer_impl, scheme=scheme)
        nnz_a = A.nnz()
        # Read exchange is issued right after partitioning so it overlaps
        # with counting and SpGEMM (paper Section IV-D); accounting order is
        # equivalent.
        exchange_reads(reads, grid, comm)
        if overlap_mode == "blocked":
            plan = plan_strips(nnz_a, len(table), len(reads),
                               memory_budget=(budget.candidate if budget
                                              else None),
                               n_strips=config.n_strips)
            blk = candidate_overlaps_blocked(
                A, reads, config.k, comm, plan.n_strips, timer,
                mode=config.align_mode, scoring=config.scoring,
                filt=config.filt, fuzz=config.fuzz, backend=backend,
                executor=ex, align_impl=align_impl,
                spgemm_impl=spgemm_impl, checkpoint_dir=checkpoint_dir)
            nnz_c, R, n_strips = blk.nnz_c, blk.R, blk.n_strips
        else:
            C = candidate_overlaps(A, comm, timer, backend=backend,
                                   executor=ex, spgemm_impl=spgemm_impl)
            nnz_c = C.nnz()
            R = align_candidates(C, reads, config.k, comm, timer,
                                 mode=config.align_mode,
                                 scoring=config.scoring,
                                 filt=config.filt, fuzz=config.fuzz,
                                 executor=ex, impl=align_impl)
            n_strips = 1
        nnz_r = R.nnz()
        tr = transitive_reduction(R, comm, timer, fuzz=config.fuzz,
                                  max_rounds=config.max_tr_rounds,
                                  backend=backend, executor=ex,
                                  spgemm_impl=spgemm_impl)
    S_global = tr.S.to_global()
    return PipelineResult(
        config=config, n_reads=len(reads), n_kmers=len(table),
        string_graph=StringGraph.from_coomat(S_global), S=S_global,
        nnz_a=nnz_a, nnz_c=nnz_c, nnz_r=nnz_r, nnz_s=tr.S.nnz(),
        tr_rounds=tr.rounds, timer=timer, tracker=tracker,
        overlap_mode=overlap_mode, n_strips=n_strips,
        align_impl=align_impl, kmer_impl=kmer_impl,
        spgemm_impl=spgemm_impl, seed_mode=seed_mode,
        read_store=read_store, R=R.to_global())


def run_pipeline_from_fasta(path, config: PipelineConfig | None = None
                            ) -> PipelineResult:
    """Run the pipeline on a FASTA file, timing the parse as ``ReadFastq``.

    With ``read_store="mmap"`` the FASTA is streamed straight into the
    on-disk store (:func:`~repro.seqs.fasta.read_fasta_to_store`) — the
    bases are never all resident, which is the ingest path for inputs
    larger than memory.
    """
    cfg = config if config is not None else PipelineConfig()
    tmp_store: str | None = None
    try:
        t0 = time.perf_counter()
        if resolve_read_store(cfg.read_store) == "mmap":
            store_dir = resolve_store_dir(cfg.store_dir)
            if store_dir is not None:
                os.makedirs(store_dir, exist_ok=True)
                target = os.path.join(store_dir, "reads")
            else:
                tmp_store = tempfile.mkdtemp(prefix="repro-read-store-")
                target = tmp_store
            reads = read_fasta_to_store(path, target)
        else:
            reads = read_fasta(path)
        parse_seconds = time.perf_counter() - t0
        # Parallel MPI-IO splits the parse across ranks; charge the share.
        return run_pipeline(reads, cfg,
                            read_fastq_seconds=parse_seconds / cfg.nprocs)
    finally:
        if tmp_store is not None:
            shutil.rmtree(tmp_store, ignore_errors=True)
