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

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..align.xdrop import Scoring
from ..dsparse.backend import get_backend
from ..dsparse.coomat import CooMat
from ..exec import executor_name, get_executor
from ..mpisim.comm import SimComm
from ..mpisim.grid import ProcessGrid2D
from ..mpisim.machine import MachineModel
from ..mpisim.tracker import CommTracker, StageTimer
from ..options import AXES, EXECUTOR, FAULT_PLAN, READ_STORE
from ..resilience.faults import FaultPlan, active_plan, current_plan
from ..seqs.fasta import ReadSet, read_fasta, read_fasta_to_store
from ..seqs.kmer_counter import count_kmers, reliable_upper_bound
from ..seqs.seeding import DEFAULT_SEED_W, make_scheme
from .blocked import candidate_overlaps_blocked
from .memory import apportion_budget, plan_strips
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
    coordinate estimate for large runs.

    The option axes — engines, backend, workers/executor, overlap mode,
    seeding, read store, directories, fault plan — are declared once in
    :data:`repro.options.AXES` (the README's "Options" table): flag,
    environment variable, accepted values, default and meaning.  Their
    fields here default to *unset* (``"auto"`` / ``None``);
    :meth:`resolved` pins each one — explicit, else environment, else
    default — and :func:`run_pipeline` does that exactly once per run.
    What the table cannot carry:

    * ``fault_plan`` precedence: an explicit spec always arms a fresh
      :class:`~repro.resilience.FaultPlan` for the run (``""`` pins it
      fault-free); with none, a plan that is already armed (the service's
      persistent cross-ingest plan) stays in place, and only with neither
      does ``REPRO_FAULT_SPEC`` get a say.
    * ``memory_budget`` is apportioned across the big consumers
      (:func:`repro.core.memory.apportion_budget`): half bounds the live
      candidate strip (:func:`repro.core.memory.plan_strips` picks the
      blocked strip count from the measured ``nnz(A)``), a quarter caps the
      k-mer engine's buffered histograms (sorted runs spill beyond it), the
      rest is headroom — the same split for every read store, so a
      budgeted run is byte-identical between ``inmem`` and ``mmap``.
    * ``n_strips`` (explicit strip count, beats the budget) and
      ``checkpoint_dir`` only mean something on the blocked path; under
      ``monolithic`` they are refused, not ignored.
    * ``seed_w`` is the window of the sketched seed modes (``full``
      ignores it).
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

    def resolved(self) -> "PipelineConfig":
        """This config with every axis pinned to a concrete value.

        Two axes need more than their table row: ``executor`` also depends
        on the worker count (:func:`repro.exec.executor_name`), and an
        unset ``fault_plan`` consults the environment only when no plan is
        armed (see the class docstring).
        """
        values = {axis.name: axis.resolve(getattr(self, axis.name))
                  for axis in AXES
                  if axis.pipeline and axis not in (EXECUTOR, FAULT_PLAN)}
        values["executor"] = executor_name(self.executor, values["workers"])
        if self.fault_plan is None and current_plan() is None:
            values["fault_plan"] = FAULT_PLAN.resolve()
        if values["overlap_mode"] == "monolithic":
            for name in ("n_strips", "checkpoint_dir"):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"{name}={getattr(self, name)!r} only applies to "
                        f"overlap_mode='blocked', but overlap_mode resolves "
                        f"to 'monolithic'")
        return replace(self, **values)

    @classmethod
    def from_args(cls, args, **overrides) -> "PipelineConfig":
        """A config from every field an argparse namespace carries."""
        values = {f.name: getattr(args, f.name) for f in fields(cls)
                  if hasattr(args, f.name)}
        return cls(**{**values, **overrides})


@dataclass
class PipelineResult:
    """Everything a diBELLA 2D run produces (matrices, stats, accounting).

    ``config`` is the *resolved* config the run used: no axis is left at
    ``"auto"``, so ``result.config.align_impl`` names the engine that ran.
    """

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
    #: Strips the candidate matrix was formed in (1 on the monolithic path).
    n_strips: int = 1
    #: The pre-reduction overlap matrix (global, canonical order).  The
    #: incremental assembly service splices delta rows into it on refresh;
    #: batch callers may ignore it.
    R: CooMat | None = None

    @property
    def kernel_counts(self) -> dict[str, dict[str, int]]:
        """Per-stage kernel-work counters (``repro stats``): SpGEMM block
        products per kernel path, x-drop sweep rounds/cells/words."""
        return self.timer.kernel_counts()

    @property
    def work_counts(self) -> dict[str, dict[str, int]]:
        """Per-stage exact work (``repro stats``): the A scan's lookup
        ``windows``/``probes``/``leftover``; masked SpGEMM ``products``
        expanded by ESC and ``probes`` looked up by the dot kernel."""
        return self.timer.work_counts()

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


@contextlib.contextmanager
def _store_target(cfg: PipelineConfig):
    """Directory for this run's mmap read store.

    ``<store_dir>/reads`` when a store directory is configured, else a
    temporary directory removed when the block exits.
    """
    if cfg.store_dir is not None:
        os.makedirs(cfg.store_dir, exist_ok=True)
        yield os.path.join(cfg.store_dir, "reads")
        return
    tmp = tempfile.mkdtemp(prefix="repro-read-store-")
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_pipeline(reads: ReadSet, config: PipelineConfig | None = None, *,
                 read_fastq_seconds: float = 0.0) -> PipelineResult:
    """Run overlap detection + transitive reduction on a ReadSet.

    The config is resolved here, once (:meth:`PipelineConfig.resolved`);
    the result carries the resolved copy.  ``read_fastq_seconds`` lets
    :func:`run_pipeline_from_fasta` charge the parse time it measured to
    the ``ReadFastq`` stage.  With ``read_store="mmap"`` an in-memory
    ReadSet is persisted to an on-disk store first (under ``store_dir``
    when set, else a temporary directory removed when the run finishes);
    store-backed ReadSets pass through unchanged.
    """
    cfg = (config if config is not None else PipelineConfig()).resolved()
    _require_nonempty_reads(reads)
    with contextlib.ExitStack() as stack:
        if reads.store is not None:
            cfg = replace(cfg, read_store="mmap")
        elif cfg.read_store == "mmap":
            reads = reads.to_store(stack.enter_context(_store_target(cfg)))
        return _run_pipeline_inner(reads, cfg, read_fastq_seconds)


def _run_pipeline_inner(reads, cfg, read_fastq_seconds):
    backend = get_backend(cfg.backend)
    scheme = make_scheme(cfg.seed_mode, cfg.k, cfg.seed_w)
    faults = (FaultPlan(cfg.fault_plan) if cfg.fault_plan is not None
              else None)
    grid = ProcessGrid2D(cfg.nprocs)
    tracker = CommTracker(cfg.nprocs)
    comm = SimComm(cfg.nprocs, tracker)
    timer = StageTimer()
    if read_fastq_seconds:
        timer.add("ReadFastq", read_fastq_seconds)

    upper = cfg.kmer_upper
    if upper is None:
        upper = reliable_upper_bound(cfg.depth_hint, cfg.error_hint, cfg.k)
    budget = (apportion_budget(cfg.memory_budget)
              if cfg.memory_budget is not None else None)
    with active_plan(faults), get_executor(cfg.executor, cfg.workers) as ex:
        table = count_kmers(reads, cfg.k, comm, timer,
                            batches=cfg.kmer_batches, upper=upper,
                            executor=ex, impl=cfg.kmer_impl, scheme=scheme,
                            table_budget=(budget.tables if budget else None),
                            spill_dir=cfg.store_dir)

        A = build_a_matrix(reads, table, grid, comm, timer, executor=ex,
                           impl=cfg.kmer_impl, scheme=scheme)
        nnz_a = A.nnz()
        # Read exchange is issued right after partitioning so it overlaps
        # with counting and SpGEMM (paper Section IV-D); accounting order is
        # equivalent.
        exchange_reads(reads, grid, comm)
        if cfg.overlap_mode == "blocked":
            strips = plan_strips(nnz_a, len(table), len(reads),
                                 memory_budget=(budget.candidate if budget
                                                else None),
                                 n_strips=cfg.n_strips)
            blk = candidate_overlaps_blocked(
                A, reads, cfg.k, comm, strips.n_strips, timer,
                mode=cfg.align_mode, scoring=cfg.scoring, filt=cfg.filt,
                fuzz=cfg.fuzz, backend=backend, executor=ex,
                align_impl=cfg.align_impl, spgemm_impl=cfg.spgemm_impl,
                checkpoint_dir=cfg.checkpoint_dir)
            nnz_c, R, n_strips = blk.nnz_c, blk.R, blk.n_strips
        else:
            C = candidate_overlaps(A, comm, timer, backend=backend,
                                   executor=ex, spgemm_impl=cfg.spgemm_impl)
            nnz_c = C.nnz()
            R = align_candidates(C, reads, cfg.k, comm, timer,
                                 mode=cfg.align_mode, scoring=cfg.scoring,
                                 filt=cfg.filt, fuzz=cfg.fuzz,
                                 executor=ex, impl=cfg.align_impl)
            n_strips = 1
        nnz_r = R.nnz()
        tr = transitive_reduction(R, comm, timer, fuzz=cfg.fuzz,
                                  max_rounds=cfg.max_tr_rounds,
                                  backend=backend, executor=ex,
                                  spgemm_impl=cfg.spgemm_impl)
    S_global = tr.S.to_global()
    return PipelineResult(
        config=cfg, n_reads=len(reads), n_kmers=len(table),
        string_graph=StringGraph.from_coomat(S_global), S=S_global,
        nnz_a=nnz_a, nnz_c=nnz_c, nnz_r=nnz_r, nnz_s=tr.S.nnz(),
        tr_rounds=tr.rounds, timer=timer, tracker=tracker,
        n_strips=n_strips, R=R.to_global())


def run_pipeline_from_fasta(path, config: PipelineConfig | None = None
                            ) -> PipelineResult:
    """Run the pipeline on a FASTA file, timing the parse as ``ReadFastq``.

    With ``read_store="mmap"`` the FASTA is streamed straight into the
    on-disk store (:func:`~repro.seqs.fasta.read_fasta_to_store`) — the
    bases are never all resident, which is the ingest path for inputs
    larger than memory.
    """
    cfg = config if config is not None else PipelineConfig()
    cfg = replace(cfg, read_store=READ_STORE.resolve(cfg.read_store))
    with contextlib.ExitStack() as stack:
        t0 = time.perf_counter()
        if cfg.read_store == "mmap":
            reads = read_fasta_to_store(
                path, stack.enter_context(_store_target(cfg)))
        else:
            reads = read_fasta(path)
        parse_seconds = time.perf_counter() - t0
        # Parallel MPI-IO splits the parse across ranks; charge the share.
        return run_pipeline(reads, cfg,
                            read_fastq_seconds=parse_seconds / cfg.nprocs)
