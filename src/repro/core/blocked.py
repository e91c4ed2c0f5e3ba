"""Blocked (strip-mined) overlap detection — the paper's future-work mode.

Section VIII: *"we can form only a part of the candidate overlap matrix in
each time step, aligning only sequences belonging to this part, and removing
the spurious entries before moving on to the next region of the output
matrix"* — the memory-reduction plan that lets large genomes run at low
concurrency.

:func:`candidate_overlaps_blocked` implements exactly that: ``C = A·Aᵀ`` is
computed in ``n_strips`` column strips ``C[:, lo:hi] = A · Aᵀ[:, lo:hi]``;
each strip is aligned and pruned to its R entries immediately, so at no
point does more than one strip of candidate entries exist.  The union of
strip results is bit-identical to the monolithic path (tested), while peak
candidate-matrix memory drops by ~``n_strips``.

Strips are mutually independent, so they double as coarse-grained work
units for the shared-memory execution engine (:mod:`repro.exec`): each
strip runs its SUMMA + alignment against a **private** tracker and timer,
and the per-strip accounting is merged back in strip order — the ordered
deterministic reduction that keeps R, the communication records, and the
peak-memory marks byte-identical for every executor and worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..align.xdrop import Scoring
from ..dsparse.backend import Backend, get_backend
from ..dsparse.distmat import DistMat
from ..exec import Executor, SERIAL
from ..mpisim.comm import SimComm
from ..mpisim.grid import block_bounds
from ..mpisim.tracker import CommTracker, StageTimer
from ..options import ALIGN_IMPL, SPGEMM_IMPL
from ..resilience.checkpoint import StripCheckpoint
from ..resilience.faults import maybe_fault
from ..seqs.fasta import ReadSet
from .memory import coo_nbytes
from .overlap import (AlignmentFilter, align_candidates, full_product_nnz,
                      row_census, summa_positions)
from .semirings import C_NFIELDS, R_NFIELDS

__all__ = ["BlockedOverlapResult", "candidate_overlaps_blocked"]


@dataclass
class BlockedOverlapResult:
    """Outcome of strip-mined overlap detection.

    Attributes
    ----------
    R:
        The overlap matrix (identical to the monolithic pipeline's R).
    nnz_c:
        Total candidate entries over all strips (equals monolithic nnz(C)).
    peak_strip_nnz:
        Largest per-strip candidate count — the actual memory high-water
        mark, to compare against ``nnz_c``.
    n_strips:
        Number of strips executed.
    peak_strip_bytes:
        Byte size of the largest candidate strip as an unpruned SUMMA would
        hold it (diagonal and lower triangle included — the expansion
        peak), as recorded in the timer's ``SpGEMM`` high-water mark.  The
        strips compute only their upper triangles; the rest is counted by
        symmetry from every strip's row census
        (:func:`~repro.core.overlap.full_product_nnz`).
    """

    R: DistMat
    nnz_c: int
    peak_strip_nnz: int
    n_strips: int
    peak_strip_bytes: int = 0


def _strip_task(ctx, task):
    """Executor task: one strip's upper-triangle SUMMA + alignment.

    Runs against a private communicator/timer so strips can execute on any
    worker; returns the strip's global R entries, its candidate count, its
    row census over the strips (the input of the parent's peak count) and
    its accounting, for the parent to merge in strip order.  The task
    carries its own narrow ``Aᵀ`` strip (sliced in the parent), so a
    process pool never ships the full transpose to a worker.
    """
    A, reads, k, nprocs, mode, scoring, filt, fuzz, backend, align_impl, \
        spgemm_impl, starts = ctx
    lo, hi, At_strip = task
    backend = get_backend(backend)
    tracker = CommTracker(nprocs)
    comm = SimComm(nprocs, tracker)
    timer = StageTimer()
    n = A.shape[0]

    # The strip product, already restricted to the strict upper triangle
    # in *global* coordinates (the strip's columns start at ``lo``).
    C_strip = summa_positions(A, At_strip, comm, timer, backend, None,
                              spgemm_impl, col_offset=lo)
    strip_nnz = C_strip.nnz()
    census = row_census(C_strip, starts)

    # Align and prune this strip immediately (the memory saver): the
    # aligner works in global row coordinates; shift columns back.
    shifted = _shift_columns(C_strip, lo, n)
    R_strip = align_candidates(shifted, reads, k, comm, timer,
                               mode=mode, scoring=scoring, filt=filt,
                               fuzz=fuzz, impl=align_impl)
    g = R_strip.to_global()
    coo = (g.row, g.col, g.vals) if g.nnz else None
    return coo, strip_nnz, census, timer, tracker


def _strip_fingerprint(A: DistMat, reads: ReadSet, k: int, nprocs: int,
                       mode: str, scoring, filt, fuzz: int,
                       align_impl: str, spgemm_impl: str,
                       spans: list[tuple[int, int]]) -> str:
    """SHA-256 over everything a strip's result depends on.

    Stored in the checkpoint manifest so a resume against a directory
    written by a different input set / parameterization / strip layout is
    refused instead of silently merged.
    """
    h = hashlib.sha256()
    g = A.to_global()
    for arr in (g.row, g.col, g.vals):
        h.update(np.ascontiguousarray(arr).tobytes())
    # Backend-invariant read fingerprint: the mmap store returns its
    # manifest digest, in-memory sets hash the same byte stream in
    # bounded chunks — either way the bases are never materialized here.
    h.update(reads.content_fingerprint().encode())
    h.update(repr((A.shape, A.grid.q, k, nprocs, mode, scoring, filt, fuzz,
                   align_impl, spgemm_impl, spans)).encode())
    return h.hexdigest()


def candidate_overlaps_blocked(A: DistMat, reads: ReadSet, k: int,
                               comm: SimComm, n_strips: int,
                               timer: StageTimer | None = None, *,
                               mode: str = "chain",
                               scoring: Scoring | None = None,
                               filt: AlignmentFilter | None = None,
                               fuzz: int = 100,
                               backend: Backend | str | None = None,
                               executor: Executor | None = None,
                               align_impl: str | None = None,
                               spgemm_impl: str | None = None,
                               checkpoint_dir: str | None = None
                               ) -> BlockedOverlapResult:
    """Strip-mined ``C = A·Aᵀ`` with per-strip alignment and pruning.

    Parameters mirror :func:`~repro.core.overlap.candidate_overlaps` +
    :func:`~repro.core.overlap.align_candidates`; ``n_strips`` controls the
    peak-memory / latency trade-off (each strip is one Sparse SUMMA over a
    narrower ``Aᵀ``); ``backend`` selects the local kernels; ``align_impl``
    the per-strip alignment engine (resolved once here so every strip task
    runs the same engine regardless of worker environment).  ``executor``
    spreads whole strips over workers — each strip's private accounting is
    merged back in strip order, so results, communication records, and
    peak-memory marks are byte-identical for every executor.

    ``checkpoint_dir`` enables crash-safe strip checkpointing: each
    completed strip's result is persisted atomically to that directory
    (under a fingerprint-stamped manifest), and a re-invoked run with the
    same directory skips the strips already on disk — resuming a killed
    run at the last completed strip with byte-identical output.  A
    directory written by a different configuration is refused
    (:class:`~repro.resilience.checkpoint.CheckpointMismatch`).
    """
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    backend = get_backend(backend)
    scoring = scoring if scoring is not None else Scoring()
    filt = filt if filt is not None else AlignmentFilter()
    align_impl = ALIGN_IMPL.resolve(align_impl)
    spgemm_impl = SPGEMM_IMPL.resolve(spgemm_impl)
    n = A.shape[0]
    At = A.transpose(backend=backend)
    bounds = block_bounds(n, n_strips)
    spans = [(int(bounds[s]), int(bounds[s + 1])) for s in range(n_strips)
             if bounds[s] < bounds[s + 1]]
    starts = np.array([lo for lo, _hi in spans] + [n], dtype=np.int64)
    # Slice the strips up front and let At go: together the strips hold
    # exactly At's entries, and each worker only ever receives its own.
    tasks = [(lo, hi, At.column_slice(lo, hi)) for lo, hi in spans]
    del At

    ctx = (A, reads, k, comm.nprocs, mode, scoring, filt, fuzz, backend,
           align_impl, spgemm_impl, starts)
    # Weight by the strip's At entries — the SUMMA flops and downstream
    # candidate count scale with them, while block_bounds makes the column
    # widths near-uniform and thus balance-blind under skew.
    weights = [max(1, strip.nnz()) for _lo, _hi, strip in tasks]
    if checkpoint_dir is None:
        results, _secs = executor.run_timed(_strip_task, tasks, context=ctx,
                                            weights=weights)
    else:
        results = _run_checkpointed(executor, tasks, ctx, weights,
                                    checkpoint_dir, A, reads, k, comm.nprocs,
                                    mode, scoring, filt, fuzz, align_impl,
                                    spgemm_impl, spans)

    strip_nnz = np.zeros(len(spans), dtype=np.int64)
    census = np.zeros(len(spans), dtype=np.int64)
    partial_R: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    # Ordered merge: strip order, independent of the execution schedule.
    for s, (coo, nnz_s, census_s, strip_timer, strip_tracker) in \
            enumerate(results):
        strip_nnz[s] = nnz_s
        census += census_s
        timer.merge(strip_timer)
        comm.tracker.merge(strip_tracker)
        if coo is not None:
            partial_R.append(coo)
    # The expansion peak: the largest strip as an unpruned SUMMA would
    # hold it, counted by symmetry once every strip's census is in.
    full = full_product_nnz(A, starts, strip_nnz, census)
    peak_bytes = coo_nbytes(int(full.max(initial=0)), C_NFIELDS)
    timer.record_peak_bytes("SpGEMM", peak_bytes)

    if partial_R:
        rows = np.concatenate([p[0] for p in partial_R])
        cols = np.concatenate([p[1] for p in partial_R])
        vals = np.vstack([p[2] for p in partial_R])
    else:
        rows = cols = np.empty(0, np.int64)
        vals = np.empty((0, R_NFIELDS), np.int64)
    # The assembled R is the same matrix as the monolithic path's, so the
    # Alignment-stage high-water mark must not pretend to be per-strip:
    # strip-mining shrinks the candidate peak (SpGEMM), never R's.
    timer.record_peak_bytes("Alignment", coo_nbytes(rows.shape[0], R_NFIELDS))
    R = DistMat.from_coo((n, n), A.grid, rows, cols, vals)
    return BlockedOverlapResult(R=R, nnz_c=int(strip_nnz.sum()),
                                peak_strip_nnz=int(strip_nnz.max(initial=0)),
                                n_strips=n_strips,
                                peak_strip_bytes=peak_bytes)


def _run_checkpointed(executor: Executor, tasks: list, ctx, weights,
                      checkpoint_dir: str, A: DistMat, reads: ReadSet,
                      k: int, nprocs: int, mode: str, scoring, filt,
                      fuzz: int, align_impl: str, spgemm_impl: str,
                      spans: list[tuple[int, int]]) -> list:
    """Run strips with per-strip persistence, resuming completed ones.

    Strips execute in waves of ``executor.workers`` so each result lands
    on disk shortly after it completes (one big ``run_timed`` would hold
    everything in memory until the last strip finished, leaving a killed
    run with nothing to resume from).  Already-persisted strips are loaded
    instead of recomputed; the returned list is in strip order either way,
    so the caller's ordered merge — and thus R/S/tracker bytes — cannot
    tell a resumed run from a straight-through one.
    """
    fingerprint = _strip_fingerprint(A, reads, k, nprocs, mode, scoring,
                                     filt, fuzz, align_impl, spgemm_impl,
                                     spans)
    ckpt = StripCheckpoint(checkpoint_dir, fingerprint, len(tasks)).open()
    pending = [i for i in range(len(tasks)) if not ckpt.has(i)]
    wave_size = max(1, executor.workers)
    for w in range(0, len(pending), wave_size):
        wave = pending[w:w + wave_size]
        wave_results, _secs = executor.run_timed(
            _strip_task, [tasks[i] for i in wave], context=ctx,
            weights=[weights[i] for i in wave])
        for i, result in zip(wave, wave_results):
            # Fires *before* the save: an injected crash here models dying
            # mid-checkpoint — the strip is lost, the directory stays
            # consistent, and a resume recomputes exactly this strip.
            maybe_fault("strip.checkpoint")
            ckpt.save(i, result)
    return [ckpt.load(i) for i in range(len(tasks))]


def _shift_columns(C: DistMat, offset: int, n_cols: int) -> DistMat:
    """Re-embed a column strip into the full ``n×n`` coordinate space."""
    g = C.to_global()
    return DistMat.from_coo((C.shape[0], n_cols), C.grid, g.row,
                            g.col + offset, g.vals)
