"""Blocked (strip-mined) overlap detection — the pipeline's one candidate path.

Section VIII: *"we can form only a part of the candidate overlap matrix in
each time step, aligning only sequences belonging to this part, and removing
the spurious entries before moving on to the next region of the output
matrix"* — the memory-reduction plan that lets large genomes run at low
concurrency.

:func:`candidate_overlaps_blocked` implements exactly that: ``C = A·Aᵀ`` is
computed in ``n_strips`` column strips ``C[:, lo:hi] = A · (A[lo:hi, :])ᵀ``
— each strip's right operand is a row slice of A, viewed transposed
(:meth:`~repro.dsparse.distmat.DistMat.row_slice`,
:attr:`~repro.dsparse.distmat.DistMat.T`); each strip is aligned and
pruned to its R entries immediately, so at no point does more than one
strip of candidate entries exist.  The union of strip results is
bit-identical to the one-strip product (tested), while peak
candidate-matrix memory drops by ~``n_strips``.  The unsplit product is
the one-strip case: its operand is ``A.T`` itself and its R is the
result, so :func:`~repro.core.pipeline.run_pipeline` forms candidates
here under either ``overlap_mode``.

Strips run in order in the caller; each strip's SUMMA block products and
alignment chunks run on the run's :mod:`repro.exec` executor.  Each strip
charges a **private** tracker and timer (a checkpoint persists them with
its R entries), merged back in strip order — the ordered deterministic
reduction that keeps R, the communication records, and the peak-memory
marks byte-identical for every executor, worker count and resume point.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..align.xdrop import Scoring
from ..dsparse.distmat import DistMat
from ..dsparse.summa import summa
from ..exec import Executor, SERIAL
from ..mpisim.comm import SimComm
from ..mpisim.grid import block_bounds
from ..mpisim.tracker import CommTracker, StageTimer
from ..resilience.checkpoint import StripCheckpoint
from ..resilience.faults import maybe_fault
from ..seqs.fasta import ReadSet
from .memory import coo_nbytes
from .overlap import (AlignmentFilter, align_candidates, full_product_nnz,
                      row_census)
from .semirings import C_NFIELDS, PositionsSemiring, R_NFIELDS

__all__ = ["BlockedOverlapResult", "candidate_overlaps_blocked"]


@dataclass
class BlockedOverlapResult:
    """Outcome of strip-mined overlap detection.

    Attributes
    ----------
    R:
        The overlap matrix (the same for every strip count).
    nnz_c:
        Total candidate entries over all strips (nnz(C) of the whole
        product).
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


def _run_strip(A: DistMat, At: DistMat, lo: int, reads: ReadSet, k: int,
               starts: np.ndarray, executor: Executor, mode: str,
               scoring: Scoring, filt: AlignmentFilter, fuzz: int) -> tuple:
    """One strip (operand ``At``, first column ``lo``) on ``executor``,
    charged to a private tracker and timer.  Returns ``(R_strip,
    strip_nnz, census, timer, tracker)``: R entries in the ``n × n`` frame,
    candidate count, row census over the strips and the accounting."""
    tracker = CommTracker(A.grid.nprocs)
    comm = SimComm(A.grid.nprocs, tracker)
    timer = StageTimer()
    # The strip product, already restricted to the strict upper triangle
    # in *global* coordinates (the strip's columns start at ``lo``).
    C_strip = summa(A, At, PositionsSemiring(), comm, "SpGEMM", timer,
                    executor=executor, upper=lo)
    # Align and prune this strip immediately (the memory saver).
    R_strip = align_candidates(C_strip, reads, k, comm, timer, mode=mode,
                               scoring=scoring, filt=filt, fuzz=fuzz,
                               executor=executor, col_offset=lo)
    return R_strip, C_strip.nnz(), row_census(C_strip, starts), timer, tracker


def _strip_fingerprint(A: DistMat, reads: ReadSet, k: int, nprocs: int,
                       mode: str, scoring, filt, fuzz: int,
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
    h.update(reads.content_fingerprint().encode())
    h.update(repr((A.shape, A.grid.q, k, nprocs, mode, scoring, filt, fuzz,
                   spans)).encode())
    return h.hexdigest()


def candidate_overlaps_blocked(A: DistMat, reads: ReadSet, k: int,
                               comm: SimComm, n_strips: int,
                               timer: StageTimer | None = None, *,
                               mode: str = "chain",
                               scoring: Scoring | None = None,
                               filt: AlignmentFilter | None = None,
                               fuzz: int = 100,
                               executor: Executor | None = None,
                               checkpoint_dir: str | None = None
                               ) -> BlockedOverlapResult:
    """Strip-mined ``C = A·Aᵀ`` with per-strip alignment and pruning.

    Parameters mirror :func:`~repro.core.overlap.candidate_overlaps` +
    :func:`~repro.core.overlap.align_candidates`; ``n_strips`` controls the
    peak-memory / latency trade-off (each strip is one Sparse SUMMA of A
    against a row slice of A, viewed transposed; one strip is A's own
    transpose view, and its R is the result).  Strips run one after
    another; ``executor`` runs each strip's SUMMA blocks and alignment
    chunks, and the strips' private accounting merges in strip order, so
    results, communication records and peak-memory marks are
    byte-identical for every executor.

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
    scoring = scoring if scoring is not None else Scoring()
    filt = filt if filt is not None else AlignmentFilter()
    n = A.shape[0]
    bounds = block_bounds(n, n_strips)
    # Empty strips are skipped; with no reads, one empty strip runs.
    spans = [(int(bounds[s]), int(bounds[s + 1])) for s in range(n_strips)
             if bounds[s] < bounds[s + 1]] or [(0, n)]
    starts = np.array([lo for lo, _hi in spans] + [n], dtype=np.int64)
    ckpt = None
    if checkpoint_dir is not None:
        fingerprint = _strip_fingerprint(A, reads, k, comm.nprocs, mode,
                                         scoring, filt, fuzz, spans)
        ckpt = StripCheckpoint(checkpoint_dir, fingerprint,
                               len(spans)).open()

    strip_nnz = np.zeros(len(spans), dtype=np.int64)
    census = np.zeros(len(spans), dtype=np.int64)
    parts = []
    for s, (lo, hi) in enumerate(spans):
        if ckpt is not None and ckpt.has(s):
            coo, *acct = ckpt.load(s)
            R_s = (DistMat.from_coo((n, n), A.grid, *coo) if coo is not None
                   else DistMat.empty((n, n), A.grid, R_NFIELDS))
        else:
            # One strip is the unsplit product: its operand is A's own
            # transpose view, with no copy of A's rows.
            At = A.T if len(spans) == 1 else A.row_slice(lo, hi).T
            R_s, *acct = _run_strip(A, At, lo, reads, k, starts, executor,
                                    mode, scoring, filt, fuzz)
            if ckpt is not None:
                # Fires *before* the save: an injected crash here models
                # dying mid-checkpoint — the strip is lost, the directory
                # stays consistent, and a resume recomputes this strip.
                maybe_fault("strip.checkpoint")
                g = R_s.to_global()
                ckpt.save(s, ((g.row, g.col, g.vals) if g.nnz else None,
                              *acct))
        # Ordered merge: strip order, whether computed or loaded.
        strip_nnz[s], census_s, strip_timer, strip_tracker = acct
        census += census_s
        timer.merge(strip_timer)
        comm.tracker.merge(strip_tracker)
        parts.append(R_s)
    # The expansion peak: the largest strip as an unpruned SUMMA would
    # hold it, counted by symmetry once every strip's census is in.
    full = full_product_nnz(A, starts, strip_nnz, census)
    peak_bytes = coo_nbytes(int(full.max(initial=0)), C_NFIELDS)
    timer.record_peak_bytes("SpGEMM", peak_bytes)

    if len(parts) == 1:
        R = parts[0]
    else:
        parts = [R_s.to_global() for R_s in parts]
        R = DistMat.from_coo((n, n), A.grid,
                             np.concatenate([p.row for p in parts]),
                             np.concatenate([p.col for p in parts]),
                             np.vstack([p.vals for p in parts]))
    # The assembled R is the same matrix as an unsplit run's, so the
    # Alignment-stage high-water mark must not pretend to be per-strip:
    # strip-mining shrinks the candidate peak (SpGEMM), never R's.
    timer.record_peak_bytes("Alignment", coo_nbytes(R.nnz(), R_NFIELDS))
    return BlockedOverlapResult(R=R, nnz_c=int(strip_nnz.sum()),
                                peak_strip_nnz=int(strip_nnz.max(initial=0)),
                                n_strips=n_strips,
                                peak_strip_bytes=peak_bytes)

