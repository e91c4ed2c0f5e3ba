"""Distributed overlap detection: A construction, C = A·Aᵀ, alignment, R.

This module covers Algorithm 1 lines 4–8:

* :func:`build_a_matrix` — the |reads|×|k-mers| matrix ``A`` (one nonzero per
  (read, reliable k-mer) occurrence carrying the position and the
  canonical-flip bit), distributed on the 2D grid with the construction
  traffic charged to ``CreateSpMat``;
* :func:`candidate_overlaps` — ``C = A·Aᵀ`` by Sparse SUMMA under the
  :class:`~repro.core.semirings.PositionsSemiring` (stage ``SpGEMM``),
  restricted to the strict upper triangle (each pair aligned once);
* :func:`exchange_reads` — the read exchange: every grid rank fetches the
  full row-range and column-range of sequences it may align, charged to
  ``ExchangeRead`` (the paper's eager option (b), Section IV-D, which is what
  makes the 2D volume ``2nl/√P``);
* :func:`align_candidates` — seed-and-extend alignment (x-drop or chain
  mode) on every C nonzero, score pruning, overlap classification, and
  assembly of the symmetric overlap matrix ``R`` with
  ``[suffix, end_i, end_j, overlap_len]`` payloads (dovetails) and marked
  containment entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.batch import chain_extend_batch, extend_seeds_xdrop_batch
from ..align.overlapper import classify_overlap_batch
from ..align.xdrop import Scoring
from ..dsparse.backend import get_backend
from ..dsparse.coomat import CooMat, coo_nbytes
from ..dsparse.distmat import DistMat
from ..dsparse.spgemm import stable_key_sort
from ..dsparse.summa import summa
from ..exec import Executor, SERIAL
from ..exec.partition import weighted_chunks
from ..mpisim.comm import SimComm
from ..mpisim.grid import ProcessGrid2D, block_bounds
from ..mpisim.tracker import StageTimer
from ..options import ALIGN_IMPL, KMER_IMPL, SPGEMM_IMPL
from ..seqs.fasta import ReadSet
from ..seqs.kmer_counter import KmerTable, _extract_batch_task
from ..seqs.seeding import FullKScheme, SeedScheme
from .semirings import (A_NFIELDS, C_NFIELDS, C_PA1, C_PA2, C_PB1, C_PB2,
                        C_STRAND1, C_STRAND2, PositionsSemiring, R_CONTAINED,
                        R_CONTAINS, R_END_I, R_END_J, R_NFIELDS, R_NO_END,
                        R_OLEN, R_SUFFIX)

__all__ = ["AlignmentFilter", "build_a_matrix", "charge_a_routing",
           "candidate_overlaps", "exchange_reads", "align_candidates"]


@dataclass(frozen=True)
class AlignmentFilter:
    """Score-threshold policy for pruning candidate overlaps.

    An alignment passes when ``score >= max(min_score, ratio·overlap_len)``
    and the aligned span is at least ``min_overlap`` — the BELLA-style
    adaptive threshold ``t`` of Algorithm 1 line 8.
    """

    min_score: int = 50
    min_overlap: int = 200
    ratio: float = 0.4

    def passes(self, score: int, overlap_len: int) -> bool:
        if overlap_len < self.min_overlap:
            return False
        return score >= max(self.min_score, int(self.ratio * overlap_len))


def _block_key(ridx: np.ndarray, col: np.ndarray, span: int, m: int,
               col_bounds: np.ndarray) -> np.ndarray:
    """Each entry's (2D column block, rank-local read, column) sort key.

    ``ridx`` counts reads from the rank's first.  Sorted by this key a
    rank's entries come grouped by destination block column, row-major
    inside each group — the order :func:`_block_cuts` slices.  The block
    column is the number of the ``q - 1`` inner column bounds at or below
    the column: ``q - 1`` vector comparisons, which cost less than a
    ``searchsorted`` over the bounds up to ``q`` of about 24 (4x less at
    ``q`` = 2 to 4) and about the same near 32.
    """
    key = np.zeros(col.shape[0], dtype=np.int64)
    for bound in col_bounds[1:-1]:
        key += col >= bound
    key *= span
    key += ridx
    key *= np.int64(m)
    key += col
    return key


def _block_cuts(key: np.ndarray, lo: int, span: int, m: int,
                bounds: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Where each 2D block's slice lies in a rank's key-sorted entries.

    Block ``(i, j)`` is ``cuts[j, i]:cuts[j, i + 1]``: inside block column
    ``j`` the rank's reads split at the grid's row bounds, clipped to the
    rank's read span ``[lo, lo + span)``.
    """
    row_bounds, col_bounds = bounds
    q = col_bounds.shape[0] - 1
    first = np.clip(row_bounds - lo, 0, span)
    return np.searchsorted(
        key, (np.arange(q)[:, None] * span + first[None, :]) * np.int64(m))


def _a_scan_batch_task(ctx, task):
    """Executor task: one 1D rank's (read, k-mer) scan as pure column ops.

    The task is the rank's global read span plus its seed stream, ``(lo,
    hi, stream)``: CountKmer's stream for the span when it kept one
    (:meth:`~repro.seqs.kmer_counter.KmerTable.take_stream`), else
    ``None`` and the worker extracts it here from the ReadSet in the
    context (:meth:`~repro.seqs.fasta.ReadSet.soa_block`).  The stream
    is only read, so a retried or respawned task sees the same input.
    Lookup runs over every key; everything after it works on the hits
    only.  For full-k, each read's hits are counted by cutting the hit
    indices at the reads' last windows, and the read index is an
    ``np.repeat`` over those counts.
    The entries are ordered by one index-tagged sort of their (block
    column, read, column) keys, which yields the order and the sorted keys
    together (:func:`~repro.dsparse.spgemm.stable_key_sort`).  Returns
    ``(entries | None, tally)``: entries ``(row, col, vals, cuts)`` in
    that order — the slice of each 2D destination block row-major and
    contiguous, where :func:`_block_cuts` says — with the first-occurrence
    position/flip per (read, k-mer); ``tally`` is the dictionary lookup's
    exact work (:meth:`~repro.seqs.kmer_counter.KmerTable.lookup`).
    """
    table, scheme, reads, bounds = ctx
    lo, hi, stream = task
    if stream is None:
        stream = _extract_batch_task((scheme, reads), (lo, hi))
    keys, flip, ridx, pos = stream
    tally: dict[str, int] = {}
    col = table.lookup(keys, tally)
    hit = np.flatnonzero(col >= 0)
    if hit.shape[0] == 0:
        return None, tally
    col = col[hit]
    if ridx is None:
        n_win = np.maximum(reads.lengths[lo:hi] - (scheme.k - 1), 0)
        last = np.cumsum(n_win)
        hits = np.diff(np.searchsorted(hit, last), prepend=0)
        ridx = np.repeat(np.arange(hi - lo, dtype=np.int64), hits)
        pos = hit - np.repeat(last - n_win, hits)
    else:
        ridx, pos = ridx[hit], pos[hit]
    # Keep the first occurrence per (read, k-mer): entries arrive in (read,
    # pos) order, so under a stable order of the (block column, read, col)
    # key the head of each run of equal keys is the earliest window, and
    # the runs come out grouped by destination block, row-major inside.
    m, span = len(table), hi - lo
    key, order = stable_key_sort(_block_key(ridx, col, span, m, bounds[1]),
                                 (bounds[1].shape[0] - 1) * span * m)
    head = np.ones(key.shape[0], dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    first = order[head]
    vals = np.empty((first.shape[0], 2), dtype=np.int64)
    vals[:, 0] = pos[first]
    vals[:, 1] = flip[hit[first]]
    return (ridx[first] + lo, col[first], vals,
            _block_cuts(key[head], lo, span, m, bounds)), tally


def build_a_matrix(reads: ReadSet, table: KmerTable, grid: ProcessGrid2D,
                   comm: SimComm, timer: StageTimer | None = None,
                   executor: Executor | None = None,
                   impl: str | None = None,
                   scheme: SeedScheme | None = None) -> DistMat:
    """Construct the distributed |reads|×|k-mers| matrix ``A``.

    Each 1D source rank scans its block of reads, looks its seed k-mers up
    in the reliable dictionary (a distributed-hash lookup in a real run)
    and routes the resulting ``(read, column, pos, flip)`` entries to their
    2D block owners; that routing is the ``CreateSpMat`` traffic.  The
    routing happens at the source: a rank's scan emits its entries already
    grouped by destination block, so each 2D block is its slices from the
    source ranks concatenated in rank order — canonical as gathered, with
    no global owner pass and no second copy of A — and the traffic census
    is read off the slice sizes (:func:`_charge_routing`, the record loop
    :func:`charge_a_routing` replays for the service).  The per-rank scans
    are independent and run on ``executor``; the lookup's exact work
    (``windows``, ``probes``, ``leftover``) comes back with each scan and
    is summed into ``timer``'s work counters.

    Each rank's scan runs as column ops over its whole seed stream —
    lookup, hits-only read/position columns, dedup
    (:func:`_a_scan_batch_task`).  It extracts nothing when ``table``
    carries the seed stream CountKmer extracted from this ``reads`` object
    under the same ``scheme`` and rank spans (an unbudgeted count keeps
    it): each window is then packed once per run.  The stream is taken off
    the table either way, and dropped as soon as the scan superstep has
    returned; without a matching one each rank re-extracts.  ``scheme``
    picks which windows seed A (``None`` = full-k, the paper's every-window
    behavior); sparse schemes shrink nnz(A) by their seed density while
    the entry layout (first occurrence per (read, k-mer), position/flip
    payload) is unchanged.  ``impl`` names the k-mer engine
    (:data:`repro.options.KMER_IMPL`); it is validated and selects
    nothing, since ``"batch"`` is the only one.
    """
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    KMER_IMPL.resolve(impl)
    scheme = scheme if scheme is not None else FullKScheme(table.k)
    stage = "CreateSpMat"
    P = comm.nprocs
    n = len(reads)
    m = len(table)
    bounds = (grid.row_bounds(n), grid.col_bounds(m))
    read_bounds = block_bounds(n, P)

    spans = [(int(read_bounds[p]), int(read_bounds[p + 1])) for p in range(P)]
    streams = table.take_stream(reads, scheme, spans) or [None] * P
    pre = np.concatenate(([0], np.cumsum(reads.lengths)))
    tasks = [(lo, hi, s) for (lo, hi), s in zip(spans, streams)]
    with timer.superstep(stage) as step:
        parts, secs = executor.run_timed(
            _a_scan_batch_task, tasks, context=(table, scheme, reads, bounds),
            weights=[int(pre[hi] - pre[lo]) for lo, hi in spans])
        step.charge_many(range(P), secs)
    del tasks
    del streams
    for _, tally in parts:
        for name, count in tally.items():
            timer.count_work(stage, name, count)
    entries = [entries for entries, _ in parts]
    del parts
    blocks, moved = _gather_blocks(entries, spans, grid, bounds)
    _charge_routing(moved, comm, stage)
    timer.record_peak_bytes(stage, coo_nbytes(int(moved.sum()), A_NFIELDS))
    return DistMat((n, m), grid, blocks, A_NFIELDS)


def _gather_blocks(parts: list, spans: list[tuple[int, int]],
                   grid: ProcessGrid2D, bounds: tuple[np.ndarray, np.ndarray]
                   ) -> tuple[list[list[CooMat]], np.ndarray]:
    """A's 2D blocks from the source ranks' block-grouped scan outputs.

    Block ``(i, j)`` is every rank's ``(i, j)`` slice in rank order: ranks
    hold ascending read spans (``spans``) and each slice is row-major, so
    the block is canonical as gathered.  ``parts`` is consumed: a rank's
    entries are released once the block rows covering its span are built,
    so A's blocks replace its scan output instead of doubling it.  Returns
    the ``q × q`` blocks and the ``P × P`` census of entries each source
    rank sends each grid owner.
    """
    row_bounds, col_bounds = bounds
    P = len(parts)
    moved = np.zeros((P, P), dtype=np.int64)
    live = {p: entries for p, entries in enumerate(parts)
            if entries is not None}
    parts.clear()
    blocks: list[list[CooMat]] = []
    for i in range(grid.q):
        brow: list[CooMat] = []
        for j in range(grid.q):
            shape = (int(row_bounds[i + 1] - row_bounds[i]),
                     int(col_bounds[j + 1] - col_bounds[j]))
            pieces = []
            for p, (row, col, vals, cuts) in live.items():
                s, t = int(cuts[j, i]), int(cuts[j, i + 1])
                moved[p, grid.rank_of(i, j)] = t - s
                if t > s:
                    pieces.append((row[s:t], col[s:t], vals[s:t]))
            if not pieces:
                brow.append(CooMat.empty(shape, A_NFIELDS))
                continue
            # np.concatenate always copies: rebasing in place is safe.
            row, col, vals = (np.concatenate(arrs) for arrs in zip(*pieces))
            del pieces
            row -= row_bounds[i]
            col -= col_bounds[j]
            brow.append(CooMat(shape, row, col, vals, checked=True))
        blocks.append(brow)
        for p in [p for p in live if spans[p][1] <= row_bounds[i + 1]]:
            del live[p]
    return blocks, moved


def _charge_routing(moved: np.ndarray, comm: SimComm, stage: str) -> None:
    """Charge a ``P × P`` (source rank, destination rank) entry census.

    Each source rank, ascending, sends its off-rank entries, sized as A's
    blocks are (:func:`~repro.dsparse.coomat.coo_nbytes`: row, col, pos,
    flip), in one message per distinct destination;
    entries that stay home cost nothing, and a rank that sends nothing
    gets no record.
    """
    off = moved.copy()
    np.fill_diagonal(off, 0)
    n_off = off.sum(axis=1)
    n_dests = np.count_nonzero(off, axis=1)
    for p in np.flatnonzero(n_off):
        comm.tracker.record(stage, int(p), coo_nbytes(n_off[p], A_NFIELDS),
                            int(n_dests[p]))


def charge_a_routing(indptr: np.ndarray, col: np.ndarray, n_kmers: int,
                     grid: ProcessGrid2D, comm: SimComm) -> np.ndarray:
    """Charge the ``CreateSpMat`` routing of global A entries to the grid.

    A is given in CSR: row ``r``'s entries are ``col[indptr[r]:indptr[r +
    1]]``, ascending.  Every entry moves from its 1D source rank (the
    balanced block owner of its read) to the 2D grid owner of its
    ``(row, col)`` block, charged by :func:`_charge_routing` exactly as
    :func:`build_a_matrix` charges its scan's slices.  The incremental
    service uses this to replay the stage's traffic from the merged entry
    arrays without re-running the scan.

    No entry's owner is located: the packed row-major keys ``row · m +
    col`` are sorted, so ``n · (q + 1)`` binary searches for each row's
    column-block bounds count every row's entries per column block, and
    a row's source rank and block row are those of all its entries.

    Returns the ``q × q`` array of A's per-block entry counts — what the
    grid owners receive, and all SUMMA's traffic depends on
    (:func:`~repro.dsparse.summa.summa_comm_replay`).
    """
    P, q = comm.nprocs, grid.q
    n = indptr.shape[0] - 1
    first = np.arange(n, dtype=np.int64) * np.int64(n_kmers)
    pack = np.repeat(first, np.diff(indptr)) + col
    cuts = np.searchsorted(pack, first[:, None] + grid.col_bounds(n_kmers))
    per_block = np.diff(cuts, axis=1)
    # Pair id ``src * P + dest`` of each (row, column block).
    src = np.repeat(np.arange(P, dtype=np.int64) * P,
                    np.diff(block_bounds(n, P)))
    dest = np.repeat(np.arange(q, dtype=np.int64) * q,
                     np.diff(grid.row_bounds(n)))
    pair = (src + dest)[:, None] + np.arange(q, dtype=np.int64)
    moved = np.zeros(P * P, np.int64)
    np.add.at(moved, pair.ravel(), per_block.ravel())
    moved = moved.reshape(P, P)
    _charge_routing(moved, comm, "CreateSpMat")
    return moved.sum(axis=0).reshape(q, q)


def _global_rows(M: DistMat) -> np.ndarray:
    """The global row of every entry of ``M``, block by block."""
    return np.concatenate([b.row + M.row_bounds[i]
                           for i, brow in enumerate(M.blocks) for b in brow])


def _per_strip(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """How many of ``rows`` fall in each range ``[starts[t], starts[t+1])``."""
    return np.bincount(np.searchsorted(starts, rows, side="right") - 1,
                       minlength=starts.shape[0] - 1)


def row_census(C: DistMat, starts: np.ndarray) -> np.ndarray:
    """Entries of ``C`` per row range: element ``t`` counts those whose
    global row lies in ``[starts[t], starts[t + 1])``."""
    return _per_strip(_global_rows(C), starts)


def full_product_nnz(A: DistMat, starts: np.ndarray, upper_nnz: np.ndarray,
                     census: np.ndarray) -> np.ndarray:
    """Entries of each column strip of the *unpruned* ``A·Aᵀ``, by symmetry.

    Strip ``t`` holds columns ``[starts[t], starts[t + 1])``; the
    candidate product keeps only its strict upper triangle, whose entries
    in strip ``t`` number ``upper_nnz[t]``.  The full strip also holds the
    diagonal entry of each of its reads that has a k-mer (a non-empty row
    of ``A``) and, mirrored, every upper entry whose *row* falls in strip
    ``t`` — ``census[t]``, summed over all strips' :func:`row_census`.
    With one strip this is ``2·nnz(C) + non-empty rows``.
    """
    nonempty = np.zeros(A.shape[0], dtype=bool)
    nonempty[_global_rows(A)] = True
    diag = _per_strip(np.flatnonzero(nonempty), starts)
    return np.asarray(upper_nnz) + diag + np.asarray(census)


def candidate_overlaps(A: DistMat, comm: SimComm,
                       timer: StageTimer | None = None,
                       backend: str | None = None,
                       executor: Executor | None = None,
                       spgemm_impl: str | None = None) -> DistMat:
    """``C = A·Aᵀ`` via Sparse SUMMA, upper-triangle only.

    The product is symmetric (shared k-mer counts), so only ``i < j`` entries
    are kept for alignment; the symmetric R entries are regenerated after
    alignment.  Diagonal entries (a read with itself) are discarded.
    ``Aᵀ`` is :attr:`DistMat.T <repro.dsparse.distmat.DistMat.T>`, a view
    of A's own blocks: nothing is transposed or copied, and the kernels
    read A's rows as Aᵀ's columns.  The product is **one**
    positions-semiring SUMMA with the triangle as a coordinate predicate
    (``summa(upper=0)``): each block task gets its block's global origin; a
    block wholly on or below the diagonal is skipped without computing;
    elsewhere each block product takes the kernel
    :func:`repro.dsparse.masked.spgemm_upper` picks — ESC filtered by the
    predicate below the dot kernel's flops floor, above it one pattern
    product whose upper part routes the block and sizes the dot kernel's
    groups.  ``executor`` parallelizes SUMMA's local block work;
    ``backend`` (:data:`repro.options.BACKEND`) and ``spgemm_impl``
    (:data:`repro.options.SPGEMM_IMPL`) are validated and select nothing.

    The recorded ``SpGEMM`` peak is the full product as an unpruned SUMMA
    would hold it, ``2·nnz(C) + non-empty rows of A``
    (:func:`full_product_nnz` over one strip).
    """
    timer = timer if timer is not None else StageTimer()
    get_backend(backend)
    SPGEMM_IMPL.resolve(spgemm_impl)
    C = summa(A, A.T, PositionsSemiring(), comm, "SpGEMM", timer,
              executor=executor, upper=0)
    one_strip = np.array([0, A.shape[0]])
    full = full_product_nnz(A, one_strip, [C.nnz()], [C.nnz()])
    timer.record_peak_bytes("SpGEMM", coo_nbytes(int(full[0]), C_NFIELDS))
    return C


def exchange_reads(reads: ReadSet, grid: ProcessGrid2D, comm: SimComm
                   ) -> None:
    """Charge the 2D read exchange (paper Section V-C).

    Every grid rank needs the sequences of its block-row range and its
    block-column range — ``2n/√P`` reads, ``2nl/√P`` bytes — shipped from the
    1D owners determined by the initial parallel I/O partition.  The data is
    already shared in-process; only the accounting moves.
    """
    stage = "ExchangeRead"
    n = len(reads)
    lengths = reads.lengths
    P = comm.nprocs
    owner_bounds = block_bounds(n, P)
    prefix = np.concatenate([[0], np.cumsum(lengths)])

    def range_bytes(lo: int, hi: int) -> int:
        return int(prefix[hi] - prefix[lo])

    rb = grid.row_bounds(n)
    cb = grid.col_bounds(n)
    for rank in range(P):
        i, j = grid.coords_of(rank)
        needed: list[tuple[int, int]] = [(int(rb[i]), int(rb[i + 1])),
                                         (int(cb[j]), int(cb[j + 1]))]
        for lo, hi in needed:
            # Source ranks are the 1D owners intersecting [lo, hi).
            p0 = int(np.searchsorted(owner_bounds, lo, side="right")) - 1
            p1 = int(np.searchsorted(owner_bounds, hi, side="left"))
            for p in range(p0, p1):
                s_lo = max(lo, int(owner_bounds[p]))
                s_hi = min(hi, int(owner_bounds[p + 1]))
                if s_hi <= s_lo or p == rank:
                    continue
                comm.tracker.record(stage, p, range_bytes(s_lo, s_hi), 1)


def _dedup_second_seeds(cvals: np.ndarray, b_len: np.ndarray, k: int,
                        mode: str) -> np.ndarray:
    """Drop redundant second seeds so each pair extends the minimum needed.

    A second seed is provably redundant — its extension would give the
    first's score and coordinates, and the strictly-greater score test
    (:func:`_align_pairs_batch`) keeps the first — when it **equals** the
    first (same ``pa/pb/strand``), or, in chain mode, when it shares the first
    seed's strand and oriented diagonal (the chain estimate depends on the
    seed only through that diagonal).  X-drop extensions from *different*
    positions on one diagonal can genuinely differ, so the diagonal rule is
    chain-only.  Returns ``cvals`` with redundant second seeds cleared to
    ``-1`` (a copy when anything changes); R is unchanged by construction.
    """
    if cvals.shape[0] == 0:
        return cvals
    has2 = cvals[:, C_PA2] >= 0
    redundant = has2 & (cvals[:, C_PA2] == cvals[:, C_PA1]) & \
        (cvals[:, C_PB2] == cvals[:, C_PB1]) & \
        (cvals[:, C_STRAND2] == cvals[:, C_STRAND1])
    if mode == "chain":
        same_strand = has2 & (cvals[:, C_STRAND2] == cvals[:, C_STRAND1])
        sb1 = np.where(cvals[:, C_STRAND1] != 0,
                       b_len - k - cvals[:, C_PB1], cvals[:, C_PB1])
        sb2 = np.where(cvals[:, C_STRAND2] != 0,
                       b_len - k - cvals[:, C_PB2], cvals[:, C_PB2])
        redundant |= same_strand & \
            (cvals[:, C_PA1] - sb1 == cvals[:, C_PA2] - sb2)
    if not redundant.any():
        return cvals
    cvals = cvals.copy()
    cvals[redundant, C_PA2] = -1
    cvals[redundant, C_PB2] = -1
    cvals[redundant, C_STRAND2] = -1
    return cvals


#: Ceiling on candidate pairs per batch-kernel call (the ``max_items`` cap
#: handed to the nnz-weighted partitioner).  Chunks this size keep both of
#: the lockstep sweep's working sets in bounded memory — its flat cell
#: state (the sum of the problems' live spans) and its oriented window
#: buffer (about 4 bytes per base the chunk's reads cover) — while still
#: amortizing dispatch over thousands of pairs.
_MAX_BATCH_PAIRS = 4096


def _gather_pairs(C: DistMat, lengths: np.ndarray, col_offset: int = 0
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray]:
    """Flatten C's nonzeros into pair arrays, in canonical block order.

    Pure array operations over each block's COO storage — no per-entry
    Python loop.  Returns ``(gi, gj, cvals, ranks, weights)`` where
    ``ranks`` is each pair's owning grid rank (for compute charging) and
    ``weights`` the two-read-length cost estimate driving chunk balance.
    """
    q = C.grid.q
    gi_parts: list[np.ndarray] = []
    gj_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    rank_parts: list[np.ndarray] = []
    for i in range(q):
        for j in range(q):
            b = C.blocks[i][j]
            if b.nnz == 0:
                continue
            gi_parts.append(b.row + int(C.row_bounds[i]))
            gj_parts.append(b.col + (int(C.col_bounds[j]) + col_offset))
            val_parts.append(b.vals)
            rank_parts.append(np.full(b.nnz, C.grid.rank_of(i, j),
                                      dtype=np.int64))
    if not gi_parts:
        empty = np.empty(0, np.int64)
        return empty, empty, np.empty((0, C_NFIELDS), np.int64), empty, empty
    gi = np.concatenate(gi_parts)
    gj = np.concatenate(gj_parts)
    cvals = np.vstack(val_parts)
    ranks = np.concatenate(rank_parts)
    weights = lengths[gi] + lengths[gj]
    return gi, gj, cvals, ranks, weights


def _align_pairs_batch(codes: np.ndarray, offsets: np.ndarray,
                       lengths: np.ndarray, gi: np.ndarray, gj: np.ndarray,
                       cvals: np.ndarray, k: int, mode: str,
                       scoring: Scoring, tally: dict | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray, np.ndarray]:
    """Best-seed alignment coordinates for a batch of candidate pairs.

    Seed 1 of every pair and seed 2 of the pairs that carry one (post-dedup)
    are stacked into **one** call of the batched engine — in x-drop mode one
    lockstep sweep over both seeds and both directions, so the chunk pays
    the sweep's per-round overhead once (``tally`` collects its work
    counters).  Results are per seed, so seed 2's is then kept exactly where
    its score is strictly greater, as a seed-by-seed iteration keeping the
    best would keep it.  Returns per-pair
    ``(score, ba, ea, bb, eb, strand)`` columns.
    """
    n_pairs = gi.shape[0]
    idx2 = np.flatnonzero(cvals[:, C_PA2] >= 0)
    pair = np.concatenate([np.arange(n_pairs), idx2])
    pa = np.concatenate([cvals[:, C_PA1], cvals[idx2, C_PA2]])
    pb = np.concatenate([cvals[:, C_PB1], cvals[idx2, C_PB2]])
    strand = np.concatenate([cvals[:, C_STRAND1], cvals[idx2, C_STRAND2]])
    a, b = gi[pair], gj[pair]
    if mode == "chain":
        cols = chain_extend_batch(lengths[a], lengths[b], pa, pb, strand, k)
    else:
        cols = extend_seeds_xdrop_batch(codes, offsets[a], lengths[a],
                                        offsets[b], lengths[b], pa, pb,
                                        strand, k, scoring, tally)
    cols = (*cols, strand)
    better = cols[0][n_pairs:] > cols[0][idx2]
    for col in cols:
        col[idx2[better]] = col[n_pairs:][better]
    return tuple(col[:n_pairs] for col in cols)


def _align_chunk_task(ctx, task):
    """Executor task: align one chunk of pairs with the batched engine.

    One batch-kernel invocation covers the whole chunk: seed extension,
    score filter, and overlap classification all run as column operations,
    and the surviving dovetail and containment pairs come back as
    ready-to-concatenate R COO arrays (two directed rows per pair, in chunk
    order: ``(gi, gj)`` then ``(gj, gi)``) followed by the
    x-drop sweep's work counters (empty in chain mode).  The context
    carries the ReadSet itself: its ``soa()`` is the one code buffer the
    batch kernels address by (offset, stride, length) views, so neither
    chunks nor oriented sequences are copied out per pair.  A process
    pool ships the buffer once per chunk.
    """
    reads, k, mode, scoring, filt, fuzz = ctx
    codes, offsets, lengths = reads.soa()
    gi, gj, cvals = task
    tally: dict[str, int] = {}
    score, ba, ea, bb, eb, strand = _align_pairs_batch(
        codes, offsets, lengths, gi, gj, cvals, k, mode, scoring, tally)
    olen = ea - ba
    passes = (olen >= filt.min_overlap) & \
        (score >= np.maximum(np.int64(filt.min_score),
                             (filt.ratio * olen).astype(np.int64)))
    dovetail, in_i, in_j, suffix_ij, suffix_ji, end_i, end_j, olen = \
        classify_overlap_batch(lengths[gi], lengths[gj], ba, ea, bb, eb,
                               strand, fuzz)
    sel = passes & (dovetail | in_i | in_j)
    dove, in_i = dovetail[sel], in_i[sel]
    n_hit = int(sel.sum())
    rows = np.empty(2 * n_hit, dtype=np.int64)
    cols = np.empty(2 * n_hit, dtype=np.int64)
    vals = np.empty((2 * n_hit, R_NFIELDS), dtype=np.int64)
    rows[0::2] = gi[sel]
    rows[1::2] = gj[sel]
    cols[0::2] = gj[sel]
    cols[1::2] = gi[sel]
    vals[0::2, R_SUFFIX] = np.where(
        dove, suffix_ij[sel], np.where(in_i, R_CONTAINED, R_CONTAINS))
    vals[0::2, R_END_I] = np.where(dove, end_i[sel], R_NO_END)
    vals[0::2, R_END_J] = np.where(dove, end_j[sel], R_NO_END)
    vals[1::2, R_SUFFIX] = np.where(
        dove, suffix_ji[sel], np.where(in_i, R_CONTAINS, R_CONTAINED))
    vals[1::2, R_END_I] = vals[0::2, R_END_J]
    vals[1::2, R_END_J] = vals[0::2, R_END_I]
    vals[:, R_OLEN] = np.repeat(olen[sel], 2)
    return rows, cols, vals, tally


def align_candidates(C: DistMat, reads: ReadSet, k: int, comm: SimComm,
                     timer: StageTimer | None = None, *,
                     mode: str = "xdrop",
                     scoring: Scoring | None = None,
                     filt: AlignmentFilter | None = None,
                     fuzz: int = 100,
                     executor: Executor | None = None,
                     impl: str | None = None,
                     col_offset: int = 0) -> DistMat:
    """Pairwise-align all C nonzeros and build the overlap matrix ``R``.

    Alignment is the element-wise APPLY on C; score pruning is the PRUNE
    (Algorithm 1 lines 7–8).  Dovetail and containment survivors contribute
    both directed entries of ``R`` (containments under the markers of
    :mod:`repro.core.semirings`); internal overlaps are discarded here.
    The paper discards contained overlaps at the transitive-reduction
    boundary (Section IV-D); :func:`~repro.core.transitive_reduction.
    transitive_reduction` goes one step further, as Myers does, and drops
    the contained *reads* on entry.

    Candidate pairs are packed into structure-of-arrays buffers and
    aligned in **nnz-weighted chunks** per executor task — one lockstep
    batched x-drop sweep per chunk (:func:`_align_chunk_task`) instead of
    one Python dispatch per pair; chunk compute time is charged to the
    grid ranks owning each chunk's pairs in proportion to their weight
    share.  Survivors are appended in C's canonical block/entry order, so
    R is byte-identical for every executor, worker count and chunking.
    ``impl`` names the alignment engine (:data:`repro.options.ALIGN_IMPL`);
    it is validated and selects nothing, since ``"batch"`` is the only
    one.  ``C`` may be a column strip whose first column is read
    ``col_offset``; R is always ``n × n``.
    """
    timer = timer if timer is not None else StageTimer()
    scoring = scoring if scoring is not None else Scoring()
    filt = filt if filt is not None else AlignmentFilter()
    executor = executor if executor is not None else SERIAL
    ALIGN_IMPL.resolve(impl)
    stage = "Alignment"
    n = C.shape[0]
    lengths = reads.lengths

    gi, gj, cvals, ranks, weights = _gather_pairs(C, lengths, col_offset)
    cvals = _dedup_second_seeds(cvals, lengths[gj], k, mode)
    if gi.shape[0] == 0:
        with timer.superstep(stage):
            pass
        timer.record_peak_bytes(stage, coo_nbytes(0, R_NFIELDS))
        return DistMat.empty((n, n), C.grid, R_NFIELDS)
    spans = weighted_chunks(weights, executor.workers * 2,
                            max_items=_MAX_BATCH_PAIRS)
    tasks = [(gi[lo:hi], gj[lo:hi], cvals[lo:hi]) for lo, hi in spans]
    ctx = (reads, k, mode, scoring, filt, fuzz)
    with timer.superstep(stage) as step:
        results, secs = executor.run_timed(
            _align_chunk_task, tasks, context=ctx,
            weights=[float(weights[lo:hi].sum()) for lo, hi in spans])
        # Charge each chunk's measured compute to the grid ranks owning its
        # pairs, split by weight share (per-pair charging, aggregated per
        # rank).
        for (lo, hi), sec in zip(spans, secs):
            w = weights[lo:hi].astype(np.float64)
            total = float(w.sum())
            if total <= 0.0:
                w = np.ones(hi - lo)
                total = float(hi - lo)
            uniq, inv = np.unique(ranks[lo:hi], return_inverse=True)
            for rank, share in zip(uniq,
                                   np.bincount(inv, weights=w) / total):
                step.charge(int(rank), sec * float(share))
    for *_, tally in results:
        for name, count in tally.items():
            timer.count_kernel(stage, name, count)

    row = np.concatenate([r[0] for r in results])
    timer.record_peak_bytes(stage, coo_nbytes(row.shape[0], R_NFIELDS))
    return DistMat.from_coo((n, n), C.grid, row,
                            np.concatenate([r[1] for r in results]),
                            np.vstack([r[2] for r in results]))
