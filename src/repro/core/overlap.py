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

from dataclasses import dataclass, field

import numpy as np

from ..align.batch import chain_extend_batch, extend_seeds_xdrop_batch
from ..align.overlapper import (OverlapClass, classify_overlap,
                                classify_overlap_batch)
from ..align.xdrop import AlignmentResult, Scoring, chain_extend, \
    seed_extend_align
from ..dsparse.backend import Backend, get_backend
from ..dsparse.coomat import CooMat
from ..dsparse.distmat import DistMat
from ..dsparse.spgemm import stable_key_order
from ..dsparse.summa import summa
from ..exec import Executor, SERIAL
from ..exec.partition import weighted_chunks
from ..mpisim.comm import SimComm
from ..mpisim.grid import ProcessGrid2D, block_bounds
from ..mpisim.tracker import StageTimer
from ..options import ALIGN_IMPL, KMER_IMPL, SPGEMM_IMPL
from ..seqs.fasta import ReadSet
from ..seqs.kmer_counter import KmerTable
from ..seqs.seeding import FullKScheme, SeedScheme
from .memory import coo_nbytes
from .semirings import (A_NFIELDS, C_COUNT, C_NFIELDS, C_PA1, C_PA2,
                        C_PB1, C_PB2, C_STRAND1, C_STRAND2,
                        PositionsSemiring, R_CONTAINED, R_CONTAINS, R_END_I,
                        R_END_J, R_NFIELDS, R_NO_END, R_OLEN, R_SUFFIX)

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
    inside each group — the order :func:`_block_cuts` slices.
    """
    key = np.searchsorted(col_bounds, col, side="right")
    key -= 1
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


def _a_scan_task(ctx, span):
    """Executor task: one 1D rank's (read, seed k-mer) entry scan.

    Scans read by read (the reference oracle of the batch task below) and
    returns the same ``(entries | None, tally)``, entries grouped by
    destination block; ``tally`` is the dictionary lookup's exact work
    (:meth:`~repro.seqs.kmer_counter.KmerTable.lookup`).
    """
    reads, table, scheme, bounds = ctx
    lo, hi = span
    rr, cc, vv = [], [], []
    tally: dict[str, int] = {}
    for gi in range(lo, hi):
        keys, seed_pos, seed_flip = scheme.seeds_of_read(reads[gi])
        if keys.shape[0] == 0:
            continue
        col = table.lookup(keys, tally)
        ok = col >= 0
        if not ok.any():
            continue
        pos = seed_pos[ok]
        col = col[ok]
        flip = seed_flip[ok].astype(np.int64)
        # Keep the first occurrence per (read, k-mer).
        _, first = np.unique(col, return_index=True)
        rr.append(np.full(first.shape[0], gi, dtype=np.int64))
        cc.append(col[first])
        vv.append(np.stack([pos[first], flip[first]], axis=1))
    if not rr:
        return None, tally
    row, col, vals = np.concatenate(rr), np.concatenate(cc), np.vstack(vv)
    key = _block_key(row - lo, col, hi - lo, len(table), bounds[1])
    order = np.argsort(key, kind="stable")
    return (row[order], col[order], vals[order],
            _block_cuts(key[order], lo, hi - lo, len(table), bounds)), tally


def _a_scan_batch_task(ctx, task):
    """Executor task: one 1D rank's (read, k-mer) scan as pure column ops.

    The task is the rank's global read span ``(lo, hi)``; the worker takes
    its SoA block from the ReadSet in the context
    (:meth:`~repro.seqs.fasta.ReadSet.soa_block`), so a store-backed set
    ships only its path and each worker pages in its own block.
    Extraction, dictionary lookup, and first-occurrence dedup all run over
    the whole block at once.  Returns ``(entries | None, tally)``: entries
    ``(row, col, vals, cuts)`` in (block column, read, column) order —
    the slice of each 2D destination block row-major and contiguous, where
    :func:`_block_cuts` says — with the first-occurrence position/flip per
    (read, k-mer); the loop task's output, byte for byte.
    """
    table, scheme, reads, bounds = ctx
    lo, hi = task
    codes, offsets, lengths = reads.soa_block(lo, hi)
    canon, ridx, pos, flip = scheme.seeds_of_block(codes, offsets, lengths)
    tally: dict[str, int] = {}
    col = table.lookup(canon, tally)
    ok = col >= 0
    if not ok.any():
        return None, tally
    ridx, col, pos = ridx[ok], col[ok], pos[ok]
    flip = flip[ok].astype(np.int64)
    # Keep the first occurrence per (read, k-mer): entries arrive in (read,
    # pos) order, so under a stable order of the (block column, read, col)
    # key the head of each run of equal keys is the earliest window, and
    # the runs come out grouped by destination block, row-major inside.
    m, span = len(table), hi - lo
    key = _block_key(ridx, col, span, m, bounds[1])
    order = stable_key_order(key, (bounds[1].shape[0] - 1) * span * m)
    key = key[order]
    head = np.ones(key.shape[0], dtype=bool)
    head[1:] = key[1:] != key[:-1]
    first = order[head]
    return (ridx[first] + lo, col[first],
            np.stack([pos[first], flip[first]], axis=1),
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

    ``impl`` selects the scan engine (:data:`repro.options.KMER_IMPL`):
    ``"batch"`` runs each rank's scan as one vectorized
    :meth:`~repro.seqs.seeding.SeedScheme.seeds_of_block` pass with
    column-op lookup and dedup; ``"loop"`` scans read by read (the
    reference oracle).  A is byte-identical either way.  ``scheme`` picks
    which windows seed A (``None`` = full-k, the paper's every-window
    behavior); sparse schemes shrink nnz(A) by their seed density while
    the entry layout (first occurrence per (read, k-mer), position/flip
    payload) is unchanged.
    """
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    impl = KMER_IMPL.resolve(impl)
    scheme = scheme if scheme is not None else FullKScheme(table.k)
    stage = "CreateSpMat"
    P = comm.nprocs
    n = len(reads)
    m = len(table)
    bounds = (grid.row_bounds(n), grid.col_bounds(m))
    read_bounds = block_bounds(n, P)

    spans = [(int(read_bounds[p]), int(read_bounds[p + 1])) for p in range(P)]
    with timer.superstep(stage) as step:
        if impl == "batch":
            pre = np.concatenate(([0], np.cumsum(reads.lengths)))
            parts, secs = executor.run_timed(
                _a_scan_batch_task, spans,
                context=(table, scheme, reads, bounds),
                weights=[int(pre[hi] - pre[lo]) for lo, hi in spans])
        else:
            parts, secs = executor.run_timed(
                _a_scan_task, spans, context=(reads, table, scheme, bounds),
                weights=[hi - lo for lo, hi in spans])
        step.charge_many(range(P), secs)
    for _, tally in parts:
        for name, count in tally.items():
            timer.count_work(stage, name, count)
    blocks, moved = _gather_blocks([entries for entries, _ in parts], grid,
                                   bounds)
    del parts
    _charge_routing(moved, comm, stage)
    timer.record_peak_bytes(stage, coo_nbytes(int(moved.sum()), A_NFIELDS))
    return DistMat((n, m), grid, blocks, A_NFIELDS)


def _gather_blocks(parts: list, grid: ProcessGrid2D,
                   bounds: tuple[np.ndarray, np.ndarray]
                   ) -> tuple[list[list[CooMat]], np.ndarray]:
    """A's 2D blocks from the source ranks' block-grouped scan outputs.

    Block ``(i, j)`` is every rank's ``(i, j)`` slice in rank order: ranks
    hold ascending read spans and each slice is row-major, so the block is
    canonical as gathered.  Returns the ``q × q`` blocks and the ``P × P``
    census of entries each source rank sends each grid owner.
    """
    row_bounds, col_bounds = bounds
    P = len(parts)
    moved = np.zeros((P, P), dtype=np.int64)
    live = [(p, entries) for p, entries in enumerate(parts)
            if entries is not None]
    blocks: list[list[CooMat]] = []
    for i in range(grid.q):
        brow: list[CooMat] = []
        for j in range(grid.q):
            shape = (int(row_bounds[i + 1] - row_bounds[i]),
                     int(col_bounds[j + 1] - col_bounds[j]))
            pieces = []
            for p, (row, col, vals, cuts) in live:
                s, t = int(cuts[j, i]), int(cuts[j, i + 1])
                moved[p, grid.rank_of(i, j)] = t - s
                if t > s:
                    pieces.append((row[s:t], col[s:t], vals[s:t]))
            if not pieces:
                brow.append(CooMat.empty(shape, A_NFIELDS))
                continue
            row, col, vals = (np.concatenate(arrs) for arrs in zip(*pieces))
            brow.append(CooMat(shape, row - row_bounds[i],
                               col - col_bounds[j], vals, checked=True))
        blocks.append(brow)
    return blocks, moved


#: ``CreateSpMat`` bytes per routed entry: row, col, pos, flip.
_A_ENTRY_BYTES = 8 * 4


def _charge_routing(moved: np.ndarray, comm: SimComm, stage: str) -> None:
    """Charge a ``P × P`` (source rank, destination rank) entry census.

    Each source rank, ascending, sends its off-rank entries at
    :data:`_A_ENTRY_BYTES` each in one message per distinct destination;
    entries that stay home cost nothing, and a rank that sends nothing
    gets no record.
    """
    off = moved.copy()
    np.fill_diagonal(off, 0)
    n_off = off.sum(axis=1)
    n_dests = np.count_nonzero(off, axis=1)
    for p in np.flatnonzero(n_off):
        comm.tracker.record(stage, int(p), int(n_off[p]) * _A_ENTRY_BYTES,
                            int(n_dests[p]))


def charge_a_routing(row: np.ndarray, col: np.ndarray, n_reads: int,
                     n_kmers: int, grid: ProcessGrid2D, comm: SimComm,
                     stage: str = "CreateSpMat") -> np.ndarray:
    """Charge the ``CreateSpMat`` routing of global A entries to the grid.

    Every entry moves from its 1D source rank (the balanced block owner of
    its read) to the 2D grid owner of its ``(row, col)`` block, charged by
    :func:`_charge_routing` exactly as :func:`build_a_matrix` charges its
    scan's slices.  The incremental service uses this to replay the
    stage's traffic from the merged entry arrays without re-running the
    scan.

    Returns the ``q × q`` array of A's per-block entry counts — what the
    grid owners receive, and all SUMMA's traffic depends on
    (:func:`~repro.dsparse.summa.summa_comm_replay`).
    """
    P = comm.nprocs
    # One census of (source, destination) pairs answers both questions for
    # every rank at once.  The pair id ``src * P + dest`` is built in place
    # on the 1D source ranks.
    pair = np.searchsorted(block_bounds(n_reads, P), row, side="right")
    pair -= 1
    pair *= P
    pair += grid.owners_of(row, col, n_reads, n_kmers)
    moved = np.bincount(pair, minlength=P * P).reshape(P, P)
    _charge_routing(moved, comm, stage)
    return moved.sum(axis=0).reshape(grid.q, grid.q)


def summa_positions(A: DistMat, At: DistMat, comm: SimComm,
                    timer: StageTimer, backend: Backend,
                    executor: Executor | None, spgemm_impl: str,
                    col_offset: int = 0) -> DistMat:
    """The candidate product ``C = A·Aᵀ`` under the positions semiring,
    strict upper triangle only.

    ``col_offset`` is the global index of ``At``'s first column (a blocked
    strip's ``lo``), so "upper" is always global row < global column.

    ``spgemm_impl="masked"`` runs **one** positions-semiring SUMMA with the
    triangle as a coordinate predicate (``summa(upper=col_offset)``): each
    block task gets its block's global origin; a block wholly on or below
    the diagonal is skipped without computing; elsewhere each block product
    takes the kernel :func:`repro.dsparse.masked.spgemm_upper` picks — ESC
    filtered by the predicate below the dot kernel's flops floor, above it
    one pattern product whose upper part routes the block and sizes the
    dot kernel's groups.  ``"esc"`` runs the monolithic 7-field product and
    prunes to the triangle afterwards.

    Output and entry order are byte-identical between the two engines, and
    so is the traffic: both broadcast the same full 2-field blocks.  The
    SpGEMM peak (the unpruned product's footprint) is the caller's to
    record — see :func:`full_product_nnz`.
    """
    if spgemm_impl == "masked":
        return summa(A, At, PositionsSemiring(), comm, "SpGEMM", timer,
                     backend=backend, executor=executor, upper=col_offset)
    C = summa(A, At, PositionsSemiring(), comm, "SpGEMM", timer,
              backend=backend, executor=executor)
    blocks = [[backend.select(b, b.row + C.row_bounds[i] <
                              b.col + C.col_bounds[j] + col_offset)
               for j, b in enumerate(brow)]
              for i, brow in enumerate(C.blocks)]
    return DistMat(C.shape, C.grid, blocks, C.nfields)


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
                       backend: Backend | str | None = None,
                       executor: Executor | None = None,
                       spgemm_impl: str | None = None) -> DistMat:
    """``C = A·Aᵀ`` via Sparse SUMMA, upper-triangle only.

    The product is symmetric (shared k-mer counts), so only ``i < j`` entries
    are kept for alignment; the symmetric R entries are regenerated after
    alignment.  Diagonal entries (a read with itself) are discarded.
    ``Aᵀ`` is :attr:`DistMat.T <repro.dsparse.distmat.DistMat.T>`, a view
    of A's own blocks: nothing is transposed or copied, and the kernels
    read A's rows as Aᵀ's columns.  ``backend`` selects the local kernels
    (SpGEMM, filter);
    ``executor`` parallelizes SUMMA's local block work; ``spgemm_impl``
    (:data:`repro.options.SPGEMM_IMPL`) picks the product
    engine — ``"masked"`` prunes to the triangle inside the one SUMMA
    (:func:`summa_positions`), ``"esc"`` is the monolithic oracle.

    The recorded ``SpGEMM`` peak is the full product as an unpruned SUMMA
    would hold it, ``2·nnz(C) + non-empty rows of A``
    (:func:`full_product_nnz` over one strip).
    """
    timer = timer if timer is not None else StageTimer()
    backend = get_backend(backend)
    spgemm_impl = SPGEMM_IMPL.resolve(spgemm_impl)
    C = summa_positions(A, A.T, comm, timer, backend, executor, spgemm_impl)
    one_strip = np.array([0, A.shape[0]])
    full = full_product_nnz(A, one_strip, [C.nnz()], [C.nnz()])
    timer.record_peak_bytes("SpGEMM", coo_nbytes(int(full[0]), C_NFIELDS))
    return C


def exchange_reads(reads: ReadSet, grid: ProcessGrid2D, comm: SimComm,
                   bytes_per_base: int = 1) -> None:
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
        return int(prefix[hi] - prefix[lo]) * bytes_per_base

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


def _align_one(reads: ReadSet, gi: int, gj: int, cval: np.ndarray,
               k: int, mode: str, scoring: Scoring) -> AlignmentResult | None:
    """Align one candidate pair using its stored seeds (best of up to two)."""
    a, b = reads[gi], reads[gj]
    best: AlignmentResult | None = None
    seeds = [(int(cval[C_PA1]), int(cval[C_PB1]), int(cval[C_STRAND1]))]
    if cval[C_PA2] >= 0:
        seeds.append((int(cval[C_PA2]), int(cval[C_PB2]), int(cval[C_STRAND2])))
    for pa, pb, strand in seeds:
        if mode == "chain":
            res = chain_extend(a.shape[0], b.shape[0], pa, pb, k, strand)
        else:
            res = seed_extend_align(a, b, pa, pb, k, strand, scoring)
        if best is None or res.score > best.score:
            best = res
    return best


def _dedup_second_seeds(cvals: np.ndarray, b_len: np.ndarray, k: int,
                        mode: str) -> np.ndarray:
    """Drop redundant second seeds so each pair extends the minimum needed.

    A second seed is provably redundant — the per-pair loop would compute an
    identical :class:`~repro.align.xdrop.AlignmentResult` for it and discard
    it on the strictly-greater score test — when it **equals** the first
    (same ``pa/pb/strand``), or, in chain mode, when it shares the first
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


def _align_task(ctx, task):
    """Executor task: align one candidate pair, filter, classify.

    Returns the two directed R payload rows ``(gi, gj)`` and ``(gj, gi)`` of
    a surviving dovetail or containment overlap, or ``None`` for pairs
    pruned by score or classified internal.
    """
    reads, k, mode, scoring, filt, fuzz = ctx
    gi, gj, cval = task
    res = _align_one(reads, gi, gj, cval, k, mode, scoring)
    if res is None:
        return None
    olen = res.ea - res.ba
    if not filt.passes(res.score, olen):
        return None
    oc = classify_overlap(reads[gi].shape[0], reads[gj].shape[0], res, fuzz)
    if oc.kind == "dovetail":
        return ((oc.suffix_ij, oc.end_i, oc.end_j, oc.overlap_len),
                (oc.suffix_ji, oc.end_j, oc.end_i, oc.overlap_len))
    if oc.kind == "internal":
        return None
    inner, outer = ((R_CONTAINED, R_CONTAINS) if oc.kind == "contained_i"
                    else (R_CONTAINS, R_CONTAINED))
    return ((inner, R_NO_END, R_NO_END, oc.overlap_len),
            (outer, R_NO_END, R_NO_END, oc.overlap_len))


#: Ceiling on candidate pairs per batch-kernel call (the ``max_items`` cap
#: handed to the nnz-weighted partitioner).  Chunks this size keep the
#: lockstep sweep's flat cell state (the sum of the problems' live spans)
#: in bounded memory while still amortizing dispatch over thousands of
#: pairs.
_MAX_BATCH_PAIRS = 4096


def _gather_pairs(C: DistMat, lengths: np.ndarray
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
            gj_parts.append(b.col + int(C.col_bounds[j]))
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
    its score is strictly greater — the same strictly-greater rule as the
    per-pair loop's seed iteration.  Returns per-pair
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
    order — :func:`_align_task`'s payloads) followed by the
    x-drop sweep's work counters (empty in chain mode).  The context
    carries the ReadSet itself (not its SoA arrays): a store-backed set
    ships as just the store path, and each worker's ``soa()`` call maps
    the shared on-disk buffer instead of receiving the bases.
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
                     impl: str | None = None) -> DistMat:
    """Pairwise-align all C nonzeros and build the overlap matrix ``R``.

    Alignment is the element-wise APPLY on C; score pruning is the PRUNE
    (Algorithm 1 lines 7–8).  Dovetail and containment survivors contribute
    both directed entries of ``R`` (containments under the markers of
    :mod:`repro.core.semirings`); internal overlaps are discarded here.
    The paper discards contained overlaps at the transitive-reduction
    boundary (Section IV-D); :func:`~repro.core.transitive_reduction.
    transitive_reduction` goes one step further, as Myers does, and drops
    the contained *reads* on entry.

    ``impl`` selects the alignment engine
    (:data:`repro.options.ALIGN_IMPL`):

    * ``"batch"`` (the ``auto`` default) packs the candidate pairs into
      structure-of-arrays buffers and aligns **nnz-weighted chunks of
      pairs** per executor task — one lockstep batched x-drop sweep per
      chunk instead of one Python dispatch per pair; chunk compute time is
      charged to the grid ranks owning each chunk's pairs in proportion to
      their weight share.
    * ``"loop"`` runs one executor task per pair (weighted by the two read
      lengths — the x-drop cost driver), charged to the owning rank
      exactly; it is the reference oracle the batch engine is pinned
      against.

    Either way survivors are appended in C's canonical block/entry order,
    so R is byte-identical for every engine, executor, and worker count.
    """
    timer = timer if timer is not None else StageTimer()
    scoring = scoring if scoring is not None else Scoring()
    filt = filt if filt is not None else AlignmentFilter()
    executor = executor if executor is not None else SERIAL
    impl = ALIGN_IMPL.resolve(impl)
    stage = "Alignment"
    n = C.shape[0]
    lengths = reads.lengths

    gi, gj, cvals, ranks, weights = _gather_pairs(C, lengths)
    cvals = _dedup_second_seeds(cvals, lengths[gj], k, mode)

    if impl == "batch":
        row, col, vals = _run_batch_impl(reads, gi, gj, cvals, ranks,
                                         weights, k, mode, scoring, filt,
                                         fuzz, executor, timer, stage)
    else:
        row, col, vals = _run_loop_impl(reads, gi, gj, cvals, ranks,
                                        weights, k, mode, scoring, filt,
                                        fuzz, executor, timer, stage)
    timer.record_peak_bytes(stage, coo_nbytes(row.shape[0], R_NFIELDS))
    return DistMat.from_coo((n, n), C.grid, row, col, vals)


def _run_loop_impl(reads, gi, gj, cvals, ranks, weights, k, mode, scoring,
                   filt, fuzz, executor, timer, stage):
    """Per-pair reference engine: one executor task per candidate pair."""
    tasks = list(zip(gi.tolist(), gj.tolist(), cvals))
    ctx = (reads, k, mode, scoring, filt, fuzz)
    with timer.superstep(stage) as step:
        results, secs = executor.run_timed(_align_task, tasks, context=ctx,
                                           weights=weights.tolist())
        step.charge_many(ranks.tolist(), secs)

    rows: list[int] = []
    cols: list[int] = []
    val_rows: list[tuple] = []
    for (pair_i, pair_j, _), hit in zip(tasks, results):
        if hit is None:
            continue
        rows.extend((pair_i, pair_j))
        cols.extend((pair_j, pair_i))
        val_rows.extend(hit)
    if rows:
        return (np.array(rows, dtype=np.int64),
                np.array(cols, dtype=np.int64),
                np.array(val_rows, dtype=np.int64))
    return (np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty((0, R_NFIELDS), np.int64))


def _run_batch_impl(reads, gi, gj, cvals, ranks, weights, k, mode, scoring,
                    filt, fuzz, executor, timer, stage):
    """Batched engine: nnz-weighted chunks of pairs per executor task."""
    n_pairs = gi.shape[0]
    if n_pairs == 0:
        with timer.superstep(stage):
            pass
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty((0, R_NFIELDS), np.int64))
    # All reads in one shared SoA buffer (cached on the ReadSet, so blocked
    # mode's per-strip calls reuse it; a store-backed set maps it from
    # disk): the batch kernels address sequences by (offset, stride,
    # length) views into it, so neither the chunks nor the oriented
    # sequences are ever copied out per pair.  Warmed here once so serial
    # and thread executors never rebuild it per chunk.
    reads.soa()

    spans = weighted_chunks(weights, executor.workers * 2,
                            max_items=_MAX_BATCH_PAIRS)
    tasks = [(gi[lo:hi], gj[lo:hi], cvals[lo:hi]) for lo, hi in spans]
    ctx = (reads, k, mode, scoring, filt, fuzz)
    with timer.superstep(stage) as step:
        results, secs = executor.run_timed(
            _align_chunk_task, tasks, context=ctx,
            weights=[float(weights[lo:hi].sum()) for lo, hi in spans])
        # Charge each chunk's measured compute to the grid ranks owning its
        # pairs, split by weight share (the loop engine's per-pair charging,
        # aggregated per rank).
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

    return (np.concatenate([r[0] for r in results]),
            np.concatenate([r[1] for r in results]),
            np.vstack([r[2] for r in results]))
