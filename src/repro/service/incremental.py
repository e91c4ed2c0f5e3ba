"""Incremental refresh: fold a read batch into an AssemblyState.

:func:`refresh` takes version ``v`` plus a batch and produces version
``v + 1``, byte-identical to running the whole pipeline from scratch on
the concatenated reads — for *every* field the batch pipeline produces
(S, R, contigs, the sparsity counts, and the per-stage communication
records).  ``refresh_mode="recompute"`` *is* that scratch run, kept as
the oracle; ``"incremental"`` earns the speedup by never re-aligning a
pair whose candidate evidence is unchanged.

Why the incremental path is exact
---------------------------------

* **Counting.**  The state keeps the exact global k-mer histogram, which
  merges losslessly with the batch's histogram
  (:func:`~repro.seqs.kmer_counter.merge_histograms`); the reliable table
  is a pure filter of it (:func:`~repro.seqs.kmer_counter.
  table_from_histogram` — provably equal to the two-pass Bloom counter's
  output).  Multiplicities only grow, so a key's reliability changes in
  exactly two ways: it enters ``[lower, upper]`` from below (**added**)
  or leaves above ``upper`` (**removed**).

* **A.**  The state keeps the reliability-independent occurrence table —
  first-window occurrence per (read, distinct canonical k-mer), sorted by
  (read, key) — so A for the new version is a filter of the merged table
  through the new reliable set.  New read indices exceed all old ones, so
  the batch's occurrences splice in by appending.  Column ids are the
  sorted order of the reliable keys, so the filter emits A's entries in
  canonical row-major order and A's row pointer is one ``bincount``:
  nothing A-sized is ever sorted.

* **C.**  A pair's C entry is the ordered reduce over its shared reliable
  columns, and relabeling columns (sorted keys → sorted ids) preserves
  that order.  A pair's entry can therefore only change if it gains a
  shared **added** column, loses a shared **removed** column, or involves
  a **new** read — the affected set ``P₁ ∪ P₂ ∪ P₃``, computed by three
  scipy pattern products.  The delta product runs the rows of A for the
  affected row coordinates against the rows of A for the affected column
  coordinates, viewed transposed (:attr:`~repro.dsparse.distmat.DistMat.T`),
  under the affected-pair mask.  ``C(i, j)`` reduces over
  ``A(i, k) ⊗ Aᵀ(k, j)`` and reads row ``i`` of A and column ``j`` of Aᵀ
  and nothing else, and both operands keep the full product's dimensions
  and block bounds, so each surviving entry reduces over exactly the same
  ordered product list as the monolithic product (masked ≡ unmasked ∩
  mask; the two masked kernels are byte-identical, so the smaller operands
  flipping a block's route changes nothing).  The full A is never
  distributed, and nothing is transposed.

* **R.**  Alignment is per-pair and deterministic, so R is determined by
  the set of C entries: drop old rows whose unordered pair is affected,
  append the delta alignment's rows, re-canonicalize.  An old pair
  outside the affected set still shares an unchanged reliable column
  (else it lost every shared column and is in ``P₂``), so it stays in C
  with an identical entry — keeping its R rows verbatim is exact.  That
  holds for containment pairs too: a batch read that contains a resident
  one forms a new-read pair (``P₃``), and the transitive reduction derives
  which reads are contained from R on every version.

* **S / contigs.**  Transitive reduction is re-run in full on the real
  communicator — it is global (any edge can unlock a reduction anywhere)
  and cheap relative to alignment, and running it for real makes S and
  the ``TrReduction`` records identical by construction.

* **Tracker.**  The other stages' traffic is *replayed* onto a fresh
  tracker from the merged state: the two ``CountKmer`` alltoallv passes
  and the reliable-set allgather (payload sizes come from the cached
  per-read routing census, so old reads' k-mers are never re-extracted),
  ``CreateSpMat`` entry routing, ``ExchangeRead``, and SUMMA's broadcast
  schedule (a pure function of the operand block sizes —
  :func:`~repro.dsparse.summa.summa_comm_replay`; A's per-block counts
  come out of the routing census, and block ``(i, j)`` of Aᵀ holds as
  many entries as block ``(j, i)`` of A).  Replays cost array scans, not
  products.

The batch's seeds are extracted once per refresh; that one stream feeds
its histogram, its occurrence table and its routing census.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from ..core.contigs import extract_contigs
from ..core.overlap import (align_candidates, charge_a_routing,
                            exchange_reads)
from ..core.pipeline import (PipelineConfig, _require_nonempty_reads,
                             run_pipeline)
from ..core.semirings import A_NFIELDS, PositionsSemiring, R_NFIELDS
from ..core.string_graph import StringGraph
from ..core.transitive_reduction import transitive_reduction
from ..dsparse.coomat import CooMat
from ..dsparse.distmat import DistMat
from ..dsparse.masked import _ranges
from ..dsparse.membership import in_sorted
from ..dsparse.summa import summa, summa_comm_replay
from ..exec import get_executor
from ..mpisim.comm import SimComm
from ..mpisim.grid import ProcessGrid2D, block_bounds
from ..mpisim.tracker import CommTracker, StageTimer
from ..options import REFRESH_MODE
from ..resilience.faults import maybe_fault
from ..seqs.fasta import ReadSet
from ..seqs.kmer_counter import (merge_histograms, reliable_upper_bound,
                                 table_from_histogram)
from ..seqs.kmers import splitmix64
from ..seqs.seeding import FullKScheme, SeedScheme, make_scheme
from .config import ServiceConfig
from .state import AssemblyState

__all__ = ["refresh", "batch_occurrences", "service_pipeline"]


def service_pipeline(config: ServiceConfig) -> PipelineConfig:
    """The resolved pipeline config every refresh under ``config`` runs.

    Pin the in-memory read backend too: the service's versioned states
    concat their ReadSets across refreshes, and a per-refresh store
    rebuild would put an ingest-sized disk write on every delta.  The
    blocked-only options go with the blocked path.
    """
    return replace(config.pipeline, overlap_mode="monolithic",
                   read_store="inmem", n_strips=None,
                   checkpoint_dir=None).resolved()


def _resolved_upper(pcfg: PipelineConfig) -> int:
    if pcfg.kmer_upper is not None:
        return pcfg.kmer_upper
    return reliable_upper_bound(pcfg.depth_hint, pcfg.error_hint, pcfg.k)


def _scheme_of(pcfg: PipelineConfig) -> SeedScheme:
    """The seeding scheme a pipeline config resolves to."""
    return make_scheme(pcfg.seed_mode, pcfg.k, pcfg.seed_w)


def batch_occurrences(seeds: tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray], row_offset: int = 0
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """First-window occurrence table of a seed stream, sorted by (read, key).

    ``seeds`` is a :meth:`~repro.seqs.seeding.SeedScheme.seeds_of_block`
    stream ``(key, read, pos, flip)`` — read-major, windows in position
    order.  One row per (read, distinct canonical seed k-mer) survives,
    keeping the earliest window — the dedup rule of the A scan
    (:func:`~repro.core.overlap.build_a_matrix`), applied *before* any
    reliability filter.  Reliability is a property of the k-mer value, so
    filtering the deduped table through a reliable set later yields
    exactly the A entries that scan would emit, already in A's row-major
    order.  ``row_offset`` shifts read indices into the combined set's
    coordinates.  The table is scheme-agnostic: a sketched scheme just
    feeds fewer rows through the same sort/dedup.
    """
    canon, ridx, pos, flip = seeds
    if canon.size == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                np.empty(0, np.int64), np.empty(0, np.int64))
    # Stable, so a (read, key)'s windows keep their position order and the
    # first of each run is the earliest.
    order = np.lexsort((canon, ridx))
    canon, ridx = canon[order], ridx[order]
    head = np.empty(canon.shape[0], dtype=bool)
    head[0] = True
    head[1:] = (canon[1:] != canon[:-1]) | (ridx[1:] != ridx[:-1])
    return (canon[head], ridx[head].astype(np.int64) + row_offset,
            pos[order][head].astype(np.int64),
            flip[order][head].astype(np.int64))


def _a_entries(occ_key, occ_read, occ_pos, occ_flip, table
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A's global COO entries, row-major: the occurrence table filtered to
    ``table`` (column ids ascend with the keys, which ascend per read)."""
    col = table.lookup(occ_key)
    ok = np.flatnonzero(col >= 0)
    return occ_read[ok], col[ok], occ_pos[ok], occ_flip[ok]


def _row_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of ``n`` rows over row-major row indices."""
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entry indices of the given rows, in row order."""
    start = indptr[rows]
    return _ranges(start, indptr[rows + 1] - start)


def _pattern(indptr: np.ndarray, cols: np.ndarray, m: int
             ) -> sp.csr_matrix:
    """Unit-valued CSR over a row pointer and its row-major columns."""
    return sp.csr_matrix((np.ones(cols.shape[0], np.int64), cols, indptr),
                         shape=(indptr.shape[0] - 1, m))


def _pair_product(left: sp.csr_matrix, right: sp.csr_matrix, n: int,
                  col_offset: int = 0) -> np.ndarray:
    """Packed strict-upper pairs ``lo·n + hi`` with a shared column.

    ``(i, j + col_offset)`` is emitted when row ``i`` of the left pattern
    and row ``j`` of the right pattern share a column — one scipy pattern
    product, canonicalized to unordered off-diagonal pairs.  scipy
    converts ``right`` to its transpose's CSR, so the smaller pattern goes
    there.
    """
    if left.nnz == 0 or right.nnz == 0:
        return np.empty(0, np.int64)
    prod = (left @ right.T).tocoo()
    i = prod.row.astype(np.int64)
    j = prod.col.astype(np.int64) + col_offset
    off = i != j
    i, j = i[off], j[off]
    return np.unique(np.minimum(i, j) * np.int64(n) + np.maximum(i, j))


def _affected_pairs(arow, acol, indptr, state: AssemblyState, table,
                    n_old: int) -> np.ndarray:
    """``P₁ ∪ P₂ ∪ P₃``: the pairs whose C entry may differ from version v.

    ``P₁`` — pairs sharing an **added** reliable column (count grew into
    range) in the new A; ``P₂`` — pairs sharing a **removed** column
    (count grew past ``upper``) in the *old* A; ``P₃`` — pairs involving a
    new read.  Counts only grow, so added/removed are disjoint and no
    other pair's ordered shared-column list changes.  A's entries are
    row-major with row pointer ``indptr``; every pattern below is too
    (filters keep that order), so each is built without a sort.
    """
    n = indptr.shape[0] - 1
    old_table = state.table
    added_keys = table.kmers[old_table.lookup(table.kmers) < 0]
    removed_keys = old_table.kmers[table.lookup(old_table.kmers) < 0]

    parts = []
    if added_keys.shape[0]:
        added_cols = table.lookup(added_keys)
        sel = in_sorted(added_cols, acol)
        p1 = _pattern(_row_pointer(arow[sel], n),
                      np.searchsorted(added_cols, acol[sel]),
                      added_cols.shape[0])
        parts.append(_pair_product(p1, p1, n))
    if removed_keys.shape[0]:
        sel = in_sorted(removed_keys, state.occ_key)
        p2 = _pattern(_row_pointer(state.occ_read[sel], n),
                      np.searchsorted(removed_keys, state.occ_key[sel]),
                      removed_keys.shape[0])
        parts.append(_pair_product(p2, p2, n))
    first_new = int(indptr[n_old])
    if first_new < acol.shape[0]:
        new_rows = _pattern(indptr[n_old:] - first_new, acol[first_new:],
                            len(table))
        parts.append(_pair_product(_pattern(indptr, acol, len(table)),
                                   new_rows, n, col_offset=n_old))
    if not parts:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(parts))


def _route_census(seeds: tuple[np.ndarray, ...], n: int, P: int
                  ) -> np.ndarray:
    """``(n, P)`` counts of each read's seed k-mers per hash owner.

    ``seeds`` is the ``n`` reads' seed stream.  Row ``r`` is a pure
    function of read ``r``'s bases (owner = ``splitmix64(canonical seed)
    mod P``; schemes are per-read pure), so censuses concatenate across
    batches and a version's census is its predecessor's rows plus the
    batch's.
    """
    canon, ridx = seeds[0], seeds[1]
    if canon.size == 0:
        return np.zeros((n, P), np.int64)
    dst = (splitmix64(canon) % np.uint64(P)).astype(np.int64)
    return np.bincount(ridx.astype(np.int64) * np.int64(P) + dst,
                       minlength=n * P).reshape(n, P)


def _seed_tables(reads: ReadSet, scheme: SeedScheme, P: int,
                 row_offset: int = 0):
    """Histogram, occurrence table and routing census of ``reads``.

    All three come from one seed extraction: ``((keys, counts), occ,
    census)``, with the histogram sorted by key
    (:func:`~repro.seqs.kmer_counter.kmer_histogram`'s form) and ``occ``
    as :func:`batch_occurrences` returns it.
    """
    seeds = scheme.seeds_of_block(*reads.soa())
    keys, counts = np.unique(seeds[0], return_counts=True)
    return ((keys, counts.astype(np.int64)),
            batch_occurrences(seeds, row_offset),
            _route_census(seeds, len(reads), P))


def _replay_count_kmers(reads: ReadSet, route_counts: np.ndarray, table,
                        comm: SimComm, batches: int,
                        scheme: SeedScheme | None = None) -> None:
    """Re-issue ``CountKmer``'s exact traffic from the routing census.

    Both counting passes ship the same per-rank seed streams (uint64
    keys) in the same ``batches`` round slices to the same hash owners,
    and the collective charges depend only on the per-destination payload
    *sizes* — which the census yields by prefix sums over each rank's
    read block.  A round boundary that falls mid-read needs that one
    read's within-read destination sequence, so only boundary reads (at
    most ``batches - 1`` per rank) ever get their seeds re-extracted —
    through the same ``scheme`` the census was built with, so the prefix
    slices land on the same keys.  The final reliable-dictionary
    allgather ships each owner's reliable keys (owner =
    ``splitmix64(key) mod P``).
    """
    scheme = scheme if scheme is not None else FullKScheme(table.k)
    P = comm.nprocs
    bounds = block_bounds(len(reads), P)
    per_rank: list[list[np.ndarray]] = []
    for p in range(P):
        blo, bhi = int(bounds[p]), int(bounds[p + 1])
        rc = route_counts[blo:bhi]
        cum = np.zeros(rc.shape[0] + 1, np.int64)
        np.cumsum(rc.sum(axis=1), out=cum[1:])
        cumdst = np.zeros((rc.shape[0] + 1, P), np.int64)
        np.cumsum(rc, axis=0, out=cumdst[1:])
        nkm = int(cum[-1])

        prefix_cache: dict[int, np.ndarray] = {}

        def counts_at(x: int) -> np.ndarray:
            """Destination counts of the rank stream's first ``x`` keys."""
            got = prefix_cache.get(x)
            if got is not None:
                return got
            i = int(np.searchsorted(cum, x, side="right")) - 1
            within = x - int(cum[i])
            if within == 0:
                res = cumdst[i]
            else:  # boundary splits read blo + i: count its seed prefix
                canon = scheme.seeds_of_block(
                    *reads.soa_block(blo + i, blo + i + 1))[0]
                dst = (splitmix64(canon[:within]) %
                       np.uint64(P)).astype(np.int64)
                res = cumdst[i] + np.bincount(dst, minlength=P)
            prefix_cache[x] = res
            return res

        rounds = []
        for b in range(batches):
            lo, hi = (nkm * b) // batches, (nkm * (b + 1)) // batches
            rounds.append(counts_at(hi) - counts_at(lo))
        per_rank.append(rounds)
    # Payload contents never reach the charge accounting — only nbytes do —
    # so uninitialized buffers of the right length and dtype are exact.
    for _pass in range(2):
        for b in range(batches):
            send = [[np.empty(int(per_rank[p][b][q]), np.uint64)
                     for q in range(P)] for p in range(P)]
            comm.alltoallv(send, stage="CountKmer")
    owner = (splitmix64(table.kmers) % np.uint64(P)).astype(np.int64)
    comm.allgather([table.kmers[owner == p] for p in range(P)],
                   stage="CountKmer")


def _bumped_empty(state: AssemblyState, mode: str) -> AssemblyState:
    empty = AssemblyState.initial()
    return replace(empty, version=state.version + 1, refresh_mode=mode)


def _counts(n, m, nnz_a, nnz_c, nnz_r, nnz_s, rounds) -> dict[str, int]:
    return {"n_reads": int(n), "n_kmers": int(m), "nnz_a": int(nnz_a),
            "nnz_c": int(nnz_c), "nnz_r": int(nnz_r), "nnz_s": int(nnz_s),
            "tr_rounds": int(rounds)}


def _recompute(state: AssemblyState, batch: ReadSet, pcfg: PipelineConfig
               ) -> AssemblyState:
    """The oracle: scratch pipeline run + derivation of the service layers."""
    combined = state.reads.concat(batch)
    n = len(combined)
    if n == 0:
        return _bumped_empty(state, "recompute")
    result = run_pipeline(combined, pcfg)
    scheme = _scheme_of(pcfg)
    (hist_keys, hist_counts), occ, route_counts = _seed_tables(
        combined, scheme, pcfg.nprocs)
    table = table_from_histogram(hist_keys, hist_counts, pcfg.k, lower=2,
                                 upper=_resolved_upper(pcfg))
    arow, acol, _apos, _aflip = _a_entries(*occ, table)
    a_pattern = _pattern(_row_pointer(arow, n), acol, len(table))
    c_pack = _pair_product(a_pattern, a_pattern, n)
    graph = result.string_graph
    return AssemblyState(
        version=state.version + 1, reads=combined,
        hist_keys=hist_keys, hist_counts=hist_counts, table=table,
        occ_key=occ[0], occ_read=occ[1], occ_pos=occ[2], occ_flip=occ[3],
        R=result.R, S=result.S, graph=graph,
        contigs=extract_contigs(graph),
        c_ri=c_pack // np.int64(n), c_rj=c_pack % np.int64(n),
        route_counts=route_counts,
        counts=_counts(n, result.n_kmers, result.nnz_a, result.nnz_c,
                       result.nnz_r, result.nnz_s, result.tr_rounds),
        tracker=result.tracker, timer=result.timer,
        refresh_mode="recompute", scheme_id=scheme.scheme_id)


def _incremental(state: AssemblyState, batch: ReadSet,
                 pcfg: PipelineConfig) -> AssemblyState:
    """Delta refresh of a non-empty state (see the module docstring)."""
    k = pcfg.k
    scheme = _scheme_of(pcfg)
    n_old = len(state.reads)
    combined = state.reads.concat(batch)
    n = len(combined)
    P = pcfg.nprocs
    grid = ProcessGrid2D(P)
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    # Delta products run against a throwaway communicator: their traffic is
    # *not* the refreshed dataset's — the replays below charge that.
    shadow = SimComm(P, CommTracker(P))
    timer = StageTimer()

    # Counting state from the batch's one seed stream: histogram merge,
    # reliable filter, occurrence append, census rows.
    (bk, bc), batch_occ, batch_census = _seed_tables(batch, scheme, P,
                                                     row_offset=n_old)
    hist_keys, hist_counts = merge_histograms(state.hist_keys,
                                              state.hist_counts, bk, bc)
    table = table_from_histogram(hist_keys, hist_counts, k, lower=2,
                                 upper=_resolved_upper(pcfg))
    occ_key, occ_read, occ_pos, occ_flip = (
        np.concatenate([old, new]) for old, new in zip(
            (state.occ_key, state.occ_read, state.occ_pos, state.occ_flip),
            batch_occ))

    arow, acol, apos, aflip = _a_entries(occ_key, occ_read, occ_pos,
                                         occ_flip, table)
    m = len(table)
    indptr = _row_pointer(arow, n)
    aff = _affected_pairs(arow, acol, indptr, state, table, n_old)

    if state.route_counts.shape == (n_old, P):
        route_counts = np.vstack([state.route_counts, batch_census])
    else:  # census missing or built for a different grid: rebuild once
        route_counts = _route_census(scheme.seeds_of_block(*combined.soa()),
                                     n, P)

    # Traffic replays for the stages the delta path skips (TrReduction runs
    # for real below and charges itself).  SUMMA's broadcasts depend only
    # on A's and Aᵀ's block sizes: Aᵀ's block (i, j) is A's block (j, i).
    _replay_count_kmers(combined, route_counts, table, comm,
                        pcfg.kmer_batches, scheme=scheme)
    a_counts = charge_a_routing(arow, acol, n, m, grid, comm)
    exchange_reads(combined, grid, comm)
    summa_comm_replay(grid, a_counts, a_counts.T, A_NFIELDS, comm, "SpGEMM")

    old_r = state.R
    with get_executor(pcfg.executor, pcfg.workers) as ex:
        if aff.shape[0]:
            lo, hi = aff // np.int64(n), aff % np.int64(n)
            # The column operand: A's rows ``hi``, viewed transposed.  The
            # row operand: A's affected rows, less the entries whose inner
            # index k the column operand lacks (they pair with nothing, so
            # every C(i, j) keeps its ordered product list).
            cols = _row_entries(indptr, np.unique(hi))
            rows = _row_entries(indptr, np.unique(lo))
            rows = rows[in_sorted(np.unique(acol[cols]), acol[rows])]
            A_aff, A_cols = (DistMat.from_coo(
                (n, m), grid, arow[sel], acol[sel],
                np.stack([apos[sel], aflip[sel]], axis=1))
                for sel in (rows, cols))
            mask = DistMat.from_coo((n, n), grid, lo, hi,
                                    np.ones((lo.shape[0], 1), np.int64))
            Cd = summa(A_aff, A_cols.T, PositionsSemiring(), shadow,
                       "SpGEMM", timer, executor=ex, mask=mask)
            Rd = align_candidates(Cd, combined, k, shadow, timer,
                                  mode=pcfg.align_mode,
                                  scoring=pcfg.scoring, filt=pcfg.filt,
                                  fuzz=pcfg.fuzz, executor=ex).to_global()
            cd_pack = Cd.to_global()
            cd_pack = cd_pack.row * np.int64(n) + cd_pack.col
        else:
            Rd = CooMat.empty((n, n), R_NFIELDS)
            cd_pack = np.empty(0, np.int64)

        # R splice: drop affected pairs' old rows, append the delta's.
        if old_r is not None and old_r.nnz:
            opack = np.minimum(old_r.row, old_r.col) * np.int64(n) + \
                np.maximum(old_r.row, old_r.col)
            keep = ~in_sorted(aff, opack)
            r_row = np.concatenate([old_r.row[keep], Rd.row])
            r_col = np.concatenate([old_r.col[keep], Rd.col])
            r_vals = np.vstack([old_r.vals[keep], Rd.vals])
        else:
            r_row, r_col, r_vals = Rd.row, Rd.col, Rd.vals
        R_global = CooMat((n, n), r_row, r_col, r_vals)

        # Candidate-pair bookkeeping (nnz_c without re-forming A·Aᵀ).
        opc = state.c_ri * np.int64(n) + state.c_rj
        c_pack = np.unique(np.concatenate([opc[~in_sorted(aff, opc)],
                                           cd_pack]))

        R_dist = DistMat.from_coo((n, n), grid, R_global.row, R_global.col,
                                  R_global.vals)
        tr = transitive_reduction(
            R_dist, comm, timer, fuzz=pcfg.fuzz,
            max_rounds=pcfg.max_tr_rounds, executor=ex)

    S_global = tr.S.to_global()
    graph = StringGraph.from_coomat(S_global)
    return AssemblyState(
        version=state.version + 1, reads=combined,
        hist_keys=hist_keys, hist_counts=hist_counts, table=table,
        occ_key=occ_key, occ_read=occ_read, occ_pos=occ_pos,
        occ_flip=occ_flip,
        R=R_global, S=S_global, graph=graph,
        contigs=extract_contigs(graph),
        c_ri=c_pack // np.int64(n), c_rj=c_pack % np.int64(n),
        route_counts=route_counts,
        counts=_counts(n, m, arow.shape[0], c_pack.shape[0],
                       R_global.nnz, S_global.nnz, tr.rounds),
        tracker=tracker, timer=timer, refresh_mode="incremental",
        scheme_id=scheme.scheme_id)


def refresh(state: AssemblyState, batch: ReadSet,
            config: ServiceConfig | None = None,
            mode: str | None = None) -> AssemblyState:
    """Version ``v + 1`` from version ``v`` plus a read batch.

    ``mode`` overrides the config's ``refresh_mode``; both it and the
    pipeline config's axes are resolved here, once per refresh
    (:data:`repro.options.AXES`).  Whatever the pipeline config's
    ``overlap_mode`` says, the candidate path is monolithic — the blocked
    mode strip-mines a batch-sized product that the incremental engine
    never forms.  An empty initial state always bootstraps through the
    scratch run (there is nothing to be incremental against).

    Cross-scheme deltas are refused: the state's cached histogram,
    occurrence table, and routing census are seed streams of the scheme
    tagged in ``state.scheme_id``, so an incremental refresh under a
    different ``seed_mode``/``seed_w`` raises ``ValueError`` instead of
    splicing incompatible state.  A ``recompute`` refresh rebuilds from
    scratch under the new scheme and re-tags the state.  A zero-length read
    in the batch raises ``ValueError`` naming it, in either mode, before
    any engine runs.
    """
    config = config if config is not None else ServiceConfig()
    mode = REFRESH_MODE.resolve(mode if mode is not None
                                else config.refresh_mode)
    pcfg = service_pipeline(config)
    _require_nonempty_reads(batch)
    # Injection point for the chaos suite: fires before any new state is
    # built, so a failed refresh leaves nothing half-made to roll back.
    maybe_fault("service.refresh")
    t0 = time.perf_counter()
    if len(state.reads) == 0 and len(batch) == 0:
        new = _bumped_empty(state, mode)
    elif mode == "recompute" or len(state.reads) == 0:
        new = _recompute(state, batch, pcfg)
    else:
        scheme_id = _scheme_of(pcfg).scheme_id
        if state.scheme_id and state.scheme_id != scheme_id:
            raise ValueError(
                f"cross-scheme delta refused: state v{state.version} was "
                f"built with seeding scheme {state.scheme_id!r} but the "
                f"config resolves to {scheme_id!r}; refresh with "
                f"mode='recompute' to rebuild under the new scheme")
        new = _incremental(state, batch, pcfg)
    return replace(new, refresh_seconds=time.perf_counter() - t0)
