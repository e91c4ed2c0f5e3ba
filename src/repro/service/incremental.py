"""Incremental refresh: fold a read batch into an AssemblyState.

:func:`refresh` takes version ``v`` plus a batch and produces version
``v + 1``, byte-identical to running the whole pipeline from scratch on
the concatenated reads — for *every* field the batch pipeline produces
(S, R, contigs, the sparsity counts, and the per-stage communication
records).  It earns its speed by never re-aligning a pair whose
candidate evidence is unchanged.  There is one engine: the bootstrap and
every rebuild are deltas from the empty state, whose batch is the whole
read set (so every pair is affected and the delta is the whole run).

Why the incremental path is exact
---------------------------------

* **Counting.**  The state keeps the exact global k-mer histogram, which
  merges losslessly with the batch's histogram
  (:func:`~repro.seqs.kmer_counter.merge_histograms`); the reliable table
  is a pure filter of it (:func:`~repro.seqs.kmer_counter.
  table_from_histogram` — provably equal to the two-pass Bloom counter's
  output).  Multiplicities only grow, so a key's reliability changes in
  exactly two ways: it enters ``[lower, upper]`` from below (**added**)
  or leaves above ``upper`` (**removed**).  Only the batch's keys change
  count, so their old and new counts, read off the merge, name both sets
  — which holds only while the bounds stay put, so a refresh under other
  bounds rebuilds.

* **A.**  The state keeps the reliability-independent occurrence table —
  first-window occurrence per (read, distinct canonical k-mer), sorted by
  (read, key) — with each occurrence's column in this version's A
  (``occ_col``; ``-1`` while its key is unreliable), and a key-major index
  of it (``key_ptr``/``key_occ``: each histogram key's occurrences,
  ascending, hence one per read in read order).  A is the occurrences
  that have a column; column ids are the sorted order of the reliable
  keys, so they are A's entries in canonical row-major order.  A is
  updated, not re-filtered: old columns are renumbered through the old →
  new column map (surviving columns keep their order and fill the ids no
  added key takes, removed ones map to ``-1``), the added keys' old
  occurrences — read off the index — take their columns, and the batch's
  occurrences append (new read indices exceed all old ones), each spliced
  at the end of its key's index list.  Only the batch's keys are looked
  up, and nothing A-sized is sorted.

* **C.**  A pair's C entry is the ordered reduce over its shared reliable
  columns, and relabeling columns (sorted keys → sorted ids) preserves
  that order.  A pair's entry can therefore only change if it gains a
  shared **added** column, loses a shared **removed** column, or involves
  a **new** read — the affected set ``P₁ ∪ P₂ ∪ P₃``: the pairs within an
  added key's occurrence list, within a removed key's old list, and each
  new read with the reads listed under its reliable keys.  Each is a
  pattern product over those lists, the size of the lists, not of A.  The
  delta C is one masked product on global operands
  (:func:`~repro.dsparse.masked.spgemm_masked`, the kernel SUMMA runs per
  block): A's rows for the affected row coordinates times A's rows for
  the affected column coordinates, viewed transposed
  (:attr:`~repro.dsparse.coomat.CooMat.T`), under the affected-pair mask;
  row entries in a column no partner row holds pair with nothing and are
  left out.  ``C(i, j)`` reduces over ``A(i, k) ⊗ Aᵀ(k, j)``, and the
  positions semiring keeps the count and the first two seeds in ascending
  ``k`` — exactly what SUMMA's stage-ordered merge of block partials
  keeps — so each entry is byte-identical to the monolithic product's
  (masked ≡ unmasked ∩ mask; the two masked kernels are byte-identical,
  so the route the smaller operands take changes nothing).  Nothing is
  distributed or transposed for it.

* **R.**  Alignment is per-pair and deterministic, so R is determined by
  the set of C entries: drop old rows whose unordered pair is affected
  and merge in the delta alignment's rows (both canonical, no pair in
  common: one sorted insert).  An old pair outside the affected set still
  shares an unchanged reliable column (else it lost every shared column
  and is in ``P₂``), so it stays in C with an identical entry — keeping
  its R rows verbatim is exact.  That holds for containment pairs too: a
  batch read that contains a resident one forms a new-read pair (``P₃``),
  and the transitive reduction derives which reads are contained from R
  on every version.

* **S / contigs.**  Transitive reduction is re-run in full on the real
  communicator — it is global (any edge can unlock a reduction anywhere)
  and cheap relative to alignment, and running it for real makes S and
  the ``TrReduction`` records identical by construction.

* **Tracker.**  The other stages' traffic is *replayed* onto a fresh
  tracker from the merged state: the two ``CountKmer`` alltoallv passes
  and the reliable-set allgather (payload sizes come from the cached
  per-read routing census, so old reads' k-mers are never re-extracted),
  ``CreateSpMat`` entry routing (per-row column-block counts of A's CSR,
  :func:`~repro.core.overlap.charge_a_routing`), ``ExchangeRead``, and
  SUMMA's broadcast schedule (a pure function of the operand block sizes
  — :func:`~repro.dsparse.summa.summa_comm_replay`; A's per-block counts
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
from ..core.pipeline import PipelineConfig, _require_nonempty_reads
from ..core.semirings import A_NFIELDS, PositionsSemiring, R_NFIELDS
from ..core.string_graph import StringGraph
from ..core.transitive_reduction import transitive_reduction
from ..dsparse.coomat import CooMat
from ..dsparse.distmat import DistMat
from ..dsparse.masked import pattern_matmul, spgemm_masked
from ..dsparse.membership import in_sorted
from ..dsparse.spgemm import _ranges
from ..dsparse.summa import summa_comm_replay
from ..exec import get_executor
from ..mpisim.comm import SimComm
from ..mpisim.grid import ProcessGrid2D, block_bounds
from ..mpisim.tracker import CommTracker, StageTimer
from ..options import REFRESH_MODE
from ..resilience.faults import FaultPlan, active_plan, maybe_fault
from ..seqs.fasta import ReadSet
from ..seqs.kmer_counter import (merge_histograms, reliable_upper_bound,
                                 table_from_histogram)
from ..seqs.kmers import splitmix64
from ..seqs.seeding import SeedScheme, make_scheme
from .config import ServiceConfig
from .state import AssemblyState, Basis

__all__ = ["refresh", "batch_occurrences", "service_pipeline"]


def service_pipeline(config: ServiceConfig) -> PipelineConfig:
    """The resolved pipeline config every refresh under ``config`` runs.

    Pin the in-memory read backend too: the service's versioned states
    concat their ReadSets across refreshes, and a per-refresh store
    rebuild would put an ingest-sized disk write on every delta.  The
    blocked-only options go with the blocked path.  The config's
    ``refresh_mode`` is validated here too.
    """
    REFRESH_MODE.resolve(config.refresh_mode)
    return replace(config.pipeline, overlap_mode="monolithic",
                   read_store="inmem", n_strips=None,
                   checkpoint_dir=None).resolved()


def _scheme_of(pcfg: PipelineConfig) -> SeedScheme:
    """The seeding scheme a pipeline config resolves to."""
    return make_scheme(pcfg.seed_mode, pcfg.k, pcfg.seed_w)


def _basis(pcfg: PipelineConfig) -> Basis:
    """The :class:`~repro.service.state.Basis` a refresh under ``pcfg``
    builds on."""
    upper = pcfg.kmer_upper
    if upper is None:
        upper = reliable_upper_bound(pcfg.depth_hint, pcfg.error_hint, pcfg.k)
    return Basis(_scheme_of(pcfg).scheme_id, 2, upper, pcfg.align_mode,
                 pcfg.scoring, pcfg.filt, pcfg.fuzz, pcfg.nprocs)


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


def _row_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of ``n`` rows over row-major row indices."""
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _a_csr(occ_read: np.ndarray, occ_col: np.ndarray, n: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A in CSR, ``(a_ptr, a_col, a_occ)``, with each entry's occurrence id.

    The occurrence table is sorted by (read, key) and column ids ascend
    with the keys, so the occurrences that have a column are A's entries
    already in row-major order.
    """
    a_occ = np.flatnonzero(occ_col >= 0)
    occ_ptr = np.searchsorted(occ_read, np.arange(n + 1))
    return np.searchsorted(a_occ, occ_ptr), occ_col[a_occ], a_occ


def _a_rows(rows: np.ndarray, a_ptr: np.ndarray, a_col: np.ndarray,
            a_occ: np.ndarray, occ_pos: np.ndarray, occ_flip: np.ndarray,
            m: int, cols: np.ndarray | None = None) -> CooMat:
    """Rows ``rows`` (ascending) of A as a global ``n × m`` matrix.

    With ``cols`` (a boolean mask over the column ids) only the entries in
    those columns are kept.  Only the rows' entries are touched.
    """
    start = a_ptr[rows]
    lens = a_ptr[rows + 1] - start
    at = _ranges(start, lens)
    row = np.repeat(rows, lens)
    if cols is not None:
        hit = cols[a_col[at]]
        at, row = at[hit], row[hit]
    occ = a_occ[at]
    return CooMat((a_ptr.shape[0] - 1, m), row, a_col[at],
                  np.stack([occ_pos[occ], occ_flip[occ]], axis=1),
                  checked=True)


def _pattern(indptr: np.ndarray, cols: np.ndarray, m: int
             ) -> sp.csr_matrix:
    """Unit-valued CSR over a row pointer and its row-major columns."""
    return sp.csr_matrix((np.ones(cols.shape[0], np.int64), cols, indptr),
                         shape=(indptr.shape[0] - 1, m))


def _pair_set(product: sp.spmatrix, n: int, row_offset: int = 0
              ) -> np.ndarray:
    """Packed strict-upper pairs ``lo·n + hi`` of a pattern product.

    Entry ``(i, j)`` of ``product`` pairs read ``i + row_offset`` with
    read ``j``; pairs are canonicalized to unordered, off-diagonal ones.
    """
    prod = product.tocoo()
    i = prod.row.astype(np.int64) + row_offset
    j = prod.col.astype(np.int64)
    off = i != j
    i, j = i[off], j[off]
    return np.unique(np.minimum(i, j) * np.int64(n) + np.maximum(i, j))


def _sharers(key_ptr: np.ndarray, key_occ: np.ndarray, keys: np.ndarray,
             occ_read: np.ndarray, n: int) -> sp.csr_matrix:
    """``keys`` × reads incidence pattern, read off the keys' occurrence
    lists in the key-major index: its size is the lists', not A's."""
    start = key_ptr[keys]
    lens = key_ptr[keys + 1] - start
    ptr = np.zeros(keys.shape[0] + 1, np.int64)
    np.cumsum(lens, out=ptr[1:])
    return _pattern(ptr, occ_read[key_occ[_ranges(start, lens)]], n)


def _affected_pairs(state: AssemblyState, key_ptr: np.ndarray,
                    key_occ: np.ndarray, occ_read: np.ndarray,
                    added: np.ndarray, removed: np.ndarray,
                    reliable: np.ndarray, new_rows: sp.csr_matrix
                    ) -> np.ndarray:
    """``P₁ ∪ P₂ ∪ P₃``: the pairs whose C entry may differ from version v.

    ``P₁`` — pairs sharing an **added** reliable column (count grew into
    range) in the new A; ``P₂`` — pairs sharing a **removed** column
    (count grew past ``upper``) in the *old* A; ``P₃`` — pairs involving a
    new read: the batch's rows of A (``new_rows``, over the batch's
    ``reliable`` keys) times those keys' reads.  Counts only grow, so
    added/removed are disjoint and no other pair's ordered shared-column
    list changes.  ``added`` and ``reliable`` index the new key-major
    index, ``removed`` the old one; the three pattern products are the
    size of those keys' occurrence lists.
    """
    n_old = len(state.reads)
    n = n_old + new_rows.shape[0]
    parts = [_pair_set(pattern_matmul(new_rows, _sharers(
        key_ptr, key_occ, reliable, occ_read, n)), n, n_old)]
    for ptr, occ, keys in ((key_ptr, key_occ, added),
                           (state.key_ptr, state.key_occ, removed)):
        if keys.shape[0]:
            lists = _sharers(ptr, occ, keys, occ_read, n)
            parts.append(_pair_set(pattern_matmul(lists.T, lists), n))
    return np.unique(np.concatenate(parts))


def _column_map(m_old: int, removed_cols: np.ndarray, m: int,
                added_cols: np.ndarray) -> np.ndarray:
    """Old column id → new column id (``-1``: removed), as a lookup array.

    Column ids are the sorted order of the reliable keys, so the surviving
    old columns keep their order and fill, in order, the new ids that no
    added key takes.
    """
    survives = np.ones(m_old, dtype=bool)
    survives[removed_cols] = False
    free = np.ones(m, dtype=bool)
    free[added_cols] = False
    colmap = np.full(m_old, -1, np.int64)
    colmap[survives] = np.flatnonzero(free)
    return colmap


def _delta_c(aff: np.ndarray, a: tuple, n: int, m: int,
             timer: StageTimer) -> CooMat:
    """The delta C over the affected pairs ``aff`` (packed ``lo·n + hi``).

    One masked product on global operands: A's rows ``lo`` times A's rows
    ``hi`` viewed transposed, under the affected-pair mask (module
    docstring, **C**).  Row entries in a column no partner row holds pair
    with nothing and are left out.  ``a`` is ``(a_ptr, a_col, a_occ,
    occ_pos, occ_flip)``; the kernel's time and work go to ``timer``.
    """
    if aff.shape[0] == 0:
        return CooMat.empty((n, n), PositionsSemiring().out_nfields)
    lo, hi = aff // np.int64(n), aff % np.int64(n)
    partners = _a_rows(np.unique(hi), *a, m)
    held = np.zeros(m, dtype=bool)
    held[partners.col] = True
    rows = _a_rows(np.unique(lo), *a, m, cols=held)
    mask = CooMat((n, n), lo, hi, np.ones((lo.shape[0], 1), np.int64),
                  checked=True)
    tally: dict[str, int] = {}
    t0 = time.perf_counter()
    Cd, path = spgemm_masked(rows, partners.T, PositionsSemiring(), mask,
                             tally)
    timer.add("SpGEMM", time.perf_counter() - t0)
    timer.count_kernel("SpGEMM", path)
    for name, count in tally.items():
        timer.count_work("SpGEMM", name, count)
    return Cd


def _splice_r(old: CooMat | None, aff: np.ndarray, Rd: CooMat) -> CooMat:
    """R of the new version: ``old`` less the affected pairs' rows, with
    the delta alignment's rows ``Rd`` merged in.  Both are canonical and
    share no pair, so one sorted insert keeps R canonical without a sort.
    """
    n = Rd.shape[0]
    if old is not None and old.nnz:
        opack = np.minimum(old.row, old.col) * np.int64(n) + \
            np.maximum(old.row, old.col)
        keep = ~in_sorted(aff, opack)
        kept = CooMat((n, n), old.row[keep], old.col[keep], old.vals[keep],
                      checked=True)
    else:
        kept = CooMat.empty((n, n), R_NFIELDS)
    spot = np.searchsorted(kept.keys(), Rd.keys())
    return CooMat((n, n), np.insert(kept.row, spot, Rd.row),
                  np.insert(kept.col, spot, Rd.col),
                  np.insert(kept.vals, spot, Rd.vals, axis=0), checked=True)


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
    census)``, with the histogram sorted by key (the form
    :func:`~repro.seqs.kmer_counter.merge_histograms` merges) and ``occ``
    as :func:`batch_occurrences` returns it.
    """
    seeds = scheme.seeds_of_block(*reads.soa())
    keys, counts = np.unique(seeds[0], return_counts=True)
    return ((keys, counts.astype(np.int64)),
            batch_occurrences(seeds, row_offset),
            _route_census(seeds, len(reads), P))


def _replay_count_kmers(reads: ReadSet, route_counts: np.ndarray, table,
                        comm: SimComm, batches: int,
                        scheme: SeedScheme) -> None:
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
                    *reads.soa_block(blo + i, blo + i + 1), False)[0]
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


def _counts(n, m, nnz_a, nnz_c, nnz_r, nnz_s, rounds) -> dict[str, int]:
    return {"n_reads": int(n), "n_kmers": int(m), "nnz_a": int(nnz_a),
            "nnz_c": int(nnz_c), "nnz_r": int(nnz_r), "nnz_s": int(nnz_s),
            "tr_rounds": int(rounds)}


def _incremental(state: AssemblyState, batch: ReadSet,
                 pcfg: PipelineConfig, basis: Basis) -> AssemblyState:
    """Delta refresh of a state built on ``basis`` (see the module
    docstring); the empty state is one, with no table and no census."""
    k = pcfg.k
    lower, upper = basis.lower, basis.upper
    scheme = _scheme_of(pcfg)
    n_old = len(state.reads)
    combined = state.reads.concat(batch)
    n = len(combined)
    P = pcfg.nprocs
    grid = ProcessGrid2D(P)
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    timer = StageTimer()

    # Counting state from the batch's one seed stream: histogram merge and
    # reliable filter.  Only the batch's keys change count, so only they
    # can enter or leave [lower, upper]: their old and new counts decide.
    (bk, bc), (b_key, b_read, b_pos, b_flip), batch_census = _seed_tables(
        batch, scheme, P, row_offset=n_old)
    hist_keys, hist_counts = merge_histograms(state.hist_keys,
                                              state.hist_counts, bk, bc)
    table = table_from_histogram(hist_keys, hist_counts, k, lower=lower,
                                 upper=upper)
    m = len(table)
    at = np.searchsorted(hist_keys, bk)        # batch keys, merged ids
    new_count = hist_counts[at]
    old_count = new_count - bc
    fresh = old_count == 0
    old_at = at - (np.cumsum(fresh) - fresh)   # old ids / insertion points
    was = (old_count >= lower) & (old_count <= upper)
    now = (new_count >= lower) & (new_count <= upper)
    added, removed = now & ~was, was & ~now
    bcol = np.full(bk.shape[0], -1, np.int64)   # batch keys' new columns
    bcol[now] = table.lookup(bk[now])

    # Key-major index: the batch's occurrences (ids past every old one)
    # go at the end of their keys' lists — one sorted splice.
    n_occ = state.occ_col.shape[0]
    b_of = np.searchsorted(bk, b_key)          # each occurrence's batch key
    by_key = np.argsort(b_of, kind="stable")
    # Where each batch key's list ends in the old index (a fresh key's
    # empty list sits where the next old key's starts).
    ends = state.key_ptr[old_at + ~fresh]
    key_occ = np.insert(state.key_occ, ends[b_of[by_key]], n_occ + by_key)
    key_ptr = np.insert(state.key_ptr, old_at[fresh],
                        state.key_ptr[old_at[fresh]])
    key_ptr[1:] += np.cumsum(np.bincount(at[b_of],
                                         minlength=hist_keys.shape[0]))

    # Occurrence table: renumber old columns, give the added keys' old
    # occurrences their columns, append the batch's rows (a state without
    # occurrences has nothing to renumber).
    occ_col = state.occ_col
    if n_occ and (added.any() or removed.any()):
        colmap = _column_map(len(state.table),
                             state.table.lookup(bk[removed]), m,
                             bcol[added])
        occ_col = np.append(colmap, -1)[occ_col]   # -1 stays -1
        revived = added & ~fresh                    # added, seen before
        start = state.key_ptr[old_at[revived]]
        lens = state.key_ptr[old_at[revived] + 1] - start
        occ_col[state.key_occ[_ranges(start, lens)]] = np.repeat(
            bcol[revived], lens)
    occ_col = np.concatenate([occ_col, bcol[b_of]])
    occ_read, occ_pos, occ_flip = (
        np.concatenate([old, new]) for old, new in zip(
            (state.occ_read, state.occ_pos, state.occ_flip),
            (b_read, b_pos, b_flip)))
    a_ptr, a_col, a_occ = _a_csr(occ_read, occ_col, n)

    # The batch's rows of A over its reliable keys, for P₃.
    hit = now[b_of]
    local = np.cumsum(now) - 1
    new_rows = _pattern(_row_pointer(b_read[hit] - n_old, len(batch)),
                        local[b_of[hit]], int(now.sum()))
    aff = _affected_pairs(state, key_ptr, key_occ, occ_read, at[added],
                          old_at[removed], at[now], new_rows)

    # The empty state's census has no columns yet: the batch's is the whole.
    route_counts = (np.vstack([state.route_counts, batch_census]) if n_old
                    else batch_census)

    # Traffic replays for the stages the delta path skips (TrReduction runs
    # for real below and charges itself).  SUMMA's broadcasts depend only
    # on A's and Aᵀ's block sizes: Aᵀ's block (i, j) is A's block (j, i).
    _replay_count_kmers(combined, route_counts, table, comm,
                        pcfg.kmer_batches, scheme=scheme)
    a_counts = charge_a_routing(a_ptr, a_col, m, grid, comm)
    exchange_reads(combined, grid, comm)
    summa_comm_replay(grid, a_counts, a_counts.T, A_NFIELDS, comm, "SpGEMM")

    # The run's fault plan, armed as run_pipeline arms it (an armed plan,
    # such as the service's, stays in place when the config names none).
    faults = (FaultPlan(pcfg.fault_plan) if pcfg.fault_plan is not None
              else None)
    with active_plan(faults), get_executor(pcfg.executor, pcfg.workers) as ex:
        Cd = _delta_c(aff, (a_ptr, a_col, a_occ, occ_pos, occ_flip), n, m,
                      timer)
        Rd = align_candidates(
            DistMat.from_coo((n, n), grid, Cd.row, Cd.col, Cd.vals),
            combined, k, comm, timer, mode=pcfg.align_mode,
            scoring=pcfg.scoring, filt=pcfg.filt, fuzz=pcfg.fuzz,
            executor=ex).to_global()
        R_global = _splice_r(state.R, aff, Rd)

        # Candidate-pair bookkeeping (nnz_c without re-forming A·Aᵀ): the
        # kept pairs and the delta's are sorted and disjoint, so one sorted
        # insert merges them.
        opc = state.c_ri * np.int64(n) + state.c_rj
        opc = opc[~in_sorted(aff, opc)]
        cd_pack = Cd.row * np.int64(n) + Cd.col
        c_pack = np.insert(opc, np.searchsorted(opc, cd_pack), cd_pack)

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
        occ_read=occ_read, occ_pos=occ_pos, occ_flip=occ_flip,
        occ_col=occ_col, key_ptr=key_ptr, key_occ=key_occ,
        R=R_global, S=S_global, graph=graph,
        contigs=extract_contigs(graph),
        c_ri=c_pack // np.int64(n), c_rj=c_pack % np.int64(n),
        route_counts=route_counts,
        counts=_counts(n, m, a_ptr[-1], c_pack.shape[0],
                       R_global.nnz, S_global.nnz, tr.rounds),
        tracker=tracker, timer=timer, basis=basis)


def refresh(state: AssemblyState, batch: ReadSet,
            config: ServiceConfig | None = None) -> AssemblyState:
    """Version ``v + 1`` from version ``v`` plus a read batch.

    The pipeline config's axes are resolved here, once per refresh
    (:data:`repro.options.AXES`).  Whatever its ``overlap_mode`` says, the
    candidate path is monolithic — the blocked mode strip-mines a
    batch-sized product that the delta never forms.

    A state takes a delta only under the
    :class:`~repro.service.state.Basis` it was built on.  Under any other
    — the empty state has none; a new seeding scheme, reliable bounds,
    alignment settings or grid — the refresh rebuilds: the delta runs on
    the empty state with the whole read set as its batch, and the new
    version carries the config's basis.  The bootstrap is the first such
    rebuild.  A zero-length read in the batch raises ``ValueError`` naming
    it before anything runs.
    """
    config = config if config is not None else ServiceConfig()
    pcfg = service_pipeline(config)
    _require_nonempty_reads(batch)
    # Injection point for the chaos suite: fires before any new state is
    # built, so a failed refresh leaves nothing half-made to roll back.
    maybe_fault("service.refresh")
    t0 = time.perf_counter()
    basis = _basis(pcfg)
    if state.basis != basis:
        state, batch = (replace(AssemblyState.initial(),
                                version=state.version),
                        state.reads.concat(batch))
    if len(state.reads) + len(batch) == 0:
        new = replace(state, version=state.version + 1)
    else:
        new = _incremental(state, batch, pcfg, basis)
    return replace(new, refresh_seconds=time.perf_counter() - t0)
