"""diBELLA 1D: overlap detection with distributed hash tables.

The paper's prior distributed design (Ellis et al. 2019) distributes k-mers
to owner ranks, generates candidate read pairs *locally per k-mer owner*
(the outer product ``C = Σ_i A_:i·Aᵀ_i:``), then globally reduces duplicate
pairs to the block-row owner of the first read — communication
``W = a²m/P`` words with ``Y = P`` messages, versus the 2D algorithm's
``am/√P`` and ``√P`` (Table I, Section V-B).  It performs no transitive
reduction.

This implementation executes that data flow on the simulated runtime so
Table I's 1D columns come from measured code:

1. k-mer counting (shared with the 2D pipeline — identical cost),
2. local pair generation at each k-mer owner (stage ``Overlap1D`` compute),
3. alltoallv of candidate pairs to block-row owners + duplicate reduction
   (stage ``Overlap1D`` traffic — this is the ``a²m/P`` term),
4. read exchange: one read per nonzero where the aligning rank lacks it
   (stage ``ExchangeRead1D``, ``W = cnl/P``).

Table I compares only the stages whose traffic differs between the two
designs.  Alignment is not one of them: it is the 2D pipeline's kernel run
on the same candidate pairs (the 1D and 2D candidate sets are equal), so
it is not run here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsparse.coomat import CooMat
from ..dsparse.spgemm import expand_products
from ..mpisim.comm import SimComm
from ..mpisim.grid import block_bounds
from ..mpisim.tracker import CommTracker, StageTimer
from ..seqs.fasta import ReadSet
from ..seqs.kmer_counter import count_kmers, reliable_upper_bound
from ..seqs.kmers import read_kmers_batch, splitmix64

__all__ = ["Dibella1DResult", "run_dibella1d"]


@dataclass
class Dibella1DResult:
    """Outcome of the 1D pipeline (candidate pairs only: no alignment, no
    TR)."""

    n_reads: int
    n_kmers: int
    n_candidate_pairs: int
    timer: StageTimer
    tracker: CommTracker


def run_dibella1d(reads: ReadSet, k: int = 17, nprocs: int = 1, *,
                  depth_hint: float = 30.0, error_hint: float = 0.15,
                  kmer_upper: int | None = None) -> Dibella1DResult:
    """Run the 1D overlap-detection pipeline (Table I's comparator)."""
    tracker = CommTracker(nprocs)
    comm = SimComm(nprocs, tracker)
    timer = StageTimer()
    P = nprocs

    upper = kmer_upper if kmer_upper is not None else \
        reliable_upper_bound(depth_hint, error_hint, k)
    table = count_kmers(reads, k, comm, timer, upper=upper)
    table.take_stream()   # no A is built here: drop the seed stream now

    n = len(reads)
    stage = "Overlap1D"

    # Build the k-mer owners' posting lists (owner = hash(kmer) mod P):
    # arrays of (kmer column, read, pos, flip), vectorized per source rank —
    # each read's first window of each reliable k-mer, read-major, then by
    # column.  The shipping of these postings shares the counting pass's
    # exchange.
    m = len(table)
    owner = (splitmix64(table.kmers) % np.uint64(P)).astype(np.int64)
    read_bounds = block_bounds(n, P)
    codes, offsets, lengths = reads.soa()
    posts = []
    with timer.superstep(stage) as step:
        for p in range(P):
            with step.rank(p):
                lo, hi = int(read_bounds[p]), int(read_bounds[p + 1])
                canon, ridx, pos, flip = read_kmers_batch(
                    codes, offsets[lo:hi], lengths[lo:hi], k)
                col = table.lookup(canon)
                ok = col >= 0
                rd = ridx[ok] + lo
                _, first = np.unique(rd * m + col[ok], return_index=True)
                posts.append(np.stack([col[ok][first], rd[first],
                                       pos[ok][first], flip[ok][first]]))
    cols, rds, poss, flips = np.concatenate(posts, axis=1).astype(np.int64)

    # Local outer product at each owner: all read pairs sharing a k-mer.
    # Each owner's postings form a reads × k-mers block A_q, and the pairs
    # are the expansion half of the semiring SpGEMM A_q·A_qᵀ — the same
    # kernel the 2D pipeline multiplies with, but *without* the
    # compress step: every per-k-mer duplicate ships, which is exactly the
    # 1D algorithm's a²m/P candidate volume that must then be reduced.
    empty_payload = np.empty((0, 5), dtype=np.int64)
    pair_send: list[list[np.ndarray]] = [[empty_payload for _ in range(P)]
                                         for _ in range(P)]
    with timer.superstep(stage) as step:
        for q in range(P):
            with step.rank(q):
                mine = owner[cols] == q
                if not mine.any():
                    continue
                Aq = CooMat((n, m), rds[mine], cols[mine],
                            np.stack([poss[mine], flips[mine]], axis=1))
                Atq = Aq.T
                a_idx, b_at = expand_products(Aq, Atq)
                if a_idx.shape[0] == 0:
                    continue
                b_rows = Atq.csr()
                ri = Aq.row[a_idx]
                rj = b_rows.index[b_at]
                # The product is symmetric; keep each unordered pair once
                # per shared k-mer (ri < rj also drops the diagonal).
                # Both triangles are expanded, then filtered; the 2D path
                # (candidate_overlaps) never computes a block wholly below
                # the diagonal, so Fig. 9's compute comparison is not
                # like-for-like on this step.
                keep = ri < rj
                if not keep.any():
                    continue
                a_idx, b_idx = a_idx[keep], b_rows.stored(b_at[keep])
                ri, rj = ri[keep], rj[keep]
                pi = Aq.vals[a_idx, 0]
                pj = Atq.vals[b_idx, 0]
                st = Aq.vals[a_idx, 1] ^ Atq.vals[b_idx, 1]
                dest = np.searchsorted(read_bounds, ri, side="right") - 1
                payload = np.stack([ri, rj, pi, pj, st], axis=1)
                for d in range(P):
                    sel = dest == d
                    if sel.any():
                        pair_send[q][d] = payload[sel]

    # Global reduction of duplicate pairs at the block-row owners: this
    # exchange is the 1D algorithm's a²m/P-word bottleneck.
    recv = comm.alltoallv(pair_send, stage=stage)

    # Only the unique (ri, rj) keys matter from here on: the pair count and
    # which reads each row owner must fetch.
    candidates: list[np.ndarray] = []
    with timer.superstep(stage) as step:
        for p in range(P):
            with step.rank(p):
                arrs = [a for a in recv[p]
                        if a is not None and a.shape[0] > 0]
                keys = np.empty(0, dtype=np.int64)
                if arrs:
                    allp = np.vstack(arrs)
                    keys = np.unique(allp[:, 0] * np.int64(n) + allp[:, 1])
                candidates.append(keys)

    n_pairs = sum(int(c.shape[0]) for c in candidates)

    # Read exchange: an alignment task sits at the row owner of read i,
    # which owns i but may lack j — at most one read per nonzero (W=cnl/P).
    ex_stage = "ExchangeRead1D"
    lengths = reads.lengths
    for p in range(P):
        lo, hi = int(read_bounds[p]), int(read_bounds[p + 1])
        rj = np.unique(candidates[p] % n)
        needed_j = rj[(rj < lo) | (rj >= hi)]
        # Aggregate per source rank: one message per (src -> p) pair with
        # all its reads batched (Table I's Y = min{cnl/P, P}).
        src = np.searchsorted(read_bounds, needed_j, side="right") - 1
        nbytes = np.bincount(src, weights=lengths[needed_j], minlength=P)
        for r in np.unique(src):
            comm.tracker.record(ex_stage, int(r), int(nbytes[r]), 1)

    return Dibella1DResult(n_reads=n, n_kmers=len(table),
                           n_candidate_pairs=n_pairs,
                           timer=timer, tracker=tracker)
