"""diBELLA 1D: overlap detection with distributed hash tables.

The paper's prior distributed design (Ellis et al. 2019) distributes k-mers
to owner ranks, generates candidate read pairs *locally per k-mer owner*
(the outer product ``C = Σ_i A_:i·Aᵀ_i:``), then globally reduces duplicate
pairs to the block-row owner of the first read — communication
``W = a²m/P`` words with ``Y = P`` messages, versus the 2D algorithm's
``am/√P`` and ``√P`` (Table I, Section V-B).  It performs no transitive
reduction.

This implementation executes that data flow on the simulated runtime so
Fig. 9's comparison and Table I's 1D column come from measured code:

1. k-mer counting (shared with the 2D pipeline — identical cost),
2. local pair generation at each k-mer owner (stage ``Overlap1D`` compute),
3. alltoallv of candidate pairs to block-row owners + duplicate reduction
   (stage ``Overlap1D`` traffic — this is the ``a²m/P`` term),
4. read exchange: one read per nonzero where the aligning rank lacks it
   (stage ``ExchangeRead1D``, ``W = cnl/P``),
5. pairwise alignment (same kernel as the 2D pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.xdrop import Scoring
from ..core.overlap import AlignmentFilter, _align_one
from ..core.semirings import C_PA1, C_PB1, C_STRAND1
from ..align.overlapper import classify_overlap
from ..dsparse.backend import Backend, get_backend
from ..dsparse.coomat import CooMat
from ..mpisim.comm import SimComm
from ..mpisim.grid import block_bounds
from ..mpisim.tracker import CommTracker, StageTimer
from ..seqs.fasta import ReadSet
from ..seqs.kmer_counter import count_kmers, reliable_upper_bound
from ..seqs.kmers import canonical_kmers, pack_kmers, splitmix64

__all__ = ["Dibella1DResult", "run_dibella1d"]


@dataclass
class Dibella1DResult:
    """Outcome of the 1D pipeline (overlap detection only, no TR)."""

    n_reads: int
    n_kmers: int
    n_candidate_pairs: int
    n_overlaps: int
    timer: StageTimer
    tracker: CommTracker

    def modeled_time(self, machine, include_alignment: bool = True
                     ) -> dict[str, float]:
        """Per-stage modeled runtime (compute·scale + α–β comm)."""
        out: dict[str, float] = {}
        for stage in ("ReadFastq", "CountKmer", "Overlap1D", "ExchangeRead1D",
                      "Alignment"):
            if not include_alignment and stage == "Alignment":
                continue
            comp = self.timer.stage_seconds.get(stage, 0.0)
            comm = self.tracker.stage_comm_time(stage, machine)
            total = comp * machine.compute_scale + comm
            if total > 0.0:
                out[stage] = total
        return out

    def modeled_total(self, machine, include_alignment: bool = True) -> float:
        return sum(self.modeled_time(machine, include_alignment).values())


def run_dibella1d(reads: ReadSet, k: int = 17, nprocs: int = 1, *,
                  align_mode: str = "xdrop", scoring: Scoring | None = None,
                  filt: AlignmentFilter | None = None, fuzz: int = 100,
                  depth_hint: float = 30.0, error_hint: float = 0.15,
                  kmer_upper: int | None = None,
                  backend: Backend | str | None = None) -> Dibella1DResult:
    """Run the 1D overlap-detection pipeline (Fig. 9's comparator).

    ``backend`` selects the local sparse kernels used for each owner's
    outer product (the expansion primitive shared with the 2D SpGEMM).
    """
    scoring = scoring if scoring is not None else Scoring()
    filt = filt if filt is not None else AlignmentFilter()
    backend = get_backend(backend)
    tracker = CommTracker(nprocs)
    comm = SimComm(nprocs, tracker)
    timer = StageTimer()
    P = nprocs

    upper = kmer_upper if kmer_upper is not None else \
        reliable_upper_bound(depth_hint, error_hint, k)
    table = count_kmers(reads, k, comm, timer, upper=upper)

    n = len(reads)
    stage = "Overlap1D"

    # Build the k-mer owners' posting lists (owner = hash(kmer) mod P):
    # arrays of (kmer column, read, pos, flip), vectorized per source rank.
    # The shipping of these postings shares the counting pass's exchange.
    owner = (splitmix64(table.kmers) % np.uint64(P)).astype(np.int64)
    read_bounds = block_bounds(n, P)
    post_cols: list[np.ndarray] = []
    post_reads: list[np.ndarray] = []
    post_pos: list[np.ndarray] = []
    post_flip: list[np.ndarray] = []
    with timer.superstep(stage) as step:
        for p in range(P):
            with step.rank(p):
                for gi in range(int(read_bounds[p]), int(read_bounds[p + 1])):
                    codes = reads[gi]
                    fwd = pack_kmers(codes, k)
                    if fwd.shape[0] == 0:
                        continue
                    canon = canonical_kmers(fwd, k)
                    col = table.lookup(canon)
                    ok = col >= 0
                    if not ok.any():
                        continue
                    pos = np.flatnonzero(ok)
                    col = col[ok]
                    flip = (canon[ok] != fwd[ok]).astype(np.int64)
                    _, first = np.unique(col, return_index=True)
                    post_cols.append(col[first])
                    post_reads.append(np.full(first.shape[0], gi, np.int64))
                    post_pos.append(pos[first])
                    post_flip.append(flip[first])

    if post_cols:
        cols = np.concatenate(post_cols)
        rds = np.concatenate(post_reads)
        poss = np.concatenate(post_pos)
        flips = np.concatenate(post_flip)
    else:
        cols = rds = poss = flips = np.empty(0, np.int64)

    # Local outer product at each owner: all read pairs sharing a k-mer.
    # Each owner's postings form a reads × k-mers block A_q, and the pairs
    # are the expansion half of the semiring SpGEMM A_q·A_qᵀ — the same
    # backend kernel the 2D pipeline multiplies with, but *without* the
    # compress step: every per-k-mer duplicate ships, which is exactly the
    # 1D algorithm's a²m/P candidate volume that must then be reduced.
    empty_payload = np.empty((0, 5), dtype=np.int64)
    pair_send: list[list[np.ndarray]] = [[empty_payload for _ in range(P)]
                                         for _ in range(P)]
    m = len(table)
    with timer.superstep(stage) as step:
        for q in range(P):
            with step.rank(q):
                mine = owner[cols] == q
                if not mine.any():
                    continue
                Aq = CooMat((n, m), rds[mine], cols[mine],
                            np.stack([poss[mine], flips[mine]], axis=1))
                Atq = Aq.T
                a_idx, b_at = backend.expand(Aq, Atq)
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

    candidates: list[dict[tuple[int, int], tuple[int, int, int]]] = []
    with timer.superstep(stage) as step:
        for p in range(P):
            with step.rank(p):
                arrs = [a for a in recv[p]
                        if a is not None and a.shape[0] > 0]
                table_p: dict[tuple[int, int], tuple[int, int, int]] = {}
                if arrs:
                    allp = np.vstack(arrs)
                    keys = allp[:, 0] * np.int64(n) + allp[:, 1]
                    _, first = np.unique(keys, return_index=True)
                    uniq = allp[first]
                    table_p = {(int(a), int(b)): (int(x), int(y), int(s))
                               for a, b, x, y, s in uniq}
                candidates.append(table_p)

    n_pairs = sum(len(c) for c in candidates)

    # Read exchange: an alignment task sits at the row owner of read i,
    # which owns i but may lack j — at most one read per nonzero (W=cnl/P).
    ex_stage = "ExchangeRead1D"
    lengths = reads.lengths
    for p in range(P):
        lo, hi = int(read_bounds[p]), int(read_bounds[p + 1])
        needed_j = {rj for (_, rj) in candidates[p] if not lo <= rj < hi}
        # Aggregate per source rank: one message per (src -> p) pair with
        # all its reads batched (Table I's Y = min{cnl/P, P}).
        per_src: dict[int, int] = {}
        for rj in needed_j:
            src = int(np.searchsorted(read_bounds, rj, side="right")) - 1
            per_src[src] = per_src.get(src, 0) + int(lengths[rj])
        for src, nbytes in per_src.items():
            comm.tracker.record(ex_stage, src, nbytes, 1)

    # Alignment (same kernel as 2D).
    n_overlaps = 0
    with timer.superstep("Alignment") as step:
        for p in range(P):
            with step.rank(p):
                for (ri, rj), (pi, pj, s) in candidates[p].items():
                    cval = np.full(7, -1, dtype=np.int64)
                    cval[C_PA1], cval[C_PB1], cval[C_STRAND1] = pi, pj, s
                    res = _align_one(reads, ri, rj, cval, k, align_mode,
                                     scoring)
                    if res is None:
                        continue
                    olen = res.ea - res.ba
                    if not filt.passes(res.score, olen):
                        continue
                    oc = classify_overlap(reads[ri].shape[0],
                                          reads[rj].shape[0], res, fuzz)
                    if oc.kind == "dovetail":
                        n_overlaps += 1

    return Dibella1DResult(n_reads=n, n_kmers=len(table),
                           n_candidate_pairs=n_pairs, n_overlaps=n_overlaps,
                           timer=timer, tracker=tracker)
