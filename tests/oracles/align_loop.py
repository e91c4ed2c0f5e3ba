"""The per-pair alignment engine: the reference the batched one must equal.

One candidate pair at a time, as the paper states the APPLY on C
(Section IV-D): a greedy Landau–Vishkin x-drop extension vectorized over
one pair's diagonals (:func:`xdrop_extend`), seed-and-extend on both sides
of a seed (:func:`seed_extend_align`), the alignment-free chain estimate
(:func:`chain_extend`), the scalar overlap classifier
(:func:`classify_overlap`), and :func:`align_candidates_loop`, which runs
them as one executor task per C nonzero and builds R.  The runtime engine
(:func:`repro.core.overlap.align_candidates` over :mod:`repro.align.batch`)
must produce the same R, byte for byte; ``tests/test_align_batch.py`` pins
that.  Test-only: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.overlapper import B_END, E_END
from repro.align.xdrop import Scoring
from repro.core.memory import coo_nbytes
from repro.core.overlap import (AlignmentFilter, _dedup_second_seeds,
                                _gather_pairs)
from repro.core.semirings import (C_PA1, C_PA2, C_PB1, C_PB2, C_STRAND1,
                                  C_STRAND2, R_CONTAINED, R_CONTAINS,
                                  R_NFIELDS, R_NO_END)
from repro.dsparse.distmat import DistMat
from repro.exec import SERIAL
from repro.mpisim.tracker import StageTimer


# -- x-drop extension and the chain estimate ---------------------------------

#: "Dead cell" sentinel of the greedy LV engine below: far below any
#: reachable furthest point or match count, far above int64 overflow even
#: after the recurrence adds small offsets.  (The batched engine,
#: :mod:`repro.align.batch`, packs its cells differently and has its own.)
LV_NEG = np.int64(-(2 ** 50))

#: Characters compared per snake-slide gulp of the engine below (the
#: batched engine compares one 8-base machine word at a time instead).
SNAKE_CHUNK = 16


@dataclass
class AlignmentResult:
    """Outcome of a seed-and-extend alignment of reads *a* and *b*.

    ``(ba, ea)`` / ``(bb, eb)`` are the half-open aligned ranges on *a* and
    on the *oriented* *b* (reverse-complemented when ``strand == 1``).
    """

    score: int
    ba: int
    ea: int
    bb: int
    eb: int
    strand: int


def xdrop_extend(s: np.ndarray, t: np.ndarray, sc: Scoring
                 ) -> tuple[int, int, int]:
    """Extend an alignment from position 0 of both sequences, rightward.

    Returns ``(best_score, ext_s, ext_t)``: the best score over all
    alignments starting at the origin and the extension lengths on ``s`` and
    ``t`` achieving it.  Diagonals whose running score falls below
    ``best - xdrop`` are pruned; the scan ends when no diagonal survives.

    A greedy furthest-reaching diagonal scheme (Landau–Vishkin / Myers
    O(ND)) where iteration ``e`` advances every live
    diagonal by one edit and then slides its exact-match snake, all
    vectorized across diagonals.  For the unit scoring scheme
    (match ≥ 0 ≥ mismatch/gap) the greedy furthest points dominate, so the
    returned score matches an exact antidiagonal DP of the same objective.
    """
    return _xdrop_extend_lv(s, t, sc)


def _slide_snakes(s: np.ndarray, t: np.ndarray, F: np.ndarray,
                  diag: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Advance furthest points along exact-match runs, vectorized.

    ``F[d]`` is the furthest ``i`` on diagonal ``diag[d]`` (``j = i - diag``).
    Compares ``SNAKE_CHUNK`` characters at a time for all live diagonals;
    only diagonals that matched a full chunk iterate again, so the expected
    number of rounds is the longest snake / chunk.
    """
    m, n = s.shape[0], t.shape[0]
    ext = np.zeros_like(F)
    active = live.copy()
    offs = np.arange(SNAKE_CHUNK, dtype=np.int64)
    while active.any():
        idx = np.flatnonzero(active)
        i0 = F[idx] + ext[idx]
        j0 = i0 - diag[idx]
        # Remaining run room on each diagonal.
        room = np.minimum(m - i0, n - j0)
        cap = np.minimum(room, SNAKE_CHUNK)
        si = np.minimum(i0[:, None] + offs, m - 1)
        tj = np.minimum(j0[:, None] + offs, n - 1)
        eq = (s[si] == t[tj]) & (offs < cap[:, None])
        # Length of the leading all-match run within the chunk.
        run = np.where(eq.all(axis=1), cap,
                       np.argmin(np.where(offs < cap[:, None], eq, False),
                                 axis=1))
        # argmin on an all-False row returns 0, which is correct (no match).
        run = np.where(cap > 0, run, 0)
        ext[idx] += run
        cont = (run == SNAKE_CHUNK) & (room > SNAKE_CHUNK)
        active[:] = False
        active[idx[cont]] = True
    return ext


def _xdrop_extend_lv(s: np.ndarray, t: np.ndarray, sc: Scoring
                     ) -> tuple[int, int, int]:
    """Greedy O(ND) x-drop extension (see :func:`xdrop_extend`)."""
    m, n = int(s.shape[0]), int(t.shape[0])
    if m == 0 or n == 0:
        return 0, 0, 0
    NEG = LV_NEG
    # Diagonal window [dlo, dhi] (d = i - j), arrays indexed d - dlo.
    dlo = dhi = 0
    F = np.array([0], dtype=np.int64)      # furthest i per diagonal
    M = np.array([0], dtype=np.int64)      # matches along that path
    diag = np.array([0], dtype=np.int64)
    live = np.array([True])
    ext = _slide_snakes(s, t, F, diag, live)
    F = F + ext
    M = M + ext
    best = int(M[0]) * sc.match
    best_i, best_j = int(F[0]), int(F[0])
    if F[0] >= m or F[0] >= n:
        return best, best_i, best_j
    max_edits = m + n
    for _e in range(1, max_edits + 1):
        # Grow the window by one diagonal on each side.
        dlo -= 1
        dhi += 1
        size = dhi - dlo + 1
        diag = np.arange(dlo, dhi + 1, dtype=np.int64)
        Fp = np.full(size, NEG, dtype=np.int64)
        Mp = np.full(size, NEG, dtype=np.int64)
        Fp[1:-1] = F
        Mp[1:-1] = M
        # Candidates: substitution (same d, i+1), insertion in s (from d-1,
        # i+1), deletion (from d+1, i unchanged).  Manual 3-way max keeps the
        # M values paired with their F winners without argmax/gather.
        f_sub = Fp + 1
        f_ins = np.empty_like(Fp); f_ins[0] = NEG; f_ins[1:] = Fp[:-1] + 1
        f_del = np.empty_like(Fp); f_del[-1] = NEG; f_del[:-1] = Fp[1:]
        m_ins = np.empty_like(Mp); m_ins[0] = NEG; m_ins[1:] = Mp[:-1]
        m_del = np.empty_like(Mp); m_del[-1] = NEG; m_del[:-1] = Mp[1:]
        F = f_sub
        M = Mp.copy()
        take = f_ins > F
        F = np.where(take, f_ins, F)
        M = np.where(take, m_ins, M)
        take = f_del > F
        F = np.where(take, f_del, F)
        M = np.where(take, m_del, M)
        # Bounds: i <= m and j = i - d <= n; kill out-of-range diagonals.
        jv = F - diag
        valid = (F >= 0) & (F <= m) & (jv >= 0) & (jv <= n) & (M > NEG // 2)
        F = np.where(valid, F, NEG)
        live = valid.copy()
        if live.any():
            ext = _slide_snakes(s, t, np.where(live, F, 0), diag, live)
            F = np.where(live, F + ext, F)
            M = np.where(live, M + ext, M)
        # Score = matches·match + edits·penalty (every edit is one mismatch
        # or one gap; with equal penalties the score is exact, otherwise a
        # lower bound using the worse penalty).
        penalty = min(sc.mismatch, sc.gap)
        scores = np.where(live, M * sc.match + _e * penalty, NEG)
        sbest = int(scores.max(initial=NEG))
        if sbest > best:
            # Tie-break equal scores toward the farthest-reaching cell
            # (largest i + j), matching the exact DP's endpoint choice.
            ties = np.flatnonzero(scores == sbest)
            reach = 2 * F[ties] - diag[ties]
            kbest = int(ties[int(np.argmax(reach))])
            best = sbest
            best_i = int(F[kbest])
            best_j = int(F[kbest] - diag[kbest])
        # X-drop prune.
        live &= scores >= best - sc.xdrop
        if not live.any():
            break
        F = np.where(live, F, NEG)
        M = np.where(live, M, NEG)
        # Shrink the window to the live span to keep iterations cheap.
        alive_idx = np.flatnonzero(live)
        lo, hi = int(alive_idx[0]), int(alive_idx[-1])
        F = F[lo:hi + 1]
        M = M[lo:hi + 1]
        dlo, dhi = dlo + lo, dlo + hi
        # Reached an end of either sequence on every live diagonal: the
        # x-drop will terminate shortly; rely on bounds pruning above.
    return best, best_i, best_j


def seed_extend_align(a: np.ndarray, b: np.ndarray, seed_a: int, seed_b: int,
                      k: int, strand: int, sc: Scoring | None = None
                      ) -> AlignmentResult:
    """Full seed-and-extend alignment of reads ``a`` and ``b``.

    ``seed_a``/``seed_b`` are the seed k-mer start positions on ``a`` and on
    the **forward** ``b``; when ``strand == 1`` the function orients ``b`` by
    reverse complement (and maps the seed) before extending both directions.
    """
    sc = sc if sc is not None else Scoring()
    if strand:
        b = (np.uint8(3) - b)[::-1]
        seed_b = b.shape[0] - k - seed_b
    # Seed score: count matches inside the seed (should be k for exact seeds).
    seg_a = a[seed_a:seed_a + k]
    seg_b = b[seed_b:seed_b + k]
    kl = min(seg_a.shape[0], seg_b.shape[0])
    seed_score = int((seg_a[:kl] == seg_b[:kl]).sum()) * sc.match
    # Right extension from the seed end.
    r_score, r_ea, r_eb = xdrop_extend(a[seed_a + k:], b[seed_b + k:], sc)
    # Left extension: reverse the prefixes.
    l_score, l_ea, l_eb = xdrop_extend(a[:seed_a][::-1], b[:seed_b][::-1], sc)
    return AlignmentResult(
        score=seed_score + r_score + l_score,
        ba=seed_a - l_ea, ea=seed_a + k + r_ea,
        bb=seed_b - l_eb, eb=seed_b + k + r_eb,
        strand=strand)


def chain_extend(a_len: int, b_len: int, seed_a: int, seed_b: int, k: int,
                 strand: int, identity: float = 0.85) -> AlignmentResult:
    """Alignment-free coordinate estimate from the seed diagonal.

    Projects the seed's diagonal to the read ends: the implied aligned range
    is the maximal co-linear extension, and the score is the implied overlap
    length scaled by an identity estimate.  This is the minimap2-style
    shortcut (no base-level alignment) and the fast mode for large runs.
    """
    sb = b_len - k - seed_b if strand else seed_b
    left = min(seed_a, sb)
    right = min(a_len - seed_a, b_len - sb)
    ba, bb = seed_a - left, sb - left
    ea, eb = seed_a + right, sb + right
    score = int((ea - ba) * max(0.0, 2.0 * identity - 1.0))
    return AlignmentResult(score=score, ba=ba, ea=ea, bb=bb, eb=eb,
                           strand=strand)


# -- overlap classification -------------------------------------------------

@dataclass
class OverlapClass:
    """Classified overlap between reads *i* and *j*.

    Attributes
    ----------
    kind:
        ``"dovetail"``, ``"contained_i"``, ``"contained_j"`` or ``"internal"``
        (an alignment that stops mid-read on both sides — a false or broken
        overlap that the pipeline discards).
    suffix_ij / suffix_ji:
        Overhang length walking i→j and j→i (valid for dovetails).
    end_i / end_j:
        End attachments (0 = Begin, 1 = End) of the edge at *i* and *j*.
    overlap_len:
        Aligned span on read *i* (proxy for overlap length).
    """

    kind: str
    suffix_ij: int = 0
    suffix_ji: int = 0
    end_i: int = 0
    end_j: int = 0
    overlap_len: int = 0


def classify_overlap(len_i: int, len_j: int, aln: AlignmentResult,
                     fuzz: int = 100) -> OverlapClass:
    """Classify an alignment into a dovetail/contained/internal overlap.

    ``aln`` coordinates refer to read *i* (``ba..ea``) and the *oriented*
    read *j* (``bb..eb``; already reverse-complemented when
    ``aln.strand == 1``).  ``fuzz`` tolerates unaligned read tips caused by
    sequencing errors (same role as the paper's scalar ``x``).
    """
    left_i = aln.ba
    right_i = len_i - aln.ea
    left_j = aln.bb
    right_j = len_j - aln.eb
    overlap_len = aln.ea - aln.ba

    i_contained = left_i <= fuzz and right_i <= fuzz
    j_contained = left_j <= fuzz and right_j <= fuzz
    if i_contained and j_contained:
        # Near-equal reads: call the shorter one contained.
        if len_i <= len_j:
            return OverlapClass("contained_i", overlap_len=overlap_len)
        return OverlapClass("contained_j", overlap_len=overlap_len)
    if i_contained:
        return OverlapClass("contained_i", overlap_len=overlap_len)
    if j_contained:
        return OverlapClass("contained_j", overlap_len=overlap_len)

    if left_i >= left_j and right_j >= right_i:
        # i sticks out left, oriented-j sticks out right: i comes first.
        if left_j > fuzz or right_i > fuzz:
            return OverlapClass("internal", overlap_len=overlap_len)
        suffix_ij = max(1, right_j - right_i)
        suffix_ji = max(1, left_i - left_j)
        end_i = E_END
        end_j = B_END if aln.strand == 0 else E_END
        return OverlapClass("dovetail", suffix_ij, suffix_ji, end_i, end_j,
                            overlap_len)
    if left_j >= left_i and right_i >= right_j:
        # Oriented-j comes first.
        if left_i > fuzz or right_j > fuzz:
            return OverlapClass("internal", overlap_len=overlap_len)
        suffix_ij = max(1, left_j - left_i)
        suffix_ji = max(1, right_i - right_j)
        end_i = B_END
        end_j = E_END if aln.strand == 0 else B_END
        return OverlapClass("dovetail", suffix_ij, suffix_ji, end_i, end_j,
                            overlap_len)
    return OverlapClass("internal", overlap_len=overlap_len)


# -- R from C, one executor task per candidate pair --------------------------

def align_one(reads, gi: int, gj: int, cval: np.ndarray, k: int, mode: str,
              scoring: Scoring) -> AlignmentResult | None:
    """Align one candidate pair using its stored seeds (best of up to two)."""
    a, b = reads[gi], reads[gj]
    best: AlignmentResult | None = None
    seeds = [(int(cval[C_PA1]), int(cval[C_PB1]), int(cval[C_STRAND1]))]
    if cval[C_PA2] >= 0:
        seeds.append((int(cval[C_PA2]), int(cval[C_PB2]),
                      int(cval[C_STRAND2])))
    for pa, pb, strand in seeds:
        if mode == "chain":
            res = chain_extend(a.shape[0], b.shape[0], pa, pb, k, strand)
        else:
            res = seed_extend_align(a, b, pa, pb, k, strand, scoring)
        if best is None or res.score > best.score:
            best = res
    return best


def align_task(ctx, task):
    """Executor task: align one candidate pair, filter, classify.

    Returns the two directed R payload rows ``(gi, gj)`` and ``(gj, gi)`` of
    a surviving dovetail or containment overlap, or ``None`` for pairs
    pruned by score or classified internal.
    """
    reads, k, mode, scoring, filt, fuzz = ctx
    gi, gj, cval = task
    res = align_one(reads, gi, gj, cval, k, mode, scoring)
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


def align_candidates_loop(C: DistMat, reads, k: int, comm,
                          timer: StageTimer | None = None, *,
                          mode: str = "xdrop",
                          scoring: Scoring | None = None,
                          filt: AlignmentFilter | None = None,
                          fuzz: int = 100, executor=None,
                          col_offset: int = 0) -> DistMat:
    """:func:`repro.core.overlap.align_candidates`, one task per pair.

    The same pair gathering and second-seed dedup as the runtime, then one
    executor task per candidate pair (weighted by the two read lengths,
    charged to the owning rank exactly); survivors are appended in C's
    canonical block/entry order.  Records no kernel counters.
    """
    timer = timer if timer is not None else StageTimer()
    scoring = scoring if scoring is not None else Scoring()
    filt = filt if filt is not None else AlignmentFilter()
    executor = executor if executor is not None else SERIAL
    stage = "Alignment"
    n = C.shape[0]
    lengths = reads.lengths
    gi, gj, cvals, ranks, weights = _gather_pairs(C, lengths, col_offset)
    cvals = _dedup_second_seeds(cvals, lengths[gj], k, mode)
    tasks = list(zip(gi.tolist(), gj.tolist(), cvals))
    ctx = (reads, k, mode, scoring, filt, fuzz)
    with timer.superstep(stage) as step:
        results, secs = executor.run_timed(align_task, tasks, context=ctx,
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
        row = np.array(rows, dtype=np.int64)
        col = np.array(cols, dtype=np.int64)
        vals = np.array(val_rows, dtype=np.int64)
    else:
        row, col = np.empty(0, np.int64), np.empty(0, np.int64)
        vals = np.empty((0, R_NFIELDS), np.int64)
    timer.record_peak_bytes(stage, coo_nbytes(row.shape[0], R_NFIELDS))
    return DistMat.from_coo((n, n), C.grid, row, col, vals)
