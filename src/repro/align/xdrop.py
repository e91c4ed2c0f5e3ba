"""Seed-and-extend x-drop pairwise alignment.

diBELLA 2D runs a seed-and-extend alignment (SeqAn's x-drop) on every
candidate pair from ``C`` (paper Section IV-D): starting from a shared k-mer
seed, extend left and right with banded dynamic programming and stop a
direction once its running best score drops more than ``x`` below the best
seen.  The returned score and updated coordinates feed the score threshold
prune and, crucially, the overhang/orientation computation of the transitive
reduction.

The DP here processes one antidiagonal at a time as a numpy vector over the
surviving cell window, so cost is O(extension · band) with no Python-level
cell loop.  A cheap *chain* mode (:func:`chain_extend`) estimates
coordinates from the seed diagonal alone — the same role minimap2's
alignment-free scoring plays — and is the default for the large benchmark
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Scoring", "AlignmentResult", "xdrop_extend", "seed_extend_align",
           "chain_extend", "LV_NEG", "SNAKE_CHUNK"]

#: "Dead cell" sentinel of the greedy LV engine below: far below any
#: reachable furthest point or match count, far above int64 overflow even
#: after the recurrence adds small offsets.  (The batched engine,
#: :mod:`repro.align.batch`, packs its cells differently and has its own.)
LV_NEG = np.int64(-(2 ** 50))

#: Characters compared per snake-slide gulp of the engine below (the
#: batched engine compares one 8-base machine word at a time instead).
SNAKE_CHUNK = 16


@dataclass(frozen=True)
class Scoring:
    """Alignment scoring scheme (defaults follow BELLA: 1/-1/-1, x=50)."""

    match: int = 1
    mismatch: int = -1
    gap: int = -1
    xdrop: int = 50


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

    This is the fast engine: a greedy furthest-reaching diagonal scheme
    (Landau–Vishkin / Myers O(ND)) where iteration ``e`` advances every live
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
