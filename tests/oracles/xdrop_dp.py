"""Exact antidiagonal-DP x-drop extension: the reference oracle the greedy
Landau–Vishkin engines (:func:`repro.align.xdrop.xdrop_extend` and the
batched sweep) are checked against.  Test-only: nothing under ``src/``
imports it."""

from __future__ import annotations

import numpy as np

from repro.align.xdrop import Scoring

_NEG = np.int64(-(2 ** 40))


def xdrop_extend_dp(s: np.ndarray, t: np.ndarray, sc: Scoring
                    ) -> tuple[int, int, int]:
    """Exact antidiagonal DP x-drop extension (reference oracle).

    Same contract as :func:`repro.align.xdrop.xdrop_extend`; O(len·band)
    with a Python-level antidiagonal loop.
    """
    m, n = s.shape[0], t.shape[0]
    if m == 0 or n == 0:
        return 0, 0, 0
    best = 0
    best_i = 0
    best_d = 0
    # Window of surviving i values on the current antidiagonal d (= i + j).
    lo, hi = 0, 0  # inclusive bounds of i on antidiag d
    prev = np.zeros(1, dtype=np.int64)          # scores on antidiag d
    prev2 = np.empty(0, dtype=np.int64)         # scores on antidiag d-1
    plo, p2lo = 0, 0
    d = 0
    while True:
        d += 1
        nlo = max(lo, d - n)       # j = d - i <= n
        nhi = min(hi + 1, m)       # i <= m
        if nlo > nhi:
            break
        size = nhi - nlo + 1
        cand = np.full(size, _NEG, dtype=np.int64)
        ii = np.arange(nlo, nhi + 1, dtype=np.int64)

        # Gap from (d-1, i): consume t char (j grows).
        src = ii - plo
        okg = (src >= 0) & (src < prev.shape[0]) & (ii <= m) & (d - ii >= 1)
        np.maximum(cand, np.where(okg, prev[np.clip(src, 0, prev.shape[0] - 1)]
                                  + sc.gap, _NEG), out=cand)
        # Gap from (d-1, i-1): consume s char.
        src = ii - 1 - plo
        okg = (src >= 0) & (src < prev.shape[0]) & (ii >= 1)
        np.maximum(cand, np.where(okg, prev[np.clip(src, 0, prev.shape[0] - 1)]
                                  + sc.gap, _NEG), out=cand)
        # Diagonal from (d-2, i-1): consume one char of each.
        if d >= 2 and prev2.shape[0]:
            src = ii - 1 - p2lo
            okd = (src >= 0) & (src < prev2.shape[0]) & (ii >= 1) & (d - ii >= 1)
            si = np.clip(ii - 1, 0, m - 1)
            tj = np.clip(d - ii - 1, 0, n - 1)
            sub = np.where(s[si] == t[tj], sc.match, sc.mismatch)
            np.maximum(cand, np.where(
                okd, prev2[np.clip(src, 0, prev2.shape[0] - 1)] + sub, _NEG),
                out=cand)
        elif d == 1:
            pass  # only gap moves from the origin

        # Base case for d == 1 handled by gap moves from prev=[0].
        dbest = int(cand.max(initial=_NEG))
        if dbest > best:
            k = int(cand.argmax())
            best = dbest
            best_i = nlo + k
            best_d = d
        # X-drop prune.
        alive = cand >= best - sc.xdrop
        if not alive.any():
            break
        first = int(np.argmax(alive))
        last = size - 1 - int(np.argmax(alive[::-1]))
        prev2, p2lo = prev, plo
        prev = cand[first:last + 1]
        plo = nlo + first
        lo, hi = nlo + first, nlo + last
        if lo > m or (d - hi) > n:
            break
    return best, best_i, best_d - best_i
