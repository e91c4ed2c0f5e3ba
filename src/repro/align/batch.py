"""Batched structure-of-arrays x-drop alignment engine.

:mod:`repro.align.xdrop` vectorizes one pair's extension over its *diagonals*
— which still leaves the pipeline issuing one Python call (and dozens of tiny
numpy kernels) per candidate pair.  This module adds the second vectorization
axis: every function here operates on **whole batches of extension problems
at once**, advancing all of them in lockstep so each edit round is a fixed
number of flat kernel calls instead of thousands of small ones.

Sequences are never copied or padded per problem.  A batch references one
shared ``codes`` buffer (all reads concatenated, one 2-bit code per *byte*)
through structure-of-arrays views: per problem a base offset, a step (``+1``
forward, ``-1`` for the reversed prefixes of left extensions), a length, and
an XOR mask (``3`` complements a 2-bit DNA code, so reverse-complemented
sequences are plain backward reads of the forward buffer — no oriented copy
is materialized).

The sweep mirrors :func:`repro.align.xdrop.xdrop_extend` *exactly* — the same
greedy Landau–Vishkin recurrence, score, tie-break and x-drop rules — but its
cost follows the cells that are alive, not a bounding box:

* **Ragged state.**  Every problem keeps its own diagonal span
  ``[lo_p, hi_p]``; the spans sit back to back in one flat array
  (CSR-style), each flanked by a dead cell, so the three-way recurrence is
  two whole-array shifted maxima and the flanks are where each span grows
  by one diagonal per round.  Spans are trimmed and problems retired per
  problem every round: a wide problem costs its own width only.
* **One word per cell.**  A cell is ``F·2**32 + M`` (furthest ``i`` on the
  diagonal, matches on that path; both below ``2**30``) with the
  recurrence's preference order (substitution, insertion, deletion) in the
  two bits between them — a plain ``max`` of the three shifted candidates
  picks the winning ``F`` *and* carries its ``M``, with the serial engine's
  strictly-greater tie rule, without a select.
* **Word-at-a-time snakes.**  Because ``codes`` holds one base per byte, an
  overlapping ``strides=(1,)`` ``uint64`` view of it yields the next eight
  bases of any walk in one load (byte-swapped for a ``step = -1`` walk);
  the run of matches is the index of the lowest non-zero byte of the XOR
  of the two words, clipped to the room left.  Only cells that match a
  whole word load another.

The per-pair path stays the reference oracle behind the ``align_impl`` axis
(:data:`repro.options.ALIGN_IMPL`), and the parity suite pins byte-identical
results between the two.
"""

from __future__ import annotations

import numpy as np

from ..mpisim.tracker import add_work
from .xdrop import Scoring

__all__ = [
    "xdrop_extend_batch", "extend_seeds_xdrop_batch", "chain_extend_batch",
]

#: Bases per snake step: one 64-bit load off the byte-per-base buffer.
_WORD = 8
_BYTE_ONES = np.uint64(0x0101010101010101)

#: Cell word layout: ``F`` from bit 32 up, ``M`` in bits 0–29, the
#: recurrence's candidate rank in bits 30–31 (zero in stored state).
_F_SHIFT = 32
_FIELD_LIMIT = 1 << 30
_M_MASK = _FIELD_LIMIT - 1
_SUB = (1 << _F_SHIFT) + (2 << 30)      # same diagonal: i + 1, ranks first
_INS = (1 << _F_SHIFT) + (1 << 30)      # from diagonal d - 1: i + 1
_STATE = ~(3 << 30)                     # clears the rank bits
_RUN = (1 << _F_SHIFT) + 1              # a snake advances F and M together
#: Dead cell — this engine's own sentinel (the serial engine's ``LV_NEG`` is
#: a different value): stays negative under ``+ _SUB`` and loses every max.
_DEAD = -(1 << 62)
#: Score of a dead cell (below every real one) / a score no cell has.
_NO_SCORE = _DEAD
_NEVER = 1 << 62


def _word_view(codes: np.ndarray) -> np.ndarray:
    """``view[a]`` = the eight bytes ``codes[a:a + 8]`` as one little-endian
    word, for every ``a`` that fits — overlapping strides, no copy, so it
    works on a read-only memmap.  (Only a buffer shorter than one word is
    copied, into one zero-padded word.)"""
    if codes.dtype != np.uint8:
        raise ValueError(f"codes must be uint8 (one base per byte), "
                         f"got {codes.dtype}")
    codes = np.ascontiguousarray(codes)
    if codes.shape[0] < _WORD:
        codes = np.concatenate(
            [codes, np.zeros(_WORD - codes.shape[0], np.uint8)])
    return np.ndarray((codes.shape[0] - _WORD + 1,), dtype="<u8",
                      buffer=codes, strides=(1,))


def _load(words: np.ndarray, at: np.ndarray, back: np.ndarray) -> np.ndarray:
    """The word whose lowest byte is each walk's next base.

    ``at`` is the address of the lowest-addressed byte wanted: the next
    base itself for a forward walk, seven below it for a backward one
    (``back``), whose word is byte-swapped into walk order.  A word that
    would reach outside the buffer is loaded from the nearest address
    inside it and shifted so the next base is still its lowest byte; the
    bytes shifted in lie beyond the walk's room, which the caller clips to.
    """
    top = words.shape[0] - 1
    inside = at.min() >= 0 and at.max() <= top
    # Fancy indexing reads the unaligned view element by element
    # (``take`` would first copy all of it into an aligned array).
    w = words[at if inside else np.clip(at, 0, top)]
    np.copyto(w, w.byteswap(), where=back)
    if not inside:
        out = np.flatnonzero((at < 0) | (at > top))
        far = np.maximum(-at[out], at[out] - top)
        w[out] >>= (far << 3).astype(np.uint64)
    return w


def _slide_words(words: np.ndarray, s_at: np.ndarray, s_step: np.ndarray,
                 t_at: np.ndarray, t_step: np.ndarray, t_xor: np.ndarray,
                 room: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact-match run length of every cell, eight bases per compare.

    ``s_at`` / ``t_at`` are :func:`_load` addresses of each cell's next
    base on ``s`` / ``t``, ``t_xor`` the strand mask repeated in every byte
    and ``room`` the bases left before either sequence ends.  Returns the
    runs and the number of word compares made; only cells that matched a
    whole word with room to spare compare another.
    """
    s_back = s_step < 0
    t_back = t_step < 0
    run = act = None
    n_words = 0
    while True:
        n_words += s_at.shape[0]
        x = _load(words, s_at, s_back)
        x ^= _load(words, t_at, t_back)
        x ^= t_xor
        # Matched bases = index of the lowest non-zero byte (8 when x == 0):
        # mask the bits below the lowest set one, then count the bytes the
        # mask fills (their top bits, summed into the top byte).
        x = ~x & (x - np.uint64(1))
        x >>= np.uint64(7)
        x &= _BYTE_ONES
        x *= _BYTE_ONES
        x >>= np.uint64(56)
        got = np.minimum(x.astype(np.int64), room)
        if act is None:
            run = got
        else:
            run[act] += got
        more = np.flatnonzero((got == _WORD) & (room > _WORD))
        if more.size == 0:
            return run, n_words
        act = more if act is None else act[more]
        s_step, t_step, s_back, t_back, t_xor = (
            col[more] for col in (s_step, t_step, s_back, t_back, t_xor))
        s_at = s_at[more] + _WORD * s_step
        t_at = t_at[more] + _WORD * t_step
        room = room[more] - _WORD


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal ``keys``."""
    return np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))


def xdrop_extend_batch(codes: np.ndarray,
                       s_base: np.ndarray, s_step: np.ndarray,
                       s_len: np.ndarray,
                       t_base: np.ndarray, t_step: np.ndarray,
                       t_len: np.ndarray, t_xor: np.ndarray,
                       sc: Scoring, tally: dict | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched greedy x-drop extension: all problems in one lockstep sweep.

    Problem ``p`` extends ``s_p`` against ``t_p`` rightward from the origin,
    where ``s_p[i] = codes[s_base[p] + i·s_step[p]]`` for ``i < s_len[p]``
    and ``t_p[j] = codes[t_base[p] + j·t_step[p]] ^ t_xor[p]``, steps being
    ``+1`` or ``-1`` — the SoA views that make forward suffixes, reversed
    prefixes, and reverse-complemented sequences all zero-copy.  Returns
    per-problem ``(best_score, ext_s, ext_t)`` arrays, each element exactly
    equal to :func:`repro.align.xdrop.xdrop_extend` on the materialized pair.

    ``tally`` (optional dict) accumulates the sweep's exact work, each a sum
    over problems and therefore independent of how problems are batched:
    ``rounds`` (edit rounds, summed over the problems in each),  ``cells``
    (cell words the recurrence stepped: every span plus its two flanks,
    every round) and ``words`` (64-bit snake compares).

    Raises :class:`ValueError` for a problem with ``s_len + t_len >= 2**30``
    (its ``F`` / ``M`` would not fit their cell fields).
    """
    n_prob = int(s_base.shape[0])
    out = np.zeros((3, n_prob), dtype=np.int64)   # best score, ext_s, ext_t
    s_len = np.asarray(s_len, dtype=np.int64)
    t_len = np.asarray(t_len, dtype=np.int64)
    s_step = np.asarray(s_step, dtype=np.int64)
    t_step = np.asarray(t_step, dtype=np.int64)
    if n_prob:
        total = s_len + t_len
        if int(total.max()) >= _FIELD_LIMIT:
            p = int(total.argmax())
            raise ValueError(
                f"xdrop_extend_batch: problem {p} has s_len + t_len = "
                f"{int(total[p])} >= 2**30, beyond the 30-bit cell fields")
        if (np.abs(s_step) != 1).any() or (np.abs(t_step) != 1).any():
            raise ValueError("xdrop_extend_batch: steps must be +1 or -1")
    # Empty-side problems return (0, 0, 0) like the serial engine.
    ids = np.flatnonzero((s_len > 0) & (t_len > 0))
    if ids.size == 0:
        return out[0], out[1], out[2]
    words = _word_view(codes)
    s_step, t_step = s_step[ids], t_step[ids]
    # Per-problem state, one row each so retiring problems is one index:
    # output slot, lengths, _load address of s[0] / t[0], steps, xor word,
    # then the span: diagonal of its first cell and its width.
    prob = np.stack([
        ids, s_len[ids], t_len[ids],
        s_base[ids] - (_WORD - 1) * (s_step < 0), s_step,
        t_base[ids] - (_WORD - 1) * (t_step < 0), t_step,
        (np.asarray(t_xor)[ids].astype(np.uint8) * _BYTE_ONES
         ).view(np.int64),
        np.zeros(ids.size, np.int64), np.ones(ids.size, np.int64)])
    ids, m, n, s_at, s_step, t_at, t_step, t_xor = prob[:8]

    # Round 0: the single seed diagonal, slide its snake; problems that
    # reach an end of either sequence on it are done.
    run, n_words = _slide_words(words, s_at, s_step, t_at, t_step,
                                t_xor.view(np.uint64), np.minimum(m, n))
    out[0, ids] = run * sc.match
    out[1, ids] = out[2, ids] = run
    keep = (run < m) & (run < n)
    prob = prob[:, keep]
    cells = np.full(3 * prob.shape[1], _DEAD, dtype=np.int64)
    cells[1::3] = run[keep] * _RUN
    start = 3 * np.arange(prob.shape[1])
    ramp = np.arange(max(1 << 12, 2 * cells.shape[0]))

    penalty = min(sc.mismatch, sc.gap)
    e = n_rounds = n_cells = 0
    while prob.shape[1]:
        e += 1
        ids, m, n, s_at, s_step, t_at, t_step, t_xor, lo, width = prob
        n_live = ids.shape[0]
        size = cells.shape[0]
        n_rounds += n_live
        n_cells += size
        if size > ramp.shape[0]:
            ramp = np.arange(2 * size)
        pos = ramp[:size]
        # Segment p is [dead | span | dead] at start[p]; this round the
        # flanks become diagonals lo - 1 and hi + 1, so flat position q of
        # problem p is diagonal q + base[p].
        seg = width + 2
        base = lo - 1 - start
        pid = np.repeat(ramp[:n_live], seg)
        # Substitution / insertion / deletion candidates in one max each
        # (see the cell layout above); a flank's outer neighbour is the
        # next segment's dead flank, so the shifts never mix problems.
        nxt = cells + _SUB
        ins = cells + _INS
        np.maximum(nxt[1:], ins[:-1], out=nxt[1:])
        np.maximum(nxt[:-1], cells[1:], out=nxt[:-1])
        # Bounds: i <= m and j = i - d <= n (i >= 0 and j >= 0 hold for
        # every cell descended from the origin).
        f = nxt >> _F_SHIFT
        room = np.minimum(np.repeat(m, seg),
                          np.repeat(n + base, seg) + pos) - f
        valid = (nxt >= 0) & (room >= 0)
        at = np.flatnonzero(valid)
        if at.size:
            i = f[at]
            p = pid[at]
            s_dir = s_step[p]
            t_dir = t_step[p]
            run, more = _slide_words(
                words, s_at[p] + s_dir * i, s_dir,
                (t_at - t_step * base)[p] + t_dir * (i - at), t_dir,
                t_xor.view(np.uint64)[p], room[at])
            n_words += more
            ext = np.zeros(size, dtype=np.int64)
            ext[at] = run
            ext *= _RUN
            nxt += ext
        scores = (nxt & _M_MASK) * sc.match + e * penalty
        np.putmask(scores, ~valid, _NO_SCORE)
        sbest = np.maximum.reduceat(scores, start)
        best = out[0, ids]
        upd = sbest > best
        if upd.any():
            # Tie-break equal scores toward the farthest-reaching cell
            # (largest i + j), first in diagonal order — as the 1D engine.
            # Candidates are few, so rank them with one key per problem.
            cand = np.flatnonzero(
                scores == np.repeat(np.where(upd, sbest, _NEVER), seg))
            cp = pid[cand]
            reach = 2 * (nxt[cand] >> _F_SHIFT) - cand - base[cp]
            heads = _run_heads(cp)
            win = size - np.maximum.reduceat(
                reach * (size + 1) + (size - cand), heads) % (size + 1)
            wp = cp[heads]
            fw = nxt[win] >> _F_SHIFT
            out[0, ids[wp]] = best[wp] = sbest[wp]
            out[1, ids[wp]] = fw
            out[2, ids[wp]] = fw - (win + base[wp])
        # X-drop prune, then trim every span to its live cells; problems
        # with none left retire.  (The serial engine's m + n round budget
        # needs no test: i + j grows every round, so no cell outlives it.)
        live = np.flatnonzero(scores >= np.repeat(best - sc.xdrop, seg))
        if live.size == 0:
            break
        lp = pid[live]
        heads = _run_heads(lp)
        first = live[heads]
        count = np.diff(np.append(heads, live.size))
        alive = lp[heads]
        prob = prob[:, alive]
        prob[-2] = first + base[alive]
        prob[-1] = width = live[heads + count - 1] - first + 1
        # Re-lay the survivors out as [dead | span | dead] segments; cells
        # pruned inside a span stay dead.
        end = np.cumsum(width + 2)
        start = end - (width + 2)
        cells = np.full(int(end[-1]), _DEAD, dtype=np.int64)
        cells[live + np.repeat(start + 1 - first, count)] = \
            nxt[live] & _STATE
    add_work(tally, rounds=n_rounds, cells=n_cells, words=n_words)
    return out[0], out[1], out[2]


def _seed_scores_batch(codes: np.ndarray, a_base: np.ndarray,
                       a_len: np.ndarray, b_base: np.ndarray,
                       b_len: np.ndarray, pa: np.ndarray, pbo: np.ndarray,
                       strand: np.ndarray, k: int, match: int) -> np.ndarray:
    """Matches inside each seed k-mer (× ``match``), vectorized over pairs.

    ``pbo`` is the seed start on the *oriented* ``b``; strand-1 characters
    are read back-to-front off the forward buffer and complemented by XOR.
    Seed windows clipped by a sequence end are scored over the shared prefix,
    exactly like the per-pair engine.
    """
    la = np.clip(a_len - pa, 0, k)
    lb = np.clip(b_len - pbo, 0, k)
    kl = np.minimum(la, lb)
    offs = np.arange(k, dtype=np.int64)
    in_seed = offs[None, :] < kl[:, None]
    ai = np.minimum(pa[:, None] + offs, np.maximum(a_len, 1)[:, None] - 1)
    ach = codes[a_base[:, None] + ai]
    jo = np.minimum(pbo[:, None] + offs, np.maximum(b_len, 1)[:, None] - 1)
    rc = strand[:, None] != 0
    bi = np.where(rc, b_len[:, None] - 1 - jo, jo)
    bch = codes[b_base[:, None] + bi] ^ \
        (3 * strand[:, None]).astype(codes.dtype)
    return ((ach == bch) & in_seed).sum(axis=1).astype(np.int64) * match


def extend_seeds_xdrop_batch(codes: np.ndarray, a_base: np.ndarray,
                             a_len: np.ndarray, b_base: np.ndarray,
                             b_len: np.ndarray, pa: np.ndarray,
                             pb: np.ndarray, strand: np.ndarray, k: int,
                             sc: Scoring, tally: dict | None = None
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]:
    """Batched :func:`~repro.align.xdrop.seed_extend_align` over seed arrays.

    ``pa`` / ``pb`` are seed k-mer starts on each pair's read ``a`` and on
    the **forward** read ``b``; strand-1 seeds are mapped onto the oriented
    ``b`` without materializing a reverse complement.  Left and right
    extensions of every seed enter one :func:`xdrop_extend_batch` sweep
    (reversed-prefix left problems are just ``step = -1`` views), which
    also receives ``tally``.  Returns per-seed ``(score, ba, ea, bb, eb)``
    with coordinates on ``a`` and the oriented ``b``, element-wise equal to
    the per-pair engine.
    """
    n_seed = int(pa.shape[0])
    pbo = np.where(strand != 0, b_len - k - pb, pb)
    seed_score = _seed_scores_batch(codes, a_base, a_len, b_base, b_len,
                                    pa, pbo, strand, k, sc.match)
    rc = strand != 0
    ones = np.ones(n_seed, dtype=np.int64)
    # Right extension: suffixes from the seed end (oriented-b suffixes of a
    # strand-1 pair are reversed, complemented walks of the forward buffer).
    s_base = np.concatenate([a_base + pa + k, a_base + pa - 1])
    s_step = np.concatenate([ones, -ones])
    s_len = np.concatenate([np.maximum(0, a_len - pa - k),
                            np.minimum(pa, a_len)])
    t_base = np.concatenate([
        np.where(rc, b_base + b_len - 1 - pbo - k, b_base + pbo + k),
        np.where(rc, b_base + b_len - pbo, b_base + pbo - 1)])
    t_step = np.concatenate([np.where(rc, -ones, ones),
                             np.where(rc, ones, -ones)])
    t_len = np.concatenate([np.maximum(0, b_len - pbo - k),
                            np.minimum(pbo, b_len)])
    t_xor = np.concatenate([3 * strand, 3 * strand])
    bests, ext_s, ext_t = xdrop_extend_batch(
        codes, s_base, s_step, s_len, t_base, t_step, t_len, t_xor, sc,
        tally)
    r_sc, r_ea, r_eb = bests[:n_seed], ext_s[:n_seed], ext_t[:n_seed]
    l_sc, l_ea, l_eb = bests[n_seed:], ext_s[n_seed:], ext_t[n_seed:]
    score = seed_score + r_sc + l_sc
    ba = pa - l_ea
    ea = pa + k + r_ea
    bb = pbo - l_eb
    eb = pbo + k + r_eb
    return score, ba, ea, bb, eb


def chain_extend_batch(a_len: np.ndarray, b_len: np.ndarray, pa: np.ndarray,
                       pb: np.ndarray, strand: np.ndarray, k: int,
                       identity: float = 0.85
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray]:
    """Batched :func:`~repro.align.xdrop.chain_extend` over seed arrays.

    Pure column arithmetic — the seed diagonal projected to the read ends,
    scored by the implied overlap length × identity estimate.  Returns the
    same ``(score, ba, ea, bb, eb)`` tuple as the x-drop variant.
    """
    sb = np.where(strand != 0, b_len - k - pb, pb)
    left = np.minimum(pa, sb)
    right = np.minimum(a_len - pa, b_len - sb)
    ba = pa - left
    bb = sb - left
    ea = pa + right
    eb = sb + right
    scale = max(0.0, 2.0 * identity - 1.0)
    score = ((ea - ba) * scale).astype(np.int64)
    return score, ba, ea, bb, eb
