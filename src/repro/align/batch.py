"""Batched structure-of-arrays x-drop alignment engine.

The per-pair reference engine (``tests/oracles/align_loop.py``) vectorizes
one pair's extension over its *diagonals* — which leaves one Python call
(and dozens of tiny numpy kernels) per candidate pair.  This module adds the
second vectorization axis: every function here operates on **whole batches
of extension problems at once**, advancing all of them in lockstep so each
edit round is a fixed number of flat kernel calls instead of thousands of
small ones.

A batch describes its sequences as structure-of-arrays views into one
shared ``codes`` buffer (all reads concatenated, one 2-bit code per *byte*):
per problem a base offset, a step (``+1`` forward, ``-1`` for the reversed
prefixes of left extensions), a length, and an XOR mask (``3`` complements
a 2-bit DNA code, so a reverse complement is a backward, complemented walk
of the forward read).  The sweep never walks ``codes`` itself: it first
gathers the bases its problems read — the union of their ranges, nothing
else, so a memory-mapped ``codes`` stays out of core — and lays them out
once in every orientation, as its *oriented window buffer*.

The sweep mirrors the reference's ``xdrop_extend`` *exactly* — the same
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
  picks the winning ``F`` *and* carries its ``M``, with the reference's
  strictly-greater tie rule, without a select.
* **Forward-only, word-at-a-time snakes.**  The window buffer is
  ``[c | c[::-1] | c ^ 3 | (c ^ 3)[::-1]]`` for the gathered bases ``c``,
  plus one word of padding — about 4 bytes per covered base — so every
  walk, whatever its step and mask, is a forward run from its own address.
  An overlapping ``strides=(1,)`` ``uint64`` view of that buffer yields the
  next eight bases of any walk in one load; the run of matches is the
  index of the lowest non-zero byte of the XOR of the two words, clipped to
  the room left.  Only cells that match a whole word load another, eight
  bytes further on both walks.

The parity suite (``tests/test_align_batch.py``) pins byte-identical
results against the per-pair reference, kernel by kernel and on whole R.
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
#: Dead cell — this engine's own sentinel (the per-pair reference's
#: ``LV_NEG`` is a different value): stays negative under ``+ _SUB`` and
#: loses every max.
_DEAD = -(1 << 62)
#: Score of a dead cell (below every real one).
_NO_SCORE = _DEAD


def _window_buffer(codes: np.ndarray, lo: np.ndarray, length: np.ndarray,
                   back: np.ndarray, flip: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One sweep's oriented window buffer, and each walk's address in it.

    Walk ``w`` reads the bases ``codes[lo[w]:lo[w] + length[w]]``, last to
    first where ``back[w]``, complemented where ``flip[w]``.  The ranges
    merge into an interval union whose bases are gathered once into a
    compact ``c``; the buffer is ``[c | c[::-1] | c ^ 3 | (c ^ 3)[::-1]]``
    plus one word of zero padding, so every walk — backward, complemented
    or both — is a forward run from its address.  Returns the buffer's
    overlapping ``strides=(1,)`` little-endian word view (``words[a]`` =
    the eight bytes from ``a``, for every address up to the buffer's end)
    and the addresses.
    """
    order = np.argsort(lo, kind="stable")
    lo_sorted = lo[order]
    reach = np.maximum.accumulate(lo_sorted + length[order])
    # A walk opens an interval when it starts past every earlier walk's end.
    opens = np.ones(order.size, dtype=bool)
    np.greater(lo_sorted[1:], reach[:-1], out=opens[1:])
    heads = np.flatnonzero(opens)
    group = np.empty_like(order)
    group[order] = np.cumsum(opens) - 1
    start = lo_sorted[heads]
    span = reach[np.append(heads[1:] - 1, -1)] - start
    offset = np.cumsum(span) - span
    n = int(offset[-1] + span[-1])
    buf = np.zeros(4 * n + _WORD, dtype=np.uint8)
    c = buf[:n]
    # One slice copy per interval: no index array, and a memmap is read
    # only where the walks are.
    for src, dst, size in zip(start.tolist(), offset.tolist(),
                              span.tolist()):
        c[dst:dst + size] = codes[src:src + size]
    buf[n:2 * n] = c[::-1]
    np.bitwise_xor(c, 3, out=buf[2 * n:3 * n])
    buf[3 * n:4 * n] = buf[2 * n:3 * n][::-1]
    # Compact index of each range's start; a backward walk starts at the
    # range's last base, 2n - 1 - (at + length - 1) in the reversed copy.
    at = lo - start[group] + offset[group]
    at = np.where(back, 2 * n - at - length, at) + 2 * n * flip
    words = np.ndarray((4 * n + 1,), dtype="<u8", buffer=buf, strides=(1,))
    return words, at


def _slide_words(words: np.ndarray, s_at: np.ndarray, t_at: np.ndarray,
                 room: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact-match run length of every cell, eight bases per compare.

    ``s_at`` / ``t_at`` are the window-buffer addresses of each cell's next
    base on ``s`` / ``t`` and ``room`` the bases left before either
    sequence ends.  Returns the runs and the number of word compares made;
    only cells that matched a whole word with room to spare compare
    another.
    """
    run = act = None
    n_words = 0
    while True:
        n_words += s_at.shape[0]
        # Fancy indexing reads the unaligned view element by element
        # (``take`` would first copy all of it into an aligned array).
        x = words[s_at]
        x ^= words[t_at]
        # Matched bases = index of the lowest non-zero byte (8 when x == 0):
        # mask the bits below the lowest set one, then count the bytes the
        # mask fills (their top bits, summed into the top byte).
        low = x - np.uint64(1)
        np.invert(x, out=x)
        x &= low
        x >>= np.uint64(7)
        x &= _BYTE_ONES
        x *= _BYTE_ONES
        x >>= np.uint64(56)
        got = np.minimum(x.view(np.int64), room)
        if act is None:
            run = got
        else:
            run[act] += got
        more = ((got == _WORD) & (room > _WORD)).nonzero()[0]
        if more.size == 0:
            return run, n_words
        act = more if act is None else act[more]
        s_at = s_at[more] + _WORD
        t_at = t_at[more] + _WORD
        room = room[more] - _WORD


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal ``keys``."""
    return np.concatenate(([0], (keys[1:] != keys[:-1]).nonzero()[0] + 1))


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
    equal to the per-pair reference's ``xdrop_extend`` on the materialized
    pair.

    ``tally`` (optional dict) accumulates the sweep's exact work, each a sum
    over problems and therefore independent of how problems are batched:
    ``rounds`` (edit rounds, summed over the problems in each),  ``cells``
    (cell words the recurrence stepped: every span plus its two flanks,
    every round) and ``words`` (64-bit snake compares).

    Raises :class:`ValueError`, naming the problem, for one with
    ``s_len + t_len >= 2**30`` (its ``F`` / ``M`` would not fit their cell
    fields), a ``t_xor`` other than 0 or 3, or a non-empty problem whose
    walk leaves ``codes``.
    """
    n_prob = int(s_base.shape[0])
    out = np.zeros((3, n_prob), dtype=np.int64)   # best score, ext_s, ext_t
    s_len = np.asarray(s_len, dtype=np.int64)
    t_len = np.asarray(t_len, dtype=np.int64)
    s_step = np.asarray(s_step, dtype=np.int64)
    t_step = np.asarray(t_step, dtype=np.int64)
    t_xor = np.asarray(t_xor, dtype=np.int64)
    if n_prob:
        total = s_len + t_len
        if int(total.max()) >= _FIELD_LIMIT:
            p = int(total.argmax())
            raise ValueError(
                f"xdrop_extend_batch: problem {p} has s_len + t_len = "
                f"{int(total[p])} >= 2**30, beyond the 30-bit cell fields")
        if (np.abs(s_step) != 1).any() or (np.abs(t_step) != 1).any():
            raise ValueError("xdrop_extend_batch: steps must be +1 or -1")
        bad = np.flatnonzero((t_xor != 0) & (t_xor != 3))
        if bad.size:
            p = int(bad[0])
            raise ValueError(f"xdrop_extend_batch: problem {p} has t_xor = "
                             f"{int(t_xor[p])}, not 0 or 3")
    if codes.dtype != np.uint8:
        raise ValueError(f"codes must be uint8 (one base per byte), "
                         f"got {codes.dtype}")
    # Empty-side problems return (0, 0, 0) like the per-pair reference.
    ids = np.flatnonzero((s_len > 0) & (t_len > 0))
    if ids.size == 0:
        return out[0], out[1], out[2]
    # Every walk of a non-empty problem, s walks then t walks.
    back = np.concatenate([s_step[ids], t_step[ids]]) < 0
    length = np.concatenate([s_len[ids], t_len[ids]])
    lo = np.concatenate([s_base[ids], t_base[ids]]).astype(np.int64)
    lo[back] -= length[back] - 1
    bad = np.flatnonzero((lo < 0) | (lo + length > codes.shape[0]))
    if bad.size:
        w = int(bad[0])
        raise ValueError(
            f"xdrop_extend_batch: problem {int(ids[w % ids.size])}'s "
            f"{'st'[w // ids.size]} walk reads codes[{int(lo[w])}:"
            f"{int(lo[w] + length[w])}], outside codes of size "
            f"{codes.shape[0]}")
    words, at = _window_buffer(codes, lo, length, back, np.concatenate(
        [np.zeros(ids.size, np.int64), t_xor[ids] // 3]))
    # Per-problem state, one row each so retiring problems is one index:
    # output slot, lengths, window addresses of s[0] / t[0], then the span:
    # diagonal of its first cell and its width.
    prob = np.stack([ids, s_len[ids], t_len[ids], at[:ids.size],
                     at[ids.size:], np.zeros(ids.size, np.int64),
                     np.ones(ids.size, np.int64)])
    ids, m, n, s_at, t_at = prob[:5]

    # Round 0: the single seed diagonal, slide its snake; problems that
    # reach an end of either sequence on it are done.
    run, n_words = _slide_words(words, s_at, t_at, np.minimum(m, n))
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
    # The loop calls array methods (``a.repeat``, ``a.nonzero()[0]``), not
    # the module functions, whose dispatch wrappers cost as much as the
    # work on the many small arrays of a sweep's last rounds.
    while prob.shape[1]:
        e += 1
        ids, m, n, s_at, t_at, lo, width = prob
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
        pid = ramp[:n_live].repeat(seg)
        # Substitution / insertion / deletion candidates in one max each
        # (see the cell layout above); a flank's outer neighbour is the
        # next segment's dead flank, so the shifts never mix problems.
        nxt = cells + _SUB
        ins = cells + _INS
        np.maximum(nxt[1:], ins[:-1], out=nxt[1:])
        np.maximum(nxt[:-1], cells[1:], out=nxt[:-1])
        # A cell is valid when alive (nxt >= 0) and in bounds: i <= m and
        # j = i - d <= n, i.e. room >= 0 (i >= 0 and j >= 0 hold for every
        # cell descended from the origin).
        f = nxt >> _F_SHIFT
        room = (n + base).repeat(seg)
        room += pos
        np.minimum(room, m.repeat(seg), out=room)
        room -= f
        valid = np.minimum(nxt, room) >= 0
        at = valid.nonzero()[0]
        if at.size:
            i = f[at]
            p = pid[at]
            # On diagonal d = at + base, cell i's t base is j = i - d.
            run, more = _slide_words(words, s_at[p] + i,
                                     (t_at - base)[p] + (i - at), room[at])
            n_words += more
            ext = np.zeros(size, dtype=np.int64)
            ext[at] = run
            ext *= _RUN
            nxt += ext
        scores = nxt & _M_MASK
        scores *= sc.match
        scores += e * penalty
        np.putmask(scores, ~valid, _NO_SCORE)
        sbest = np.maximum.reduceat(scores, start)
        best = out[0, ids]
        upd = sbest > best
        np.maximum(best, sbest, out=best)
        # Every cell's problem best after this round: the tie-break's
        # candidates equal it, and cells within x-drop of it stay live.
        top = best.repeat(seg)
        if upd.any():
            # Tie-break equal scores toward the farthest-reaching cell
            # (largest i + j), first in diagonal order — as the 1D engine.
            # Candidates are few, so rank them with one key per problem.
            cand = (scores == top).nonzero()[0]
            cp = pid[cand]
            hit = upd[cp]
            cand, cp = cand[hit], cp[hit]
            reach = 2 * (nxt[cand] >> _F_SHIFT) - cand - base[cp]
            heads = _run_heads(cp)
            win = size - np.maximum.reduceat(
                reach * (size + 1) + (size - cand), heads) % (size + 1)
            wp = cp[heads]
            fw = nxt[win] >> _F_SHIFT
            out[0, ids[wp]] = sbest[wp]
            out[1, ids[wp]] = fw
            out[2, ids[wp]] = fw - (win + base[wp])
        # X-drop prune, then trim every span to its live cells; problems
        # with none left retire.  (The per-pair reference's m + n round
        # budget needs no test: i + j grows every round, so no cell
        # outlives it.)
        top -= sc.xdrop
        live = (scores >= top).nonzero()[0]
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
        cells[live + (start + 1 - first).repeat(count)] = \
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
    """Batched seed-and-extend x-drop alignment over seed arrays.

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
    """Batched alignment-free coordinate estimate over seed arrays.

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
