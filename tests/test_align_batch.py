"""Parity suite: batched alignment engine vs per-pair loop vs DP oracle.

The batch engine's contract is *byte identity* with the per-pair reference
(``tests/oracles/align_loop.py``) for every input — same R entries, same
coordinates, same payloads.  These tests pin that
contract with hypothesis-driven random read sets (both strands, both
alignment modes, boundary seeds) plus the edge cases a lockstep sweep can
get wrong: empty batches, empty extension sides, pairs that all retire in
round 0, and filters that prune everything.  The kernel-level cases run
where the ragged word-at-a-time sweep actually works: long noisy reads
(hundreds of edit rounds, wide bands), every zero-copy view (backward walks,
XOR-complemented strands), match runs around the 8-base word size, problems
touching both ends of a minimal — or memory-mapped — ``codes`` buffer, and
the sweep's exact work counters.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.align.batch import (chain_extend_batch, extend_seeds_xdrop_batch,
                               xdrop_extend_batch)
from repro.align.xdrop import Scoring
from repro.core.overlap import AlignmentFilter, align_candidates
from repro.core.semirings import (C_NFIELDS, R_CONTAINED, R_CONTAINS,
                                  R_END_I, R_END_J, R_NO_END, R_SUFFIX)
from repro.dsparse.distmat import DistMat
from repro.exec import get_executor
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs.fasta import ReadSet

from oracles.align_loop import (align_candidates_loop, chain_extend,
                                seed_extend_align, xdrop_extend)
from oracles.xdrop_dp import xdrop_extend_dp

SC = Scoring()
K = 11


# ---------------------------------------------------------------------------
# Low-level kernel: xdrop_extend_batch vs xdrop_extend vs the exact DP.
# ---------------------------------------------------------------------------

def _run_batch_single(s, t, sc=SC):
    codes = np.concatenate([s, t]) if s.size or t.size else \
        np.empty(0, np.uint8)
    one = np.array([1], np.int64)
    best, ei, ej = xdrop_extend_batch(
        codes, np.array([0], np.int64), one, np.array([s.size], np.int64),
        np.array([s.size], np.int64), one.copy(),
        np.array([t.size], np.int64), np.zeros(1, np.int64), sc)
    return int(best[0]), int(ei[0]), int(ej[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 8), st.integers(0, 90))
def test_batch_kernel_matches_serial_lv(seed, n_mut, length):
    """One-problem batch == the 1D LV engine, element for element."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 4, size=length).astype(np.uint8)
    t = s.copy()
    for _ in range(n_mut):
        if t.size == 0:
            break
        p = int(rng.integers(0, t.size))
        op = int(rng.integers(0, 3))
        if op == 0:
            t[p] = (t[p] + int(rng.integers(1, 4))) % 4
        elif op == 1:
            t = np.delete(t, p)
        else:
            t = np.insert(t, p, int(rng.integers(0, 4)))
    t = t.astype(np.uint8)
    assert _run_batch_single(s, t) == xdrop_extend(s, t, SC)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 6))
def test_batch_kernel_close_to_exact_dp(seed, n_mut):
    """Like the LV engine, the batch sweep is a tight admissible heuristic
    of the exact antidiagonal DP (small additive gap both ways)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=50).astype(np.uint8)
    b = a.copy()
    for _ in range(n_mut):
        p = int(rng.integers(0, 50))
        b[p] = (b[p] + int(rng.integers(1, 4))) % 4
    got = _run_batch_single(a, b)
    ref = xdrop_extend_dp(a, b, SC)
    assert abs(got[0] - ref[0]) <= 2


def test_batch_kernel_empty_sides():
    s = np.array([0, 1, 2, 3], np.uint8)
    empty = np.empty(0, np.uint8)
    assert _run_batch_single(s, empty) == (0, 0, 0)
    assert _run_batch_single(empty, s) == (0, 0, 0)
    assert _run_batch_single(empty, empty) == (0, 0, 0)


def test_batch_kernel_empty_problem_set():
    e = np.empty(0, np.int64)
    best, ei, ej = xdrop_extend_batch(np.empty(0, np.uint8), e, e, e, e, e,
                                      e, e, SC)
    assert best.shape == ei.shape == ej.shape == (0,)


def test_batch_kernel_mixed_lifetimes():
    """Problems retiring at different rounds must not disturb survivors:
    mix round-0 full matches, instant x-drop deaths, and long extensions."""
    rng = np.random.default_rng(5)
    long_a = rng.integers(0, 4, 300).astype(np.uint8)
    long_b = long_a.copy()
    long_b[::31] = (long_b[::31] + 1) % 4  # sparse mutations: long survivor
    probs = [
        (long_a, long_b),
        (long_a[:40], long_a[:40]),                  # round-0 retirement
        (np.zeros(60, np.uint8), np.full(60, 3, np.uint8)),  # instant death
        (long_a[:1], long_b[:1]),
    ]
    bufs, meta = [], []
    off = 0
    for s, t in probs:
        bufs += [s, t]
        meta.append((off, s.size, off + s.size, t.size))
        off += s.size + t.size
    codes = np.concatenate(bufs)
    sb = np.array([m[0] for m in meta], np.int64)
    sl = np.array([m[1] for m in meta], np.int64)
    tb = np.array([m[2] for m in meta], np.int64)
    tl = np.array([m[3] for m in meta], np.int64)
    ones = np.ones(len(probs), np.int64)
    best, ei, ej = xdrop_extend_batch(codes, sb, ones, sl, tb, ones.copy(),
                                      tl, np.zeros(len(probs), np.int64), SC)
    for p, (s, t) in enumerate(probs):
        assert (int(best[p]), int(ei[p]), int(ej[p])) == \
            xdrop_extend(s, t, SC)


# ---------------------------------------------------------------------------
# Kernel on every view, at every buffer edge, with its work counters.
# ---------------------------------------------------------------------------

#: How a sequence is stored: (s backward, t backward, t complemented).
VIEWS = list(itertools.product((False, True), repeat=3))


def _mutate(rng, s, rate):
    """A copy of ``s`` with substitutions, insertions and deletions."""
    out = []
    for c in s.tolist():
        r = rng.random()
        if r < rate / 3:
            continue
        if r < 2 * rate / 3:
            c = (c + int(rng.integers(1, 4))) % 4
        elif r < rate:
            out.append(int(rng.integers(0, 4)))
        out.append(c)
    return np.array(out, np.uint8)


def _pack(pairs, views):
    """Lay ``(s, t)`` pairs out back to back in one minimal ``codes`` buffer
    (no padding: the first pair's ``s`` starts at byte 0, the last pair's
    ``t`` ends at the last byte), each stored per its view, and return the
    buffer with the SoA arguments that read the pairs back."""
    bufs, cols, off = [], [], 0
    for (s, t), (s_back, t_back, t_comp) in zip(pairs, views):
        row = []
        for seq, back, comp in ((s, s_back, False), (t, t_back, t_comp)):
            stored = (np.uint8(3) - seq) if comp else seq
            bufs.append(stored[::-1] if back else stored)
            row += [off + seq.size - 1 if back else off,
                    -1 if back else 1, seq.size]
            off += seq.size
        cols.append(row + [3 if t_comp else 0])
    codes = np.concatenate(bufs) if bufs else np.empty(0, np.uint8)
    sb, ss, sl, tb, ts, tl, tx = np.array(cols, np.int64).reshape(-1, 7).T
    return codes, (sb, ss, sl, tb, ts, tl, tx)


def _assert_kernel_parity(pairs, sc=SC, views=None, codes_hook=None,
                          **kernel_kwargs):
    """The batch over ``pairs`` equals ``xdrop_extend`` pair by pair."""
    if views is None:
        views = [VIEWS[p % len(VIEWS)] for p in range(len(pairs))]
    codes, soa = _pack(pairs, views)
    if codes_hook is not None:
        codes = codes_hook(codes)
    best, ei, ej = xdrop_extend_batch(codes, *soa, sc, **kernel_kwargs)
    for p, (s, t) in enumerate(pairs):
        assert (int(best[p]), int(ei[p]), int(ej[p])) == \
            xdrop_extend(s, t, sc), (p, views[p], s.size, t.size)


@pytest.mark.parametrize("rate,xdrop", [(0.12, 50), (0.2, 50), (0.3, 50),
                                        (0.3, 200)])
def test_kernel_parity_long_noisy_reads(rate, xdrop):
    """400–1000 bp at CLR error rates: a hundred-odd to several hundred edit
    rounds per full-length problem, spans of dozens of diagonals (over a
    hundred on average at x = 200; the tally test below measures it), with
    truncated partners retiring early beside them — far from the short 3 %
    cases above."""
    _assert_kernel_parity(_long_noisy_pairs(rate), Scoring(xdrop=xdrop))


def _long_noisy_pairs(rate):
    rng = np.random.default_rng(int(rate * 100))
    pairs = []
    for length in (400, 650, 1000, 800):
        s = rng.integers(0, 4, length).astype(np.uint8)
        t = _mutate(rng, s, rate)
        pairs += [(s, t), (s, t[:t.size // 3]), (s[:60], t)]
    return pairs


def test_kernel_work_is_pinned():
    """The sweep's exact work on one fixed noisy batch (20 % errors, every
    view, truncated partners): a change to how much the sweep does — not
    only to what it returns — fails here.  The counters are sums over
    problems, so they do not depend on how the buffer is laid out."""
    tally = {}
    _assert_kernel_parity(_long_noisy_pairs(0.2), tally=tally)
    assert tally == {"rounds": 1339, "cells": 41609, "words": 30139}


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("run", [7, 8, 9, 15, 16, 17, 64])
def test_kernel_exact_runs_around_the_word_size(run, view):
    """Snakes of exactly ``run`` bases, ended by a mismatch, by the end of
    one read, and by the end of both."""
    rng = np.random.default_rng(run)
    head = rng.integers(0, 4, run).astype(np.uint8)
    tail = rng.integers(0, 4, 30).astype(np.uint8)
    miss = ((tail[:1] + 1) % 4).astype(np.uint8)
    pairs = [(np.concatenate([head, tail]),
              np.concatenate([head, miss, tail[1:]])),
             (np.concatenate([head, tail]), head),
             (head, np.concatenate([head, tail])),
             (head, head.copy())]
    _assert_kernel_parity(pairs, views=[view] * len(pairs))


@pytest.mark.parametrize("sc", [Scoring(1, -2, -3, 30), Scoring(2, -1, -1, 15),
                                Scoring(1, -1, -2, 7)])
def test_kernel_parity_nondefault_scoring(sc):
    rng = np.random.default_rng(sc.xdrop)
    pairs = []
    for rate in (0.03, 0.1, 0.2):
        for _ in range(4):
            s = rng.integers(0, 4, int(rng.integers(80, 300))
                             ).astype(np.uint8)
            pairs.append((s, _mutate(rng, s, rate)))
    _assert_kernel_parity(pairs, sc)


EDGE_LENGTHS = [(1, 1), (3, 2), (7, 7), (8, 8), (5, 9), (9, 5), (6, 23),
                (23, 6), (40, 40)]


@pytest.mark.parametrize("view", VIEWS)
def test_kernel_at_both_ends_of_a_minimal_buffer(view):
    """Word loads must stay inside ``codes``: the problem *is* the buffer
    (``s`` starts at byte 0, ``t`` ends at the last byte; backward walks
    end within 7 bytes of offset 0), down to buffers shorter than one word,
    with snakes that run to the sequence ends and ones that stop early."""
    rng = np.random.default_rng(7)
    for m, n in EDGE_LENGTHS:
        s = rng.integers(0, 4, m).astype(np.uint8)
        for t in (np.resize(s, n), _mutate(rng, np.resize(s, n), 0.3),
                  rng.integers(0, 4, n).astype(np.uint8)):
            for pair in ((s, t), (t, s)):
                _assert_kernel_parity([pair], views=[view])
    # The same problems sharing one buffer: only the first and the last
    # touch its ends, the rest must not notice.
    pairs = [(rng.integers(0, 4, m).astype(np.uint8),
              rng.integers(0, 4, n).astype(np.uint8))
             for m, n in EDGE_LENGTHS]
    _assert_kernel_parity(pairs + [(s, s.copy()) for s, _ in pairs],
                          views=[view] * (2 * len(pairs)))


def test_kernel_reads_a_readonly_memmap(tmp_path):
    """``read_store=mmap`` hands the kernel a read-only ``np.memmap``; the
    strided word view must work on it without a copy or a write."""
    rng = np.random.default_rng(11)
    pairs = []
    for length in (5, 8, 40, 300):
        s = rng.integers(0, 4, length).astype(np.uint8)
        pairs += [(s, _mutate(rng, s, 0.1))] * len(VIEWS)

    def on_disk(codes):
        path = tmp_path / "codes.bin"
        codes.tofile(path)
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        assert not mapped.flags.writeable
        return mapped

    _assert_kernel_parity(pairs, codes_hook=on_disk)


def test_kernel_memory_is_independent_of_the_buffer_size():
    """The word gathers must touch only the bases they compare: the same
    problems inside a 32 MB ``codes`` (a whole read set; ``np.zeros`` pages
    stay unmapped until read) allocate a small fraction of it.  A gather
    that first normalizes its source — ``ndarray.take`` on the unaligned
    word view — copies 8 × the buffer on every load."""
    rng = np.random.default_rng(13)
    pairs = []
    for length in (30, 120, 400):
        s = rng.integers(0, 4, length).astype(np.uint8)
        pairs += [(s, _mutate(rng, s, 0.15))] * len(VIEWS)
    views = VIEWS * 3
    small, soa = _pack(pairs, views)
    big = np.zeros(32 << 20, np.uint8)
    at = big.size // 2 + 3
    big[at:at + small.size] = small
    sb, ss, sl, tb, ts, tl, tx = soa
    tracemalloc.start()
    try:
        got = xdrop_extend_batch(big, sb + at, ss, sl, tb + at, ts, tl, tx, SC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big.size // 16, peak
    for mine, ref in zip(got, xdrop_extend_batch(small, *soa, SC)):
        assert np.array_equal(mine, ref)


def test_kernel_refuses_lengths_beyond_its_cell_fields():
    """``F`` and ``M`` live in 30-bit fields: a problem that could overflow
    them is refused by name before any base is read."""
    codes = np.zeros(16, np.uint8)
    one = np.ones(1, np.int64)
    zero = np.zeros(1, np.int64)
    for s_len, t_len in ((2 ** 30, 1), (1, 2 ** 30), (2 ** 29, 2 ** 29),
                         (2 ** 40, 0)):
        with pytest.raises(ValueError, match=r"s_len \+ t_len = \d+ >= "
                                             r"2\*\*30"):
            xdrop_extend_batch(codes, zero, one, s_len * one, zero, one,
                               t_len * one, zero, SC)
    with pytest.raises(ValueError, match="steps must be"):
        xdrop_extend_batch(codes, zero, 2 * one, 4 * one, zero, one,
                           4 * one, zero, SC)
    with pytest.raises(ValueError, match="uint8"):
        xdrop_extend_batch(codes.astype(np.int64), zero, one, 4 * one, zero,
                           one, 4 * one, zero, SC)


def test_kernel_refuses_walks_that_leave_codes():
    """A walk past either end of ``codes`` is refused by problem, never
    "aligned" against bytes that are not there (a negative start would
    index from the buffer's end), and so is a strand mask other than 0 or
    3.  A problem with an empty side reads nothing and passes."""
    codes = np.zeros(10, np.uint8)

    def run(s_base, s_step, s_len, t_base=0, t_step=1, t_len=4, t_xor=0):
        # Problem 0 as given, problem 1 a valid bystander.
        col = [np.array([v, ok], np.int64) for v, ok in zip(
            (s_base, s_step, s_len, t_base, t_step, t_len, t_xor),
            (0, 1, 4, 4, 1, 4, 0))]
        return xdrop_extend_batch(codes, *col, SC)

    for args, walk in (((5, 1, 20), r"problem 0's s walk reads "
                                    r"codes\[5:25\]"),
                       ((2, -1, 20), r"problem 0's s walk reads "
                                     r"codes\[-17:3\]"),
                       ((0, 1, 4, 7, 1, 4), r"problem 0's t walk reads "
                                            r"codes\[7:11\]"),
                       ((0, 1, 4, 0, -1, 2), r"problem 0's t walk reads "
                                             r"codes\[-1:1\]")):
        with pytest.raises(ValueError, match=walk + ", outside codes of "
                                                    "size 10"):
            run(*args)
    for bad in (1, 2, 4, -3):
        with pytest.raises(ValueError, match=f"problem 0 has t_xor = {bad}, "
                                             f"not 0 or 3"):
            run(0, 1, 4, t_xor=bad)
    # The same walks with an empty partner read nothing.
    for args in ((5, 1, 20, 0, 1, 0), (2, -1, 20, 0, 1, 0),
                 (3, 1, 0, 7, 1, 4)):
        best, ei, ej = run(*args)
        assert (int(best[0]), int(ei[0]), int(ej[0])) == (0, 0, 0)
    # Walks that end exactly on either end of ``codes`` are fine.
    assert run(6, 1, 4, t_base=3, t_step=-1, t_len=4)[0].shape == (2,)


def _walk(codes, base, step, length, xor=0):
    """The sequence a kernel view reads, materialized."""
    return codes[base + step * np.arange(length)] ^ np.uint8(xor)


def test_kernel_parity_on_overlapping_nested_and_abutting_ranges():
    """Problems share, nest in, overlap and abut each other's ranges — the
    window buffer merges them into an interval union and must still hand
    every walk its own bases.  One read is the ``t`` of four problems, one
    per orientation (forward, backward, complemented, both), each against
    a partner stored so that the pair aligns; random windows of every
    orientation pile onto the same bytes, with gaps of untouched bases
    between some of them."""
    rng = np.random.default_rng(31)
    x = rng.integers(0, 4, 300).astype(np.uint8)
    rc = _revcomp(x)
    gap = rng.integers(0, 4, 50).astype(np.uint8)
    # [gap | A ~ x | X | gap | B ~ revcomp(x) | gap]: A abuts X.
    parts = [gap, _mutate(rng, x, 0.1), x, gap, _mutate(rng, rc, 0.1), gap]
    offs = np.cumsum([0] + [p.size for p in parts])
    codes = np.concatenate(parts)
    a0, a1, x0, x1, b0, b1 = offs[1], offs[2], offs[2], offs[3], offs[4], \
        offs[5]
    views = [  # (s_base, s_step, s_len, t_base, t_step, t_len, t_xor)
        (a0, 1, a1 - a0, x0, 1, 300, 0),             # x forward
        (a1 - 1, -1, a1 - a0, x1 - 1, -1, 300, 0),   # x backward
        (b1 - 1, -1, b1 - b0, x0, 1, 300, 3),        # x complemented
        (b0, 1, b1 - b0, x1 - 1, -1, 300, 3),        # revcomp(x)
        (a0 + 40, 1, 120, x0 + 40, 1, 100, 0),       # nested in the above
        (x0 - 30, 1, 90, x0 + 20, 1, 60, 0),         # spans the A|X seam
    ]
    for _ in range(40):
        row = []
        for side in range(2):
            length = int(rng.integers(1, 120))
            lo = int(rng.integers(0, codes.size - length + 1))
            back = bool(rng.integers(0, 2))
            row += [lo + length - 1 if back else lo, -1 if back else 1,
                    length]
        views.append(tuple(row) + (3 * int(rng.integers(0, 2)),))
    soa = [np.array(col, np.int64) for col in zip(*views)]
    best, ei, ej = xdrop_extend_batch(codes, *soa, SC)
    for p, (sb, ss, sl, tb, ts, tl, tx) in enumerate(views):
        s = _walk(codes, sb, ss, sl)
        t = _walk(codes, tb, ts, tl, tx)
        assert (int(best[p]), int(ei[p]), int(ej[p])) == \
            xdrop_extend(s, t, SC), (p, views[p])
    # The four orientations of x really align (not just agree).
    assert (best[:4] > 150).all()


def test_kernel_cost_is_additive_over_problems():
    """Cost tracks input: a wide problem added to a batch of narrow ones
    costs exactly its own rounds, cells and word compares — no problem pays
    for a neighbour's band or lifetime."""
    rng = np.random.default_rng(21)
    narrow = []
    for length in (40, 90, 150, 150, 200):
        s = rng.integers(0, 4, length).astype(np.uint8)
        narrow.append((s, _mutate(rng, s, 0.02)))
    s = rng.integers(0, 4, 1000).astype(np.uint8)
    wide = [(s, _mutate(rng, s, 0.3))]
    sc = Scoring(xdrop=200)
    alone, rest, both = {}, {}, {}
    for pairs, tally in ((wide, alone), (narrow, rest),
                         (narrow + wide, both)):
        _assert_kernel_parity(pairs, sc, tally=tally)
    # The wide problem really is one: hundreds of rounds, a band of over a
    # hundred diagonals on average, most of the union's work.
    assert alone["rounds"] > 200
    assert alone["cells"] > 100 * alone["rounds"]
    assert alone["cells"] > rest["cells"]
    for name in ("rounds", "cells", "words"):
        assert both[name] == rest[name] + alone[name], name


# ---------------------------------------------------------------------------
# Seed-level parity: batched seed extension vs seed_extend_align /
# chain_extend, including strand-1 strided views and boundary seeds.
# ---------------------------------------------------------------------------

def _random_readset(rng, n_reads, min_len=K, max_len=120):
    seqs = [rng.integers(0, 4, int(rng.integers(min_len, max_len + 1))
                         ).astype(np.uint8) for _ in range(n_reads)]
    return ReadSet([f"r{i}" for i in range(n_reads)], seqs)


def _soa(reads):
    lengths = reads.lengths
    offsets = np.zeros(len(reads), np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return np.concatenate(reads.seqs), offsets, lengths


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 31))
def test_seed_extension_parity_random(seed):
    rng = np.random.default_rng(seed)
    reads = _random_readset(rng, 6)
    codes, offsets, lengths = _soa(reads)
    cases = []
    for _ in range(25):
        i, j = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        pa = int(rng.integers(0, lengths[i] - K + 1))
        pb = int(rng.integers(0, lengths[j] - K + 1))
        cases.append((i, j, pa, pb, int(rng.integers(0, 2))))
    # Boundary seeds: first and last k-mer on both reads, both strands.
    for strand in (0, 1):
        cases.append((0, 1, 0, 0, strand))
        cases.append((0, 1, int(lengths[0]) - K, int(lengths[1]) - K,
                      strand))
    arr = np.array(cases, np.int64)
    gi, gj, pa, pb, strand = arr.T
    got = extend_seeds_xdrop_batch(codes, offsets[gi], lengths[gi],
                                   offsets[gj], lengths[gj], pa, pb, strand,
                                   K, SC)
    chain_got = chain_extend_batch(lengths[gi], lengths[gj], pa, pb, strand,
                                   K)
    for t, (i, j, p_a, p_b, s_) in enumerate(cases):
        ref = seed_extend_align(reads[i], reads[j], p_a, p_b, K, s_, SC)
        assert tuple(int(col[t]) for col in got) == \
            (ref.score, ref.ba, ref.ea, ref.bb, ref.eb)
        cref = chain_extend(int(lengths[i]), int(lengths[j]), p_a, p_b, K,
                            s_)
        assert tuple(int(col[t]) for col in chain_got) == \
            (cref.score, cref.ba, cref.ea, cref.bb, cref.eb)


def _noisy_copies(rng, genome, rate, anchors):
    """Two independently mutated copies of ``genome`` that share the exact
    k-mers starting at ``anchors``; returns both and, per anchor, its start
    on each copy."""
    copies, starts = [], []
    for _ in range(2):
        parts, at, prev = [], [], 0
        for g in anchors:
            parts.append(_mutate(rng, genome[prev:g], rate))
            at.append(sum(p.size for p in parts))
            parts.append(genome[g:g + K])
            prev = g + K
        parts.append(_mutate(rng, genome[prev:], rate))
        copies.append(np.concatenate(parts))
        starts.append(at)
    return copies[0], copies[1], list(zip(*starts))


def _revcomp(seq):
    return (np.uint8(3) - seq)[::-1].copy()


@pytest.mark.parametrize("rate", [0.12, 0.25])
def test_seed_extension_parity_long_noisy_both_strands(rate):
    """True seeds on 400–1000 bp noisy overlaps, both strands, full-length
    and truncated partners: left and right extensions of every seed share
    one sweep and must match ``seed_extend_align`` seed for seed."""
    rng = np.random.default_rng(int(rate * 100))
    seqs, cases = [], []
    for length in (400, 700, 1000):
        genome = rng.integers(0, 4, length).astype(np.uint8)
        a, b, seeds = _noisy_copies(rng, genome, rate,
                                    (length // 4, 3 * length // 4))
        short = b[:seeds[0][1] + K + 35]          # loses the second seed
        for partner, usable in ((b, seeds), (short, seeds[:1])):
            for strand in (0, 1):
                i = len(seqs)
                seqs += [a, _revcomp(partner) if strand else partner]
                cases += [(i, i + 1, pa,
                           partner.size - K - pb if strand else pb, strand)
                          for pa, pb in usable]
    reads = ReadSet([f"r{i}" for i in range(len(seqs))], seqs)
    codes, offsets, lengths = _soa(reads)
    gi, gj, pa, pb, strand = np.array(cases, np.int64).T
    got = extend_seeds_xdrop_batch(codes, offsets[gi], lengths[gi],
                                   offsets[gj], lengths[gj], pa, pb, strand,
                                   K, SC)
    for t, (i, j, p_a, p_b, s_) in enumerate(cases):
        ref = seed_extend_align(reads[i], reads[j], p_a, p_b, K, s_, SC)
        assert tuple(int(col[t]) for col in got) == \
            (ref.score, ref.ba, ref.ea, ref.bb, ref.eb)
        assert ref.ea - ref.ba > 100              # the seeds are real


# ---------------------------------------------------------------------------
# align_candidates parity: the per-pair reference vs the runtime on
# synthetic C.
# ---------------------------------------------------------------------------

def _make_candidates(reads, entries, nprocs=4):
    """Build a C-typed DistMat from (i, j, seed1, seed2 | None) tuples."""
    n = len(reads)
    rows, cols, vals = [], [], []
    for i, j, seed1, seed2 in entries:
        v = np.full(C_NFIELDS, -1, np.int64)
        v[0] = 1 if seed2 is None else 2
        v[1:4] = seed1
        if seed2 is not None:
            v[4:7] = seed2
        rows.append(i)
        cols.append(j)
        vals.append(v)
    grid = ProcessGrid2D(nprocs)
    if rows:
        return DistMat.from_coo((n, n), grid, np.array(rows, np.int64),
                                np.array(cols, np.int64), np.vstack(vals))
    return DistMat.empty((n, n), grid, C_NFIELDS)


def _align_both(reads, C, mode="xdrop", filt=None, fuzz=10, executor=None,
                scoring=None):
    out = []
    for align in (align_candidates_loop, align_candidates):
        comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
        R = align(C, reads, K, comm, StageTimer(), mode=mode,
                  scoring=scoring, filt=filt, fuzz=fuzz, executor=executor)
        out.append(R.to_global())
    return out


def _assert_same(gl, gb):
    assert np.array_equal(gl.row, gb.row)
    assert np.array_equal(gl.col, gb.col)
    assert np.array_equal(gl.vals, gb.vals)


def _overlapping_readset(rng, n_reads=8, glen=600, rlen=150):
    """Reads cut from one genome so candidates carry real shared k-mers."""
    genome = rng.integers(0, 4, glen).astype(np.uint8)
    seqs = []
    for _ in range(n_reads):
        start = int(rng.integers(0, glen - rlen))
        s = genome[start:start + rlen].copy()
        mut = rng.random(rlen) < 0.03
        s[mut] = (s[mut] + rng.integers(1, 4, int(mut.sum()))) % 4
        if rng.random() < 0.4:
            s = (np.uint8(3) - s)[::-1].copy()
        seqs.append(s)
    return ReadSet([f"r{i}" for i in range(n_reads)], seqs)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 31), st.sampled_from(["xdrop", "chain"]))
def test_align_candidates_parity_random(seed, mode):
    rng = np.random.default_rng(seed)
    reads = _overlapping_readset(rng)
    lengths = reads.lengths
    entries = {}
    for _ in range(12):
        i, j = sorted(rng.integers(0, len(reads), 2))
        if i == j:
            continue
        def s():
            return (int(rng.integers(0, lengths[i] - K + 1)),
                    int(rng.integers(0, lengths[j] - K + 1)),
                    int(rng.integers(0, 2)))
        entries[(int(i), int(j))] = (int(i), int(j), s(),
                                     s() if rng.random() < 0.6 else None)
    C = _make_candidates(reads, list(entries.values()))
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)
    gl, gb = _align_both(reads, C, mode=mode, filt=filt, fuzz=30)
    _assert_same(gl, gb)


@pytest.mark.parametrize("mode", ["xdrop", "chain"])
def test_align_candidates_keep_marked_containment_pairs(mode):
    """Nested reads (both strands) come back as containment pairs under
    the semirings' markers — byte-identical from both engines: read 1 lies
    in read 0, and 3 ⊂ 2 ⊂ 4 is a containment chain."""
    rng = np.random.default_rng(21)
    genome = rng.integers(0, 4, 700).astype(np.uint8)
    spans = [(0, 320), (100, 220), (260, 600), (300, 460), (250, 610)]
    strands = [0, 0, 0, 1, 1]
    seqs = [_revcomp(genome[lo:hi]) if s else genome[lo:hi].copy()
            for (lo, hi), s in zip(spans, strands)]
    reads = ReadSet([f"r{i}" for i in range(len(seqs))], seqs)

    def pos(r, g):
        lo, hi = spans[r]
        return hi - K - g if strands[r] else g - lo

    entries = []
    for i, j in itertools.combinations(range(len(spans)), 2):
        lo, hi = max(spans[i][0], spans[j][0]), min(spans[i][1], spans[j][1])
        if hi - lo >= 60:
            g = (lo + hi) // 2
            entries.append((i, j, (pos(i, g), pos(j, g),
                                   strands[i] ^ strands[j]), None))
    C = _make_candidates(reads, entries)
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)
    gl, gb = _align_both(reads, C, mode=mode, filt=filt, fuzz=10)
    _assert_same(gl, gb)
    marks = dict(zip(zip(gb.row.tolist(), gb.col.tolist()),
                     gb.vals[:, R_SUFFIX].tolist()))
    inside = {(1, 0), (3, 2), (2, 4), (3, 4)}
    assert {e for e, m in marks.items() if m == R_CONTAINED} == inside
    assert {e for e, m in marks.items() if m == R_CONTAINS} == \
        {(j, i) for i, j in inside}
    assert marks[(0, 4)] >= 1 and marks[(4, 0)] >= 1    # a dovetail
    contained = gb.vals[gb.vals[:, R_SUFFIX] < 0]
    assert (contained[:, [R_END_I, R_END_J]] == R_NO_END).all()


def test_align_candidates_empty_batch():
    rng = np.random.default_rng(0)
    reads = _random_readset(rng, 4)
    C = _make_candidates(reads, [])
    for mode in ("xdrop", "chain"):
        gl, gb = _align_both(reads, C, mode=mode)
        _assert_same(gl, gb)
        assert gb.nnz == 0
        assert gb.vals.shape == (0, 4)


def test_align_candidates_all_pairs_pruned():
    rng = np.random.default_rng(1)
    reads = _overlapping_readset(rng)
    lengths = reads.lengths
    entries = [(0, 1, (0, 0, 0), None),
               (1, 2, (int(lengths[1]) - K, int(lengths[2]) - K, 1), None)]
    C = _make_candidates(reads, entries)
    filt = AlignmentFilter(min_score=10 ** 6, min_overlap=10 ** 6)
    for mode in ("xdrop", "chain"):
        gl, gb = _align_both(reads, C, mode=mode, filt=filt)
        _assert_same(gl, gb)
        assert gb.nnz == 0


@pytest.mark.parametrize("executor,workers",
                         [("thread", 4), ("process", 4)])
def test_batch_impl_identical_across_executors(executor, workers):
    """Chunked batch tasks reassemble in order on every executor, and the
    sweep's work counters — sums over problems — do not depend on how the
    pairs were chunked (2 chunks serially, 8 on four workers)."""
    rng = np.random.default_rng(9)
    reads = _overlapping_readset(rng, n_reads=12)
    lengths = reads.lengths
    entries = {}
    for _ in range(30):
        i, j = sorted(rng.integers(0, len(reads), 2))
        if i == j:
            continue
        entries[(int(i), int(j))] = (
            int(i), int(j),
            (int(rng.integers(0, lengths[i] - K + 1)),
             int(rng.integers(0, lengths[j] - K + 1)),
             int(rng.integers(0, 2))), None)
    C = _make_candidates(reads, list(entries.values()))
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)

    def run(ex):
        comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
        timer = StageTimer()
        with ex:
            R = align_candidates(C, reads, K, comm, timer,
                                 mode="xdrop", filt=filt, fuzz=30,
                                 executor=ex)
        return R.to_global(), timer.kernel_counts()["Alignment"]

    ref, ref_work = run(get_executor("serial", 1))
    got, got_work = run(get_executor(executor, workers))
    _assert_same(ref, got)
    assert got_work == ref_work
    assert sorted(ref_work) == ["cells", "rounds", "words"]
    assert ref_work["cells"] > ref_work["rounds"] > 0 < ref_work["words"]


def test_align_candidates_second_seed_selection():
    """Pairs whose two seeds sit on either side of an unalignable block:
    each seed's extension covers one side only, so which seed is kept
    decides the pair's R entry.  The batch engine extends both seeds in one
    sweep; its strictly-greater rule must keep exactly what the per-pair
    loop keeps — seed 1 for some of these pairs, seed 2 for others."""
    rng = np.random.default_rng(17)
    sc = Scoring(xdrop=20)

    def noise(n):
        return rng.integers(0, 4, n).astype(np.uint8)

    seqs, entries, kept = [], [], []
    sides = [(260, 120), (120, 260), (200, 200), (90, 300), (300, 90)]
    for p, (left, right) in enumerate(sides):
        al, bl, [(pa1, pb1)] = _noisy_copies(rng, noise(left), 0.08,
                                             (left // 2,))
        ar, br, [(pa2, pb2)] = _noisy_copies(rng, noise(right), 0.08,
                                             (right // 2,))
        a = np.concatenate([noise(300), al, noise(150), ar])
        b = np.concatenate([bl, noise(260), br, noise(300)])
        pa1, pa2 = pa1 + 300, pa2 + 300 + al.size + 150
        pb2 += bl.size + 260
        strand = p % 2
        if strand:
            pb1, pb2 = b.size - K - pb1, b.size - K - pb2
            b = _revcomp(b)
        seeds = [(pa1, pb1, strand), (pa2, pb2, strand)]
        if p >= 3:
            seeds.reverse()
        scores = [seed_extend_align(a, b, *seed[:2], K, strand, sc).score
                  for seed in seeds]
        kept.append(2 if scores[1] > scores[0] else 1)
        entries.append((2 * p, 2 * p + 1, *seeds))
        seqs += [a, b]
    assert set(kept) == {1, 2}
    reads = ReadSet([f"r{i}" for i in range(len(seqs))], seqs)
    C = _make_candidates(reads, entries)
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)
    gl, gb = _align_both(reads, C, filt=filt, fuzz=200, scoring=sc)
    _assert_same(gl, gb)
    assert gb.nnz > 0


@pytest.mark.parametrize("executor,workers", [("serial", 1), ("process", 2)])
def test_align_candidates_parity_on_store_backed_reads(tmp_path, executor,
                                                       workers):
    """A store-backed set hands the kernel memmap'd ``codes`` (process
    workers reopen the store by path); R must equal the loop oracle's on
    the in-memory set."""
    rng = np.random.default_rng(13)
    reads = _overlapping_readset(rng, n_reads=10)
    stored = reads.to_store(str(tmp_path / "store"))
    lengths = reads.lengths
    entries = {}
    for _ in range(25):
        i, j = sorted(int(x) for x in rng.integers(0, len(reads), 2))
        if i != j:
            entries[(i, j)] = (i, j, *(
                (int(rng.integers(0, lengths[i] - K + 1)),
                 int(rng.integers(0, lengths[j] - K + 1)),
                 int(rng.integers(0, 2))) for _ in range(2)))
    C = _make_candidates(reads, list(entries.values()))
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)

    def run(align, rs, ex):
        comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
        with ex:
            return align(C, rs, K, comm, StageTimer(), filt=filt, fuzz=30,
                         executor=ex).to_global()

    ref = run(align_candidates_loop, reads, get_executor("serial", 1))
    assert isinstance(stored.soa()[0], np.memmap)
    _assert_same(ref, run(align_candidates, stored,
                          get_executor(executor, workers)))
    assert ref.nnz > 0


# ---------------------------------------------------------------------------
# Seed dedup: redundant second seeds are skipped with R unchanged.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["xdrop", "chain"])
def test_duplicate_second_seed_leaves_r_unchanged(mode):
    """A second seed equal to the first must yield exactly the R of a
    single-seed entry (the dedup path extends once)."""
    rng = np.random.default_rng(3)
    reads = _overlapping_readset(rng, n_reads=4)
    lengths = reads.lengths
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)
    for strand in (0, 1):
        seed = (int(lengths[0]) // 3, int(lengths[1]) // 3, strand)
        dup = _make_candidates(reads, [(0, 1, seed, seed)])
        single = _make_candidates(reads, [(0, 1, seed, None)])
        for align in (align_candidates_loop, align_candidates):
            out = []
            for C in (dup, single):
                comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
                R = align(C, reads, K, comm, StageTimer(), mode=mode,
                          filt=filt, fuzz=30)
                out.append(R.to_global())
            _assert_same(out[0], out[1])


def test_same_diagonal_second_seed_chain_mode():
    """Chain mode: a second seed on the first's oriented diagonal is
    redundant (the estimate depends only on the diagonal), so R matches the
    single-seed entry; different-diagonal seeds still differ from it."""
    rng = np.random.default_rng(4)
    reads = _overlapping_readset(rng, n_reads=4)
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)

    def r_of(entries):
        C = _make_candidates(reads, entries)
        comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
        return align_candidates(C, reads, K, comm, StageTimer(),
                                mode="chain", filt=filt, fuzz=30).to_global()

    seed1 = (30, 10, 0)
    same_diag = (45, 25, 0)       # pa - pb identical -> same diagonal
    ref = r_of([(0, 1, seed1, None)])
    _assert_same(r_of([(0, 1, seed1, same_diag)]), ref)
