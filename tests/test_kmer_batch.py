"""Parity suite: the histogram k-mer engine vs the dict-loop oracle.

``kmer_impl="batch"`` must be a pure performance axis: the reliable
:class:`~repro.seqs.kmer_counter.KmerTable`, the A matrix, and the
communication records have to be byte-identical to the Bloom-filtered
per-read / per-key reference for every process count, batch count,
multiplicity window (``lower >= 2``), executor, and adversarial input shape
(intra-batch duplicates, canonical self-complement k-mers, empty ranks,
all-unreliable tables).
"""

import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.overlap import build_a_matrix
from repro.exec import get_executor
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs.dna import encode
from repro.seqs.fasta import ReadSet
from repro.seqs.kmer_counter import (KmerTable, _group_by_dest_masks,
                                     _group_by_dest_sorted, _send_lists,
                                     count_kmers)
from repro.seqs.kmers import (MAX_K, _pack_all_windows, pack_kmers,
                              read_kmers, read_kmers_batch, splitmix64,
                              string_to_kmer)

def _readset(arrays):
    return ReadSet([f"r{i}" for i in range(len(arrays))],
                   [np.asarray(a, dtype=np.uint8) for a in arrays])


def _count(reads, impl, *, P=1, batches=1, lower=2, upper=10, executor=None):
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    table = count_kmers(reads, 5, comm, StageTimer(), batches=batches,
                        lower=lower, upper=upper, executor=executor,
                        impl=impl)
    return table, tracker


def _assert_tables_equal(a: KmerTable, b: KmerTable):
    assert np.array_equal(a.kmers, b.kmers)
    assert np.array_equal(a.counts, b.counts)
    assert a.kmers.dtype == b.kmers.dtype
    assert a.counts.dtype == b.counts.dtype


# -- read_kmers_batch vs per-read extraction --------------------------------

@pytest.mark.parametrize("k", range(1, MAX_K + 1))
def test_pack_all_windows_matches_pack_kmers(k):
    """Every k, so every level where the doubling dtype widens (4 → 5,
    8 → 9, 16 → 17 bases), on random bases and on all-T (the largest code,
    which overflows a level kept one dtype too narrow); the result is in
    the narrowest dtype that holds a k-base pack."""
    rng = np.random.default_rng(k)
    for buf in (rng.integers(0, 4, 3 * k + 40).astype(np.uint8),
                np.full(k, 3, dtype=np.uint8)):
        got = _pack_all_windows(buf, k)
        assert np.array_equal(got, pack_kmers(buf, k))
        assert 8 * got.dtype.itemsize == next(
            bits for bits in (8, 16, 32, 64) if 2 * k <= bits)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(st.integers(0, 3), min_size=0, max_size=60),
                min_size=0, max_size=12),
       st.booleans(), st.booleans())
def test_read_kmers_batch_matches_per_read(read_lists, canonical, read_only):
    """Every k, canonical or not, over a writable or a read-only code
    buffer (the mmap read store hands the kernel a read-only one)."""
    reads = _readset(read_lists)
    codes, offsets, lengths = reads.soa()
    if read_only:
        codes = codes.copy()
        codes.flags.writeable = False
    for k in range(1, MAX_K + 1):
        km, ridx, pos, flip = read_kmers_batch(codes, offsets, lengths, k,
                                               canonical=canonical)
        exp_km, exp_ridx, exp_pos = [], [], []
        for i in range(len(reads)):
            one_km, one_pos = read_kmers(reads[i], k, canonical=canonical)
            exp_km.append(one_km)
            exp_pos.append(one_pos)
            exp_ridx.append(np.full(one_km.shape[0], i, dtype=np.int64))
        exp_km = np.concatenate(exp_km) if exp_km else np.empty(0, np.uint64)
        assert km.dtype == np.uint64
        assert np.array_equal(km, exp_km)
        assert np.array_equal(ridx, np.concatenate(exp_ridx)
                              if exp_ridx else np.empty(0, np.int64))
        assert np.array_equal(pos, np.concatenate(exp_pos)
                              if exp_pos else np.empty(0, np.int64))
        if canonical:
            fwd = read_kmers_batch(codes, offsets, lengths, k,
                                   canonical=False)[0]
            assert np.array_equal(flip, km != fwd)
        else:
            assert not flip.any()


def test_read_kmers_batch_noncontiguous_subset():
    """Arbitrary read subsets (gather path) must match the fast path."""
    rng = np.random.default_rng(7)
    reads = _readset([rng.integers(0, 4, n) for n in (30, 3, 25, 40, 12)])
    codes, offsets, lengths = reads.soa()
    sel = np.array([4, 0, 2])
    km, ridx, pos, _ = read_kmers_batch(codes, offsets[sel], lengths[sel], 5)
    exp = [read_kmers(reads[int(i)], 5)[0] for i in sel]
    assert np.array_equal(km, np.concatenate(exp))
    assert np.array_equal(
        ridx, np.repeat(np.arange(3), [e.shape[0] for e in exp]))


# -- counting parity ---------------------------------------------------------

@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(st.integers(0, 3), min_size=0, max_size=30),
                min_size=1, max_size=10),
       st.integers(1, 4),      # P
       st.integers(1, 3),      # batches
       st.sampled_from([2, 3]),  # lower
       st.integers(2, 6))      # upper
def test_count_parity_hypothesis(read_lists, P, batches, lower, upper):
    reads = _readset(read_lists)
    tl, trl = _count(reads, "loop", P=P, batches=batches, lower=lower,
                     upper=upper)
    tb, trb = _count(reads, "batch", P=P, batches=batches, lower=lower,
                     upper=upper)
    _assert_tables_equal(tl, tb)
    assert trl.summary() == trb.summary()


@pytest.mark.parametrize("impl", ("loop", "batch"))
def test_lower_below_two_is_refused(impl):
    """A two-pass Bloom count cannot observe singletons: neither engine
    pretends to."""
    reads = _readset([[0, 1, 2, 3, 0, 1, 2]])
    with pytest.raises(ValueError, match="lower >= 2"):
        _count(reads, impl, lower=1)


@pytest.mark.parametrize("executor,workers", [("serial", 1), ("thread", 3),
                                              ("process", 2)])
def test_count_parity_across_executors(clean_dataset, executor, workers):
    _genome, reads, _layout = clean_dataset
    sub = reads.subset(np.arange(30))
    ref, _ = _count(sub, "loop", P=4, batches=2, upper=30)
    with get_executor(executor, workers) as ex:
        got, tr = _count(sub, "batch", P=4, batches=2, upper=30,
                         executor=ex)
    _assert_tables_equal(ref, got)


def test_intra_batch_duplicate_keys():
    """A read that is one k-mer repeated floods each round with duplicates."""
    reads = _readset([[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],  # ACACAC...
                      [0, 1, 0, 1, 0],
                      [2, 3, 2, 3, 2, 3, 2, 3]])
    for batches in (1, 2, 3):
        tl, _ = _count(reads, "loop", P=2, batches=batches, upper=50)
        tb, _ = _count(reads, "batch", P=2, batches=batches, upper=50)
        _assert_tables_equal(tl, tb)
        assert len(tb) > 0


def test_canonical_self_complement_kmers():
    """Even k admits palindromic k-mers (revcomp == self, flip bit 0)."""
    # ACGT's reverse complement is ACGT.
    pal = encode("ACGT")
    reads = ReadSet(["p1", "p2"], [pal.copy(), pal.copy()])
    for impl in ("loop", "batch"):
        comm = SimComm(1, CommTracker(1))
        table = count_kmers(reads, 4, comm, StageTimer(), upper=10,
                            impl=impl)
        km, _ = read_kmers(pal, 4)
        assert set(km.tolist()) == set(table.kmers.tolist())


def test_empty_ranks():
    """More ranks than distinct k-mers leaves some ranks with no traffic."""
    reads = _readset([[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]])
    for impl in ("loop", "batch"):
        table, _ = _count(reads, impl, P=7, upper=50)
        assert len(table) == 1  # only AAAAA
    tl, _ = _count(reads, "loop", P=7, upper=50)
    tb, _ = _count(reads, "batch", P=7, upper=50)
    _assert_tables_equal(tl, tb)


def test_all_unreliable_tables():
    """Every k-mer outside [lower, upper] → empty table on both engines."""
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, 40)
    reads = _readset([a, a.copy(), a.copy()])  # every k-mer count 3
    for impl in ("loop", "batch"):
        table, _ = _count(reads, impl, P=2, lower=2, upper=2)
        assert len(table) == 0


def test_multi_batch_matches_single_batch():
    """Regression for the per-batch sorted-key rebuild: batching is a pure
    latency knob, so any round count yields the identical table."""
    rng = np.random.default_rng(9)
    reads = _readset([rng.integers(0, 4, 60) for _ in range(9)])
    for impl in ("loop", "batch"):
        ref, _ = _count(reads, impl, P=3, batches=1, upper=30)
        for batches in (2, 3, 5):
            got, _ = _count(reads, impl, P=3, batches=batches, upper=30)
            _assert_tables_equal(ref, got)


def test_seed_stream_is_released_with_its_last_round(monkeypatch):
    """The resident seed stream is the stage's largest array and dead once
    the last round's send lists exist: it must be gone while that round's
    owner histograms — the stage's memory peak — are formed, and still
    there for every earlier round."""
    from repro.seqs import kmer_counter as kc
    rng = np.random.default_rng(4)
    reads = _readset([rng.integers(0, 4, 80) for _ in range(12)])
    streams, alive_at_hist = [], []
    real_extract, real_hist = kc._extract_batch_task, kc._round_hist_task

    def extract(ctx, span):
        stream = real_extract(ctx, span)
        streams.append(weakref.ref(stream))
        return stream

    def hist(ctx, incoming):
        alive_at_hist.append(sum(ref() is not None for ref in streams))
        return real_hist(ctx, incoming)

    monkeypatch.setattr(kc, "_extract_batch_task", extract)
    monkeypatch.setattr(kc, "_round_hist_task", hist)
    P, batches = 3, 2
    got, _ = _count(reads, "batch", P=P, batches=batches, upper=30)
    assert alive_at_hist == [P] * P + [0] * P
    monkeypatch.undo()
    _assert_tables_equal(_count(reads, "batch", P=P, batches=1, upper=30)[0],
                         got)


# -- send lists: the owner partition vs one mask per rank --------------------

@pytest.mark.parametrize("nprocs", [1, 2, 16, 255, 256, 257, 70_000])
def test_send_lists_match_the_mask_oracle(nprocs):
    """Every rank-id width the partition narrows to (uint8 up to 256 ranks,
    uint16, uint32) and ranks that receive nothing: each send list is the
    boolean-mask oracle's, element for element in stream order."""
    rng = np.random.default_rng(nprocs)
    keys = rng.integers(0, 4 ** 17, 3000, dtype=np.uint64)
    keys[::7] = keys[0]                       # repeats keep stream order
    dest = rng.integers(0, nprocs, keys.shape[0])
    dest[:5] = nprocs - 1                     # the top id is in range
    got = _group_by_dest_sorted(keys, dest, nprocs)
    assert len(got) == nprocs
    dense = nprocs <= 300                     # 70 000 masks would be slow
    want = _group_by_dest_masks(keys, dest, nprocs) if dense else \
        {q: keys[dest == q] for q in np.unique(dest)}
    for q in (range(nprocs) if dense else want):
        assert np.array_equal(got[q], want[q])
    assert sum(part.shape[0] for part in got) == keys.shape[0]
    if dense:    # and through the hash, as count_kmers calls it
        owner = (splitmix64(keys) % np.uint64(nprocs)).astype(np.int64)
        for a, b in zip(_send_lists(keys, nprocs),
                        _group_by_dest_masks(keys, owner, nprocs)):
            assert np.array_equal(a, b)


def test_send_lists_refuse_out_of_range_owners():
    keys = np.arange(4, dtype=np.uint64)
    for dest in ([0, 1, 2, 3], [0, -1, 1, 2], [0, 1, 2, 256 + 1]):
        with pytest.raises(ValueError, match="owner ids"):
            _group_by_dest_sorted(keys, np.array(dest), 3)
    empty = _group_by_dest_sorted(keys[:0], np.empty(0, np.int64), 3)
    assert [part.shape for part in empty] == [(0,)] * 3


# -- A-matrix parity ---------------------------------------------------------

def _build_a(reads, table, impl, P=4, executor=None):
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    timer = StageTimer()
    A = build_a_matrix(reads, table, ProcessGrid2D(P), comm, timer,
                       executor=executor, impl=impl)
    return A.to_global(), tracker, timer


def test_a_matrix_parity(clean_dataset):
    _genome, reads, _layout = clean_dataset
    sub = reads.subset(np.arange(40))
    comm = SimComm(1, CommTracker(1))
    table = count_kmers(sub, 17, comm, StageTimer(), upper=40)
    ga, tra, tma = _build_a(sub, table, "loop")
    gb, trb, tmb = _build_a(sub, table, "batch")
    assert np.array_equal(ga.row, gb.row)
    assert np.array_equal(ga.col, gb.col)
    assert np.array_equal(ga.vals, gb.vals)
    assert tra.summary() == trb.summary()
    assert tma.peak_bytes() == tmb.peak_bytes()


def test_a_matrix_parity_palindromes_and_executors():
    """Flip bits for self-complement k-mers, under a thread pool too."""
    rng = np.random.default_rng(5)
    base = rng.integers(0, 4, 50)
    reads = _readset([base, base.copy(), np.array([0, 1, 2, 3] * 5)])
    comm = SimComm(1, CommTracker(1))
    table = count_kmers(reads, 4, comm, StageTimer(), upper=100)
    ga, _, _ = _build_a(reads, table, "loop", P=1)
    with get_executor("thread", 2) as ex:
        gb, _, _ = _build_a(reads, table, "batch", P=1, executor=ex)
    assert np.array_equal(ga.row, gb.row)
    assert np.array_equal(ga.col, gb.col)
    assert np.array_equal(ga.vals, gb.vals)


def test_a_matrix_keeps_the_first_occurrence():
    """A read carrying one reliable k-mer three times — reverse-complement
    at 4, forward at 13, reverse-complement at 22 — yields one A entry with
    the earliest window's position and flip, on both scan engines."""
    from repro.core.semirings import A_FLIP, A_POS
    read = encode("GGGG" "CGGTT" "GGGG" "AACCG" "GGGG" "CGGTT" "GGG")
    x = string_to_kmer("AACCG")              # canonical; CGGTT is its revcomp
    km, pos = read_kmers(read, 5)
    assert pos[km == x].tolist() == [4, 13, 22]
    table = KmerTable(k=5, kmers=np.array([x], np.uint64),
                      counts=np.array([3], np.int64), lower=2, upper=4)
    for impl in ("loop", "batch"):
        g, _, _ = _build_a(ReadSet(["r"], [read]), table, impl, P=1)
        assert (g.row.tolist(), g.col.tolist()) == ([0], [0])
        assert (g.vals[0, A_POS], g.vals[0, A_FLIP]) == (4, 1)


def test_a_matrix_empty_table():
    reads = _readset([[0, 1, 2, 3, 0, 1]])
    table = KmerTable(k=5, kmers=np.empty(0, np.uint64),
                      counts=np.empty(0, np.int64), lower=2, upper=4)
    for impl in ("loop", "batch"):
        g, _, _ = _build_a(reads, table, impl, P=1)
        assert g.nnz == 0
