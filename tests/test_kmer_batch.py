"""Parity suite: the histogram k-mer engine vs the dict-loop oracle.

The reliable :class:`~repro.seqs.kmer_counter.KmerTable`, the A matrix, and
the communication records have to be byte-identical to the Bloom-filtered
per-read / per-key reference (``tests/oracles/kmer_loop.py``, the ``"loop"``
legs below) for every process count, batch count, multiplicity window
(``lower >= 2``), executor, and adversarial input shape (intra-batch
duplicates, canonical self-complement k-mers, empty ranks, all-unreliable
tables).
"""

import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.overlap import build_a_matrix
from repro.exec import get_executor
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs.dna import encode
from repro.seqs.fasta import ReadSet
from repro.seqs.kmer_counter import (KmerTable, _group_by_dest_sorted,
                                     _send_lists, count_kmers)
from repro.seqs.kmers import (MAX_K, _pack_all_windows, read_kmers_batch,
                              splitmix64)

from oracles.kmer_loop import (build_a_matrix_loop, count_kmers_loop,
                               group_by_dest_masks)
from oracles.kmers import pack_kmers, read_kmers, string_to_kmer

#: The two engines of every parity leg: the reference, then the runtime.
COUNTERS = {"loop": count_kmers_loop, "batch": count_kmers}
A_BUILDERS = {"loop": build_a_matrix_loop, "batch": build_a_matrix}


def _readset(arrays):
    return ReadSet([f"r{i}" for i in range(len(arrays))],
                   [np.asarray(a, dtype=np.uint8) for a in arrays])


def _count(reads, impl, *, P=1, batches=1, lower=2, upper=10, executor=None):
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    table = COUNTERS[impl](reads, 5, comm, StageTimer(), batches=batches,
                           lower=lower, upper=upper, executor=executor)
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
       st.booleans())
def test_read_kmers_batch_matches_per_read(read_lists, read_only):
    """Every k, over a writable or a read-only code buffer (a caller may
    hand the kernel either): canonical k-mers, and a flip
    wherever the canonical k-mer is not the forward window.  The full-k
    stream CountKmer keeps for a rank (``_extract_batch_task``) is the same
    keys and flips over every span of the reads, empty ones and ones of
    reads shorter than k included, with no read or position columns."""
    from repro.seqs.fasta import _from_arrays
    from repro.seqs.kmer_counter import _extract_batch_task
    from repro.seqs.seeding import FullKScheme
    reads = _readset(read_lists)
    codes, offsets, lengths = reads.soa()
    if read_only:
        codes = codes.copy()
        codes.flags.writeable = False
        reads = _from_arrays(reads.names, codes, offsets, lengths)
    n = len(reads)
    spans = [(0, n), (0, 0), (n, n), (n // 2, n), (0, n // 2),
             (n // 3, min(n // 3 + 1, n))]
    for k in range(1, MAX_K + 1):
        km, ridx, pos, flip = read_kmers_batch(codes, offsets, lengths, k)
        for lo, hi in spans:
            stream = _extract_batch_task((FullKScheme(k), reads), (lo, hi))
            at = (ridx >= lo) & (ridx < hi)
            assert stream[2:] == (None, None)
            assert stream[0].dtype == np.uint64
            assert np.array_equal(stream[0], km[at])
            assert np.array_equal(stream[1], flip[at])
        exp_km, exp_fwd, exp_ridx, exp_pos = [], [], [], []
        for i in range(len(reads)):
            one_km, one_pos = read_kmers(reads[i], k)
            exp_km.append(one_km)
            exp_fwd.append(read_kmers(reads[i], k, canonical=False)[0])
            exp_pos.append(one_pos)
            exp_ridx.append(np.full(one_km.shape[0], i, dtype=np.int64))
        empty = np.empty(0, np.uint64)
        exp_km = np.concatenate(exp_km) if exp_km else empty
        exp_fwd = np.concatenate(exp_fwd) if exp_fwd else empty
        assert km.dtype == np.uint64
        assert np.array_equal(km, exp_km)
        assert np.array_equal(flip, exp_km != exp_fwd)
        assert np.array_equal(ridx, np.concatenate(exp_ridx)
                              if exp_ridx else np.empty(0, np.int64))
        assert np.array_equal(pos, np.concatenate(exp_pos)
                              if exp_pos else np.empty(0, np.int64))


def test_read_kmers_batch_noncontiguous_subset():
    """Reads that do not tile one contiguous stretch of ``codes`` (an
    arbitrary subset of a SoA view's rows) are refused by name."""
    rng = np.random.default_rng(7)
    reads = _readset([rng.integers(0, 4, n) for n in (30, 3, 25, 40, 12)])
    codes, offsets, lengths = reads.soa()
    sel = np.array([4, 0, 2])
    with pytest.raises(ValueError, match="contiguous"):
        read_kmers_batch(codes, offsets[sel], lengths[sel], 5)
    # A contiguous slice of the rows is fine.
    km, ridx, _pos, _ = read_kmers_batch(codes, offsets[1:4], lengths[1:4], 5)
    exp = [read_kmers(reads[i], 5)[0] for i in (1, 2, 3)]
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
    if upper < lower:     # an empty window: both engines refuse it by name
        for impl in ("loop", "batch"):
            with pytest.raises(ValueError, match="upper >= lower"):
                _count(reads, impl, P=P, batches=batches, lower=lower,
                       upper=upper)
        return
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


@pytest.mark.parametrize("executor,workers", [("serial", 1), ("process", 2)])
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
    for count in COUNTERS.values():
        comm = SimComm(1, CommTracker(1))
        table = count(reads, 4, comm, StageTimer(), upper=10)
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


def test_seed_stream_lives_until_the_a_scan(monkeypatch):
    """The unbudgeted stream is extracted once and kept: alive through
    every round's owner histograms, handed to CreateSpMat on the table, and
    gone — from the table and from memory — once the scan superstep has
    returned, before A's blocks are gathered."""
    from repro.core import overlap
    from repro.seqs import kmer_counter as kc
    rng = np.random.default_rng(4)
    reads = _readset([rng.integers(0, 4, 80) for _ in range(12)])
    streams, alive_at_hist, alive_at_gather = [], [], []
    real_extract, real_hist = kc._extract_batch_task, kc._round_hist_task
    real_gather = overlap._gather_blocks

    def alive():
        return sum(ref() is not None for ref in streams)

    def extract(ctx, span):
        stream = real_extract(ctx, span)
        streams.append(weakref.ref(stream[0]))
        return stream

    def hist(ctx, task):
        alive_at_hist.append(alive())
        return real_hist(ctx, task)

    def gather(*args):
        alive_at_gather.append(alive())
        return real_gather(*args)

    monkeypatch.setattr(kc, "_extract_batch_task", extract)
    monkeypatch.setattr(kc, "_round_hist_task", hist)
    monkeypatch.setattr(overlap, "_gather_blocks", gather)
    P, batches = 4, 2
    got, _ = _count(reads, "batch", P=P, batches=batches, upper=30)
    assert alive_at_hist == [P] * (P * batches)
    assert alive() == P and got._stream is not None
    A, _, _ = _build_a(reads, got, "batch", P=P)
    assert alive_at_gather == [0] and alive() == 0
    assert got._stream is None
    monkeypatch.undo()
    ref, _ = _count(reads, "batch", P=P, batches=1, upper=30)
    _assert_tables_equal(ref, got)
    ref.take_stream()
    want, _, _ = _build_a(reads, ref, "batch", P=P)
    for name in ("row", "col", "vals"):
        assert np.array_equal(getattr(A, name), getattr(want, name))


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
    want = group_by_dest_masks(keys, dest, nprocs) if dense else \
        {q: keys[dest == q] for q in np.unique(dest)}
    for q in (range(nprocs) if dense else want):
        assert np.array_equal(got[q], want[q])
    assert sum(part.shape[0] for part in got) == keys.shape[0]
    if dense:    # and through the hash, as count_kmers calls it
        owner = (splitmix64(keys) % np.uint64(nprocs)).astype(np.int64)
        for a, b in zip(_send_lists(keys, nprocs),
                        group_by_dest_masks(keys, owner, nprocs)):
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
    A = A_BUILDERS[impl](reads, table, ProcessGrid2D(P), comm, timer,
                         executor=executor)
    return A.to_global(), tracker, timer


def test_a_matrix_parity(clean_dataset):
    """On a 2×2 grid and on a 3×3 one, whose balanced column bounds are
    uneven (the reference finds each entry's block column by binary
    search)."""
    _genome, reads, _layout = clean_dataset
    sub = reads.subset(np.arange(40))
    comm = SimComm(1, CommTracker(1))
    table = count_kmers(sub, 17, comm, StageTimer(), upper=40)
    for P in (4, 9):
        ga, tra, tma = _build_a(sub, table, "loop", P=P)
        gb, trb, tmb = _build_a(sub, table, "batch", P=P)
        assert np.array_equal(ga.row, gb.row)
        assert np.array_equal(ga.col, gb.col)
        assert np.array_equal(ga.vals, gb.vals)
        assert tra.summary() == trb.summary()
        assert tma.peak_bytes() == tmb.peak_bytes()


def test_a_matrix_parity_palindromes_and_executors():
    """Flip bits for self-complement k-mers, under a process pool too."""
    rng = np.random.default_rng(5)
    base = rng.integers(0, 4, 50)
    reads = _readset([base, base.copy(), np.array([0, 1, 2, 3] * 5)])
    comm = SimComm(1, CommTracker(1))
    table = count_kmers(reads, 4, comm, StageTimer(), upper=100)
    ga, _, _ = _build_a(reads, table, "loop", P=1)
    with get_executor("process", 2) as ex:
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


# -- CreateSpMat from CountKmer's seed stream --------------------------------

def _genome_reads(seed, n_reads=30, short=5):
    """Substrings of one random genome (both strands), the first ``short``
    of them shorter than k = 9, so leading ranks scan empty streams."""
    rng = np.random.default_rng(seed)
    genome = rng.integers(0, 4, 300).astype(np.uint8)
    arrays = []
    for i in range(n_reads):
        length = int(rng.integers(3, 9)) if i < short or i % 5 == 0 \
            else int(rng.integers(20, 90))
        lo = int(rng.integers(0, genome.shape[0] - length))
        read = genome[lo:lo + length]
        arrays.append(3 - read[::-1] if rng.random() < 0.5 else read)
    return _readset(arrays)


def _a_run(reads, table, P, scheme, executor=None):
    tracker = CommTracker(P)
    timer = StageTimer()
    A = build_a_matrix(reads, table, ProcessGrid2D(P), SimComm(P, tracker),
                       timer, executor=executor, scheme=scheme)
    return A, tracker, timer


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("mode", ["full", "minimizer", "syncmer"])
@pytest.mark.parametrize("P", [1, 4, 9, 16])
def test_a_matrix_from_the_kept_stream(P, mode, executor):
    """A table carrying its seed stream builds the same A blocks,
    CreateSpMat records and lookup counters as the same table without it
    (which re-extracts), for every scheme, with reads shorter than k,
    leading ranks whose streams are empty, and the stream crossing a
    process pool — on 1×1 to 4×4 grids, a 3×3 one's uneven column bounds
    included."""
    from repro.seqs.seeding import make_scheme
    reads = _genome_reads(P * 7 + len(mode))
    scheme = make_scheme(mode, 9, 4)
    tracker = CommTracker(P)
    with get_executor(executor, 2) as ex:
        table = count_kmers(reads, 9, SimComm(P, tracker), StageTimer(),
                            upper=100, executor=ex, scheme=scheme)
        bare = pickle.loads(pickle.dumps(table))
        assert table._stream is not None and bare._stream is None
        got = _a_run(reads, table, P, scheme, ex)
        want = _a_run(reads, bare, P, scheme, ex)
    assert table._stream is None
    (A, tra, tma), (B, trb, tmb) = got, want
    assert A.nnz() > 0
    for brow_a, brow_b in zip(A.blocks, B.blocks):
        for a, b in zip(brow_a, brow_b):
            for name in ("row", "col", "vals"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
    assert tra.summary() == trb.summary()
    assert tma.work_counts() == tmb.work_counts()
    assert tma.peak_bytes() == tmb.peak_bytes()


def _counted_seeds(monkeypatch):
    """Count every ``seeds_of_block`` call, whatever the scheme."""
    from repro.seqs import seeding
    calls = []
    for cls in (seeding.FullKScheme, seeding.MinimizerScheme,
                seeding.SyncmerScheme):
        real = cls.seeds_of_block

        def counted(self, *args, _real=real):
            calls.append(type(self).__name__)
            return _real(self, *args)
        monkeypatch.setattr(cls, "seeds_of_block", counted)
    return calls


def test_unbudgeted_batch_run_extracts_each_rank_once(clean_dataset,
                                                      monkeypatch):
    """One extraction per rank per run: CountKmer's, which CreateSpMat
    reuses.  A budgeted count keeps no stream, so its A scan re-extracts
    (the same A either way)."""
    from repro import PipelineConfig, run_pipeline
    _genome, reads, _layout = clean_dataset
    reads = reads.subset(np.arange(60))
    base = dict(k=17, nprocs=4, align_mode="chain", depth_hint=12,
                error_hint=0.0, fuzz=20, seed_mode="full",
                overlap_mode="monolithic", read_store="inmem",
                workers=1, executor="serial", fault_plan="")
    calls = _counted_seeds(monkeypatch)
    res = run_pipeline(reads, PipelineConfig(**base))
    assert len(calls) == 4
    del calls[:]
    budgeted = run_pipeline(reads, PipelineConfig(**base,
                                                  memory_budget=1 << 30))
    assert len(calls) > 4
    assert res.nnz_a == budgeted.nnz_a
    assert np.array_equal(res.S.vals, budgeted.S.vals)


def test_a_scan_refuses_a_stream_of_other_reads_or_scheme(monkeypatch):
    """The stream is bound to the ReadSet object, the scheme and the rank
    spans it was cut from: any mismatch re-extracts (same A as a bare
    table), and the stream is dropped either way."""
    from repro.seqs.seeding import make_scheme
    reads = _genome_reads(3, n_reads=20, short=2)
    twin = _readset([reads[i] for i in range(len(reads))])
    full, mini = make_scheme("full", 9), make_scheme("minimizer", 9, 4)

    def count(scheme, P=4):
        return count_kmers(reads, 9, SimComm(P, CommTracker(P)),
                           StageTimer(), upper=100, scheme=scheme)

    for build_reads, table, scheme in [
            (twin, count(full), full),            # equal bases, other object
            (reads, count(mini), full),           # other scheme
            (reads, count(full, P=1), full)]:     # other rank spans (P = 4)
        bare = pickle.loads(pickle.dumps(table))
        calls = _counted_seeds(monkeypatch)
        A, tra, _ = _a_run(build_reads, table, 4, scheme)
        assert len(calls) == 4
        assert table._stream is None
        monkeypatch.undo()
        B, trb, _ = _a_run(build_reads, bare, 4, scheme)
        g, h = A.to_global(), B.to_global()
        for name in ("row", "col", "vals"):
            assert np.array_equal(getattr(g, name), getattr(h, name))
        assert tra.summary() == trb.summary()


def test_only_the_unbudgeted_batch_count_keeps_a_stream(tmp_path):
    reads = _genome_reads(8)
    comm = SimComm(4, CommTracker(4))
    kept = count_kmers(reads, 9, comm, StageTimer(), upper=100)
    assert kept._stream is not None
    assert pickle.loads(pickle.dumps(kept))._stream is None
    for count, kw in ((count_kmers_loop, {}),
                      (count_kmers,
                       dict(table_budget=64, spill_dir=str(tmp_path)))):
        other = count(reads, 9, comm, StageTimer(), upper=100, **kw)
        assert other._stream is None
        assert other.seeds == kept.seeds
        _assert_tables_equal(other, kept)
