"""Tests for the two-pass distributed k-mer counter."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.overlap import build_a_matrix
from repro.exec import get_executor
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs import kmer_counter
from repro.seqs.dna import encode
from repro.seqs.fasta import ReadSet
from repro.seqs.kmer_counter import (KmerTable, count_kmers,
                                     reliable_upper_bound)
from repro.seqs.kmers import read_kmers


def _exact_counts(reads, k):
    """Reference: exact canonical k-mer multiplicities."""
    from collections import Counter
    counts: Counter = Counter()
    for i in range(len(reads)):
        km, _ = read_kmers(reads[i], k)
        counts.update(km.tolist())
    return counts


def _counts_match(reads, k, P, lower=2, upper=10):
    comm = SimComm(P, CommTracker(P))
    table = count_kmers(reads, k, comm, StageTimer(), lower=lower,
                        upper=upper)
    exact = _exact_counts(reads, k)
    expected = {km: c for km, c in exact.items() if lower <= c <= upper}
    got = dict(zip(table.kmers.tolist(), table.counts.tolist()))
    return expected, got


@pytest.mark.parametrize("P", [1, 2, 4])
def test_counts_exact_vs_reference(clean_dataset, P):
    _genome, reads, _layout = clean_dataset
    sub = reads.subset(np.arange(30))
    expected, got = _counts_match(sub, 17, P)
    assert got == expected


def test_singletons_eliminated():
    # Two identical reads plus one unique read: the unique read's k-mers are
    # singletons (modulo chance collisions) and must not appear.
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, 100).astype(np.uint8)
    b = rng.integers(0, 4, 100).astype(np.uint8)
    reads = ReadSet(["a1", "a2", "b"], [a.copy(), a.copy(), b])
    comm = SimComm(2, CommTracker(2))
    table = count_kmers(reads, 21, comm, StageTimer(), upper=50)
    assert (table.counts >= 2).all()
    # All reliable k-mers come from the duplicated read.
    km_a, _ = read_kmers(a, 21)
    assert set(table.kmers.tolist()) <= set(km_a.tolist())


def test_high_frequency_kmers_dropped():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, 60).astype(np.uint8)
    reads = ReadSet([f"r{i}" for i in range(20)], [a.copy() for _ in range(20)])
    comm = SimComm(1, CommTracker(1))
    table = count_kmers(reads, 21, comm, StageTimer(), upper=10)
    assert len(table) == 0  # every k-mer occurs 20 > 10 times


def test_lookup():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 4, 80).astype(np.uint8)
    reads = ReadSet(["x", "y"], [a.copy(), a.copy()])
    comm = SimComm(1, CommTracker(1))
    table = count_kmers(reads, 15, comm, StageTimer(), upper=50)
    km, _ = read_kmers(a, 15)
    ids = table.lookup(km)
    assert (ids >= 0).all()
    missing = table.lookup(np.array([np.uint64(2**61 - 1)]))
    assert missing[0] == -1


def test_batches_increase_latency_not_volume(clean_dataset):
    _genome, reads, _layout = clean_dataset
    sub = reads.subset(np.arange(40))
    vols, msgs = [], []
    for b in (1, 3):
        tracker = CommTracker(4)
        comm = SimComm(4, tracker)
        count_kmers(sub, 17, comm, StageTimer(), batches=b, upper=40)
        rec = tracker.records["CountKmer"]
        vols.append(rec.total_bytes)
        msgs.append(rec.total_messages)
    assert vols[0] == pytest.approx(vols[1], rel=0.01)
    assert msgs[1] > msgs[0]


def test_p_invariance(clean_dataset):
    _genome, reads, _layout = clean_dataset
    sub = reads.subset(np.arange(40))
    tables = []
    for P in (1, 3, 5):
        comm = SimComm(P, CommTracker(P))
        t = count_kmers(sub, 17, comm, StageTimer(), upper=40)
        tables.append(dict(zip(t.kmers.tolist(), t.counts.tolist())))
    assert tables[0] == tables[1] == tables[2]


def test_reliable_upper_bound_matches_paper_regime():
    """With the paper's CLR parameters (k=17, 15% error, depth 10) the BELLA
    model lands at a small cutoff — the paper used max frequency 4."""
    assert reliable_upper_bound(10, 0.15, 17) == 4
    # Higher depth / lower error raises the ceiling.
    assert reliable_upper_bound(40, 0.13, 17) > 4


def test_empty_reads():
    reads = ReadSet(["e"], [encode("ACG")])  # shorter than k
    comm = SimComm(1, CommTracker(1))
    table = count_kmers(reads, 17, comm, StageTimer())
    assert len(table) == 0


# -- KmerTable.lookup: the prefix-bucket index vs a binary-search oracle -----

STEPS = kmer_counter._LOOKUP_STEPS


def _table(keys, k=17):
    keys = np.array(sorted(keys), dtype=np.uint64)
    return KmerTable(k=k, kmers=keys,
                     counts=np.full(keys.shape[0], 2, dtype=np.int64),
                     lower=2, upper=4)


def _lookup_oracle(keys, queries):
    """The ``searchsorted`` lookup the bucket walk replaced."""
    if keys.shape[0] == 0:
        return np.full(queries.shape[0], -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, queries), keys.shape[0] - 1)
    return np.where(keys[at] == queries, at, -1)


def _check_lookup(table, queries):
    """Parity with the oracle plus the counters' invariants; returns the
    tally."""
    queries.setflags(write=False)
    tally = {}
    got = table.lookup(queries, tally)
    assert got.dtype == np.int64
    assert np.array_equal(got, _lookup_oracle(table.kmers, queries))
    assert tally["windows"] == queries.shape[0]
    assert tally["leftover"] <= tally["windows"]
    assert tally["probes"] <= STEPS * tally["windows"]
    # Per-query sums: any batching of the same queries adds up to them.
    split = {}
    for part in np.array_split(queries, 3):
        table.lookup(part, split)
    assert split == tally
    return tally


def test_lookup_empty_table():
    table = _table([])
    ids = table.lookup(np.array([0, 5, 2 ** 62], dtype=np.uint64))
    assert (ids == -1).all()
    assert table.lookup(np.empty(0, dtype=np.uint64)).shape == (0,)
    tally = _check_lookup(table, np.array([0, 5, 2 ** 62], dtype=np.uint64))
    assert tally == {"windows": 3, "probes": 0, "leftover": 0}


def test_lookup_below_and_above_all_entries():
    table = _table([100, 200, 300])
    ids = table.lookup(np.array([0, 99, 301, 2 ** 62], dtype=np.uint64))
    assert (ids == -1).all()
    ids = table.lookup(np.array([100, 300, 200], dtype=np.uint64))
    assert ids.tolist() == [0, 2, 1]


def test_lookup_single_entry_table():
    table = _table([42])
    ids = table.lookup(np.array([41, 42, 43], dtype=np.uint64))
    assert ids.tolist() == [-1, 0, -1]
    zero = _table([0])
    assert zero.lookup(np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64)
                       ).tolist() == [0, -1, -1]


def test_lookup_counts_walk_by_hand():
    """Keys 100, 200, 300 fall in buckets 0, 1, 2 of four (top 2 of 9
    bits).  99, 100 and 150 each stop at the first key they meet; 301
    walks off the end of the table and is the one query left to the binary
    search."""
    table = _table([100, 200, 300])
    tally = {}
    ids = table.lookup(np.array([99, 100, 150, 301], dtype=np.uint64), tally)
    assert ids.tolist() == [-1, 0, -1, -1]
    assert tally == {"windows": 4, "probes": 3 + STEPS, "leftover": 1}


def test_lookup_refuses_non_uint64_queries():
    table = _table([100, 200, 300])
    for bad in (np.array([100, 200]), np.array([100.0]),
                np.array([100], dtype=np.int32)):
        with pytest.raises(TypeError, match="uint64"):
            table.lookup(bad)
    with pytest.raises(TypeError, match="uint64"):
        _table([]).lookup(np.array([1, 2]))


@settings(max_examples=120, deadline=None)
@given(k=st.sampled_from([5, 17, 31]), n_keys=st.integers(0, 400),
       spread_bits=st.sampled_from([0, 4, 10, 62]),
       seed=st.integers(0, 2 ** 32 - 1),
       order=st.sampled_from(["shuffled", "sorted", "doubled"]))
def test_lookup_matches_searchsorted_oracle(k, n_keys, spread_bits, seed,
                                            order):
    """Random and clustered tables (``spread_bits`` low bits around three
    shared prefixes; 62 = uniform) under hits, neighbours of hits, uniform
    misses, and queries below the minimum and above the maximum key."""
    rng = np.random.default_rng(seed)
    top = 4 ** k
    if spread_bits == 62:
        keys = rng.integers(0, top, n_keys, dtype=np.uint64)
    else:
        keys = rng.choice(rng.integers(0, top, 3, dtype=np.uint64), n_keys) \
            + rng.integers(0, 1 << spread_bits, n_keys, dtype=np.uint64)
    keys = np.unique(np.minimum(keys, np.uint64(top - 1)))
    keys.setflags(write=False)
    table = KmerTable(k=k, kmers=keys,
                      counts=np.full(keys.shape[0], 2, dtype=np.int64),
                      lower=2, upper=4)
    assert table._starts.nbytes <= max(keys.nbytes, 8) + 4
    one = np.uint64(1)
    queries = np.concatenate([
        keys, keys + one, keys - one,               # 0 - 1 wraps to 2^64 - 1
        rng.integers(0, top, 200, dtype=np.uint64),
        np.array([0, 1, top - 1, top, 2 ** 62, 2 ** 63, 2 ** 64 - 1],
                 dtype=np.uint64)])
    if order == "sorted":
        queries = np.sort(queries)
    elif order == "doubled":
        queries = np.repeat(queries, 2)
    else:
        rng.shuffle(queries)
    _check_lookup(table, queries)


def test_lookup_skewed_table_is_bounded():
    """Keys sharing all but their low 10 bits (k = 31) sit in one bucket:
    the walk cannot help, and what it may waste is bounded — at most
    ``STEPS`` probes and one binary search per window, the deterministic
    stand-in for "no slower than the binary search alone"."""
    rng = np.random.default_rng(7)
    base = np.uint64(0x2AAA_AAAA_AAAA_A800)           # 62 bits, low 10 clear
    keys = base + np.unique(rng.integers(0, 1024, 700, dtype=np.uint64))
    table = _table(keys.tolist(), k=31)
    assert np.count_nonzero(np.diff(table._starts)) == 1
    queries = base + rng.integers(0, 1024, 5000, dtype=np.uint64)
    tally = _check_lookup(table, queries)
    assert tally["probes"] + tally["leftover"] <= (STEPS + 1) * 5000
    # Nearly every query outlasts the walk.
    assert tally["leftover"] > 0.9 * 5000
    # The well-spread counterpart resolves nearly everything in the walk.
    spread = _table(rng.integers(0, 4 ** 31, 700, dtype=np.uint64).tolist(),
                    k=31)
    hits = rng.choice(spread.kmers, 5000)
    tally = _check_lookup(spread, hits)
    assert tally["leftover"] < 0.05 * 5000


def test_lookup_index_travels_with_a_pickled_table(clean_dataset,
                                                   monkeypatch):
    """The index is built once, where the table is made: a table pickled
    to a process worker arrives with it (nothing is rebuilt per task or per
    worker), and the workers' lookup counters come back with their
    results."""
    _genome, reads, _layout = clean_dataset
    sub = reads.subset(np.arange(24))
    table = count_kmers(sub, 17, SimComm(1, CommTracker(1)), StageTimer(),
                        upper=40)
    builds = []
    real = KmerTable.__post_init__
    monkeypatch.setattr(KmerTable, "__post_init__",
                        lambda self: (builds.append(1), real(self))[1])
    clone = pickle.loads(pickle.dumps(table))
    assert not builds
    assert np.array_equal(clone._starts, table._starts)
    assert clone._shift == table._shift

    def build(executor, impl):
        timer = StageTimer()
        A = build_a_matrix(sub, table, ProcessGrid2D(4),
                           SimComm(4, CommTracker(4)), timer,
                           executor=executor, impl=impl)
        return A.to_global(), timer.work_counts()["CreateSpMat"]

    ref, ref_work = build(None, "batch")
    assert set(ref_work) == {"windows", "probes", "leftover"}
    assert ref_work["windows"] == sum(max(0, len(sub[i]) - 16)
                                      for i in range(len(sub)))
    with get_executor("process", 2) as ex:
        got, work = build(ex, "batch")
    assert not builds
    assert work == ref_work
    assert np.array_equal(got.row, ref.row)
    assert np.array_equal(got.col, ref.col)
    assert np.array_equal(got.vals, ref.vals)
    # Per-query sums do not depend on the scan engine's batching either.
    assert build(None, "loop")[1] == ref_work
