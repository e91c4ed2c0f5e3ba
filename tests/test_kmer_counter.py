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

from oracles.kmer_loop import build_a_matrix_loop, count_kmers_loop
from oracles.kmers import read_kmers


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


#: Every ``(depth_hint, error_hint)`` the repository runs with — the bench
#: workloads, the ``eval`` dataset presets, the examples, the CLI defaults
#: and the hints the test suites pass — and the ``upper`` each gave when the
#: bound was scipy's ``poisson.ppf``: at k = 17, and at the k = 5 a test uses.
REPO_HINTS = {
    (10, 0.12): (5, 13), (30, 0.13): (9, 27), (40, 0.01): (52, 57),
    (12, 0.01): (20, 22), (15, 0.05): (15, 23), (40, 0.13): (10, 34),
    (10, 0.15): (4, 12), (18, 0.06): (15, 25), (30, 0.15): (7, 25),
    (10, 0.0): (20, 20), (8, 0.0): (17, 17), (9, 0.0): (19, 19),
    (12, 0.0): (23, 23), (12, 0.05): (13, 19), (12, 0.12): (6, 15),
    (8, 0.05): (10, 14), (9, 0.05): (10, 16), (10, 0.05): (11, 17),
}


@pytest.mark.parametrize("hints", sorted(REPO_HINTS), ids=str)
def test_reliable_upper_bound_keeps_every_repo_value(hints):
    depth, error = hints
    assert (reliable_upper_bound(depth, error, 17),
            reliable_upper_bound(depth, error, 5)) == REPO_HINTS[hints]


@pytest.mark.parametrize("q", (0.5, 0.9, 0.99, 0.998, 0.999, 0.9999))
def test_poisson_quantile_matches_scipy(q):
    """The in-house quantile is scipy's ``poisson.ppf``, point for point,
    over μ from 1e-3 to 1e4 and densely over the range the hints reach."""
    from scipy import stats

    mus = np.unique(np.concatenate([np.geomspace(1e-3, 1e4, 601),
                                    np.linspace(0.01, 60.0, 2000)]))
    want = stats.poisson.ppf(q, mus).astype(np.int64)
    got = np.array([kmer_counter._poisson_quantile(q, float(mu))
                    for mu in mus])
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, list(zip(mus[bad], got[bad], want[bad]))[:5]


def test_poisson_quantile_edges():
    from scipy import stats

    quantile = kmer_counter._poisson_quantile
    # μ → 0: all the mass sits at 0, for any q short of 1.
    for mu in (1e-300, 1e-12, 1e-3):
        assert quantile(0.999, mu) == 0
    assert quantile(0.9999, 1e-3) == 1
    assert quantile(0.5, 0.0) == 0
    # Tiny q lands in the left tail, where exp(-μ) alone would underflow.
    for q in (1e-300, 1e-10, 1e-3):
        for mu in (1.0, 10.0, 800.0, 1e4):
            assert quantile(q, mu) == int(stats.poisson.ppf(q, mu))
    # Far past exp(-μ)'s underflow, and q within 1e-12 of 1.
    assert quantile(0.998, 1e4) == 10_289
    assert quantile(1 - 1e-12, 1e4) == int(stats.poisson.ppf(1 - 1e-12, 1e4))
    # The floor of 4 still holds where the quantile is below it.
    assert reliable_upper_bound(1e-3, 0.0, 17) == 4


@pytest.mark.parametrize("kwargs, match", [
    (dict(depth=0), "depth"), (dict(depth=-3), "depth"),
    (dict(depth=float("nan")), "depth"), (dict(depth=float("inf")), "depth"),
    (dict(depth=1e300), "depth"),
    (dict(error_rate=1.0), "error_rate"), (dict(error_rate=1.5), "error_rate"),
    (dict(error_rate=-0.1), "error_rate"),
    (dict(error_rate=float("nan")), "error_rate"),
    (dict(quantile=0.0), "quantile"), (dict(quantile=1.0), "quantile"),
    (dict(quantile=float("nan")), "quantile"),
])
def test_reliable_upper_bound_refuses_bad_inputs_by_name(kwargs, match):
    args = {"depth": 10.0, "error_rate": 0.15, "k": 17, **kwargs}
    with pytest.raises(ValueError, match=match):
        reliable_upper_bound(**args)


@pytest.mark.parametrize("impl", ("loop", "batch"))
@pytest.mark.parametrize("bad, match", [
    (dict(batches=0), "batches >= 1"),
    (dict(batches=-1), "batches >= 1"),
    (dict(upper=1), "upper >= lower"),
    (dict(lower=5, upper=4), "upper >= lower"),
])
def test_bad_counting_parameters_are_refused(impl, bad, match):
    """Both engines used to return an empty table for these (``loop`` is
    the reference in ``tests/oracles/kmer_loop.py``)."""
    reads = ReadSet(["a", "b"], [encode("ACGTACGGTCAG" * 4)] * 2)
    count = count_kmers if impl == "batch" else count_kmers_loop
    with pytest.raises(ValueError, match=match):
        count(reads, 5, SimComm(1, CommTracker(1)), StageTimer(), **bad)


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
    tally.  The same keys under a reliable fraction that selects the
    occupancy prefilter must give the same columns and ``windows``: the
    map only spares misses the walk, so ``probes`` and ``leftover`` can
    only shrink, and stay per-query sums."""
    queries.setflags(write=False)
    tally = {}
    got = table.lookup(queries, tally)
    assert got.dtype == np.int64
    assert np.array_equal(got, _lookup_oracle(table.kmers, queries))
    assert tally["windows"] == queries.shape[0]
    assert tally["leftover"] <= tally["windows"]
    assert tally["probes"] <= STEPS * tally["windows"]
    filt = KmerTable(k=table.k, kmers=table.kmers, counts=table.counts,
                     lower=table.lower, upper=table.upper,
                     seeds=10 * int(table.counts.sum()) + 1)
    assert table._occ is None
    assert (filt._occ is not None) == (len(table) > 0)
    filt_tally = {}
    assert np.array_equal(filt.lookup(queries, filt_tally), got)
    assert filt_tally["windows"] == tally["windows"]
    assert filt_tally["probes"] <= tally["probes"]
    assert filt_tally["leftover"] <= tally["leftover"]
    # Per-query sums: any batching of the same queries adds up to them.
    for tab, want in ((table, tally), (filt, filt_tally)):
        split = {}
        for part in np.array_split(queries, 3):
            tab.lookup(part, split)
        assert split == want
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
    for one in (table, zero):
        _check_lookup(one, np.array([0, 0, 41, 42, 42, 43, 2 ** 64 - 1],
                                    dtype=np.uint64))


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


# -- the occupancy prefilter, selected by the table's reliable fraction -----

BELOW = kmer_counter._PREFILTER_BELOW


def test_prefilter_selection_reads_the_reliable_fraction(clean_dataset):
    """Only a table that knows its seed count, and whose reliable keys are
    under ``BELOW`` of it, gets the map — no larger than its keys; the
    count is the same for every engine and for the histogram route."""
    keys = np.arange(1, 2001, dtype=np.uint64) * np.uint64(7919)
    counts = np.full(keys.shape[0], 3, dtype=np.int64)
    total = int(counts.sum())

    def table(seeds):
        return KmerTable(k=17, kmers=keys, counts=counts, lower=2, upper=4,
                         seeds=seeds)

    assert table(None)._occ is None
    assert table(total)._occ is None
    assert table(int(total / BELOW) - 1)._occ is None
    occ = table(int(total / BELOW) + 2)._occ
    assert occ is not None
    assert 4 * keys.shape[0] < occ.shape[0] <= 8 * keys.shape[0]
    assert occ.nbytes <= keys.nbytes
    assert table(None) == table(10 * total)        # seeds is not compared

    _genome, reads, _layout = clean_dataset
    sub = reads.subset(np.arange(30))
    windows = sum(max(0, len(sub[i]) - 16) for i in range(len(sub)))
    hist = kmer_counter.kmer_histogram(sub, 17)
    got = [count_kmers(sub, 17, SimComm(P, CommTracker(P)), StageTimer(),
                       upper=40, **kw).seeds
           for P in (1, 4) for kw in ({}, {"table_budget": 4096})]
    got += [count_kmers_loop(sub, 17, SimComm(P, CommTracker(P)),
                             StageTimer(), upper=40).seeds for P in (1, 4)]
    got.append(kmer_counter.table_from_histogram(*hist, 17, upper=40).seeds)
    assert got == [windows] * len(got)


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

    def build(executor, build_a=build_a_matrix):
        timer = StageTimer()
        A = build_a(sub, table, ProcessGrid2D(4),
                    SimComm(4, CommTracker(4)), timer, executor=executor)
        return A.to_global(), timer.work_counts()["CreateSpMat"]

    ref, ref_work = build(None)
    assert set(ref_work) == {"windows", "probes", "leftover"}
    assert ref_work["windows"] == sum(max(0, len(sub[i]) - 16)
                                      for i in range(len(sub)))
    with get_executor("process", 2) as ex:
        got, work = build(ex)
    assert not builds
    assert work == ref_work
    assert np.array_equal(got.row, ref.row)
    assert np.array_equal(got.col, ref.col)
    assert np.array_equal(got.vals, ref.vals)
    # Per-query sums do not depend on the scan's batching either: the
    # read-by-read reference scan counts the same work.
    assert build(None, build_a_matrix_loop)[1] == ref_work
