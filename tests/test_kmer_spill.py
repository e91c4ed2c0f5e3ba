"""``table_budget`` is a pure memory axis of the one histogram engine.

The reliable table (keys AND counts), the per-rank communication record,
and the seeding-scheme interaction have to be byte-identical to the
Bloom-filtered ``loop`` oracle for every budget (``None`` = resident, no
disk; tiny = a run per round; generous = re-extraction but no spill),
process count, batch count, and executor — a budgeted owner flushes sorted
``(key, count)`` runs to disk when its buffered histograms reach its share
and k-way merges them at selection time.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import get_executor
from repro.mpisim import CommTracker, SimComm, StageTimer
from repro.seqs import (ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads)
from repro.seqs.kmer_counter import count_kmers, kmer_histogram
from repro.seqs.spill import (PAIR_DTYPE, combine_histograms,
                              merge_pair_runs, write_pair_run)


@pytest.fixture(scope="module")
def spill_reads():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=9_000, seed=7), depth=10,
                    mean_len=650, min_len=400, sigma_len=0.2,
                    error=ErrorModel(rate=0.02), seed=9))
    return reads


def _count(reads, *, P=1, batches=1, scheme=None, executor=None,
           table_budget=None, spill_dir=None, impl="batch"):
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    table = count_kmers(reads, 17, comm, StageTimer(), batches=batches,
                        lower=2, upper=40, executor=executor,
                        impl=impl, scheme=scheme,
                        table_budget=table_budget, spill_dir=spill_dir)
    return table, tracker


# ``"share"`` is resolved per cell to one rank's share of the exact table's
# bytes, given as the whole budget: at P=1 an owner spills right at the
# threshold, at P=4 mid-stream.
BUDGETS = (None, 1, "share", 1 << 40)


@pytest.mark.parametrize("P", (1, 4))
@pytest.mark.parametrize("batches", (1, 3))
@pytest.mark.parametrize("table_budget", BUDGETS)
def test_budget_sweep_matches_loop_oracle(spill_reads, tmp_path, monkeypatch,
                                          P, batches, table_budget):
    ref, ref_tracker = _count(spill_reads, P=P, batches=batches,
                              impl="loop")
    if table_budget == "share":
        keys, _ = kmer_histogram(spill_reads, 17)
        table_budget = keys.shape[0] * PAIR_DTYPE.itemsize // P
    if table_budget is None:
        def no_tmpdir(*args, **kwargs):
            raise AssertionError("unbudgeted count_kmers touched the disk")
        monkeypatch.setattr(tempfile, "mkdtemp", no_tmpdir)
    res, res_tracker = _count(spill_reads, P=P, batches=batches,
                              table_budget=table_budget,
                              spill_dir=str(tmp_path))
    assert np.array_equal(res.kmers, ref.kmers)
    assert np.array_equal(res.counts, ref.counts)
    assert res.kmers.dtype == ref.kmers.dtype
    assert res.counts.dtype == ref.counts.dtype
    assert res_tracker.summary() == ref_tracker.summary()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("P", (1, 4))
@pytest.mark.parametrize("batches", (1, 3))
def test_spill_table_byte_identical(spill_reads, tmp_path, P, batches):
    ref, ref_tracker = _count(spill_reads, P=P, batches=batches)
    # 4 KiB budget: far below the table footprint, so every rank spills
    # multiple runs per pass.
    res, res_tracker = _count(spill_reads, P=P, batches=batches,
                              table_budget=4096, spill_dir=str(tmp_path))
    assert np.array_equal(res.kmers, ref.kmers)
    assert np.array_equal(res.counts, ref.counts)
    assert res_tracker.summary() == ref_tracker.summary()


def test_spill_with_syncmer_scheme(spill_reads, tmp_path):
    from repro.seqs.seeding import make_scheme
    scheme = make_scheme("syncmer", 17, w=8)
    ref, ref_tracker = _count(spill_reads, P=4, batches=2, scheme=scheme)
    res, res_tracker = _count(spill_reads, P=4, batches=2, scheme=scheme,
                              table_budget=4096, spill_dir=str(tmp_path))
    assert np.array_equal(res.kmers, ref.kmers)
    assert np.array_equal(res.counts, ref.counts)
    assert res_tracker.summary() == ref_tracker.summary()


def test_spill_with_process_executor(spill_reads, tmp_path):
    ref, ref_tracker = _count(spill_reads, P=4, batches=2)
    with get_executor("process", 2) as ex:
        res, res_tracker = _count(spill_reads, P=4, batches=2, executor=ex,
                                  table_budget=4096,
                                  spill_dir=str(tmp_path))
    assert np.array_equal(res.kmers, ref.kmers)
    assert np.array_equal(res.counts, ref.counts)
    assert res_tracker.summary() == ref_tracker.summary()


def test_spill_dir_left_clean(spill_reads, tmp_path):
    """The spill scratch directory is removed even on success."""
    _count(spill_reads, P=2, table_budget=4096, spill_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_generous_budget_never_spills_but_still_matches(spill_reads):
    ref, ref_tracker = _count(spill_reads, P=2)
    res, res_tracker = _count(spill_reads, P=2, table_budget=1 << 30)
    assert np.array_equal(res.kmers, ref.kmers)
    assert np.array_equal(res.counts, ref.counts)
    assert res_tracker.summary() == ref_tracker.summary()


# -- the merge kernel, property-tested against a dict oracle ------------------

_KEYS = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(st.dictionaries(_KEYS, st.integers(1, 100),
                                     min_size=0, max_size=40),
                     min_size=1, max_size=6),
       chunk_items=st.integers(min_value=1, max_value=16))
def test_merge_pair_runs_matches_dict_oracle(tmp_path_factory, runs,
                                             chunk_items):
    tmp = tmp_path_factory.mktemp("runs")
    oracle = {}
    run_objs = []
    for i, d in enumerate(runs):
        keys = np.sort(np.fromiter(d.keys(), dtype=np.uint64, count=len(d)))
        counts = np.asarray([d[int(k)] for k in keys], dtype=np.int64)
        run_objs.append(write_pair_run(str(tmp / f"run{i}.bin"),
                                       keys, counts))
        for k, v in d.items():
            oracle[k] = oracle.get(k, 0) + v
    got_k, got_c = [], []
    prev_last = None
    for keys, counts in merge_pair_runs(run_objs, chunk_items=chunk_items):
        assert keys.shape == counts.shape and keys.shape[0] > 0
        assert np.all(np.diff(keys.astype(np.uint64)) > 0)
        if prev_last is not None:
            assert int(keys[0]) > prev_last  # strictly increasing ranges
        prev_last = int(keys[-1])
        got_k.extend(int(k) for k in keys)
        got_c.extend(int(c) for c in counts)
    assert dict(zip(got_k, got_c)) == oracle
    assert got_k == sorted(oracle)


def test_combine_histograms_merges_duplicates():
    k1 = np.array([5, 1, 9], dtype=np.uint64)
    c1 = np.array([2, 1, 4], dtype=np.int64)
    k2 = np.array([9, 5], dtype=np.uint64)
    c2 = np.array([1, 10], dtype=np.int64)
    keys, counts = combine_histograms([(k1, c1), (k2, c2)])
    assert keys.tolist() == [1, 5, 9]
    assert counts.tolist() == [1, 12, 5]
    empty_k, empty_c = combine_histograms([])
    assert empty_k.shape == (0,) and empty_c.shape == (0,)


def test_pair_run_round_trip(tmp_path):
    keys = np.array([1, 2, 3], dtype=np.uint64)
    counts = np.array([7, 8, 9], dtype=np.int64)
    run = write_pair_run(str(tmp_path / "r.bin"), keys, counts)
    assert run.n == 3
    k, c = run.read(1, 3)
    assert k.tolist() == [2, 3] and c.tolist() == [8, 9]
    assert PAIR_DTYPE.itemsize == 16
