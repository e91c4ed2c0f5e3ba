"""Cross-executor determinism: the execution engine is a pure perf axis.

``run_pipeline`` must produce byte-identical output — string matrix S,
every nnz count, and the tracker's communication accounting — for every
executor kind and worker count.  This is the contract that makes
``--workers`` safe to flip on in production: the ordered reduction inside
:mod:`repro.exec` guarantees task results are reassembled in task order no
matter how chunks land on workers.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.exec import get_executor
from repro.mpisim import CommTracker, SimComm, StageTimer
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.kmer_counter import count_kmers

COMBOS = [("serial", 1), ("serial", 4), ("process", 1), ("process", 4)]


def _simulate(length=8_000, depth=10, err=0.05, seed=11):
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=length, seed=seed), depth=depth,
                    mean_len=700, min_len=300,
                    error=ErrorModel(rate=err), seed=seed + 1))
    return reads


def _assert_identical(res, ref):
    assert np.array_equal(res.S.row, ref.S.row)
    assert np.array_equal(res.S.col, ref.S.col)
    assert np.array_equal(res.S.vals, ref.S.vals)
    assert (res.nnz_a, res.nnz_c, res.nnz_r, res.nnz_s) == \
        (ref.nnz_a, ref.nnz_c, ref.nnz_r, ref.nnz_s)
    assert res.n_kmers == ref.n_kmers
    assert res.tr_rounds == ref.tr_rounds
    # Tracker accounting (bytes and messages, totals and criticals) must
    # match to the byte: parallel execution moves no extra simulated data.
    assert res.tracker.summary() == ref.tracker.summary()
    # Compute time *values* differ, but the charged stages must agree.
    assert set(res.timer.stage_seconds) == set(ref.timer.stage_seconds)


@pytest.fixture(scope="module")
def chain_reads():
    return _simulate()


@pytest.fixture(scope="module")
def chain_ref(chain_reads):
    return run_pipeline(chain_reads, _chain_cfg("serial", 1))


def _chain_cfg(executor, workers):
    return PipelineConfig(k=17, nprocs=4, align_mode="chain",
                          depth_hint=10, error_hint=0.05,
                          executor=executor, workers=workers)


@pytest.mark.parametrize("executor,workers", COMBOS)
def test_pipeline_identical_across_executors_chain(chain_reads, chain_ref,
                                                   executor, workers):
    res = run_pipeline(chain_reads, _chain_cfg(executor, workers))
    _assert_identical(res, chain_ref)


@pytest.mark.parametrize("executor,workers",
                         [("process", 4)])
def test_pipeline_identical_across_executors_xdrop(executor, workers):
    """x-drop mode exercises the parallel alignment loop end to end."""
    reads = _simulate(length=4_000, depth=8, seed=23)

    def cfg(ex, w):
        return PipelineConfig(k=17, nprocs=4, align_mode="xdrop",
                              depth_hint=8, error_hint=0.05,
                              executor=ex, workers=w)

    ref = run_pipeline(reads, cfg("serial", 1))
    _assert_identical(run_pipeline(reads, cfg(executor, workers)), ref)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 1000))
def test_kmer_counting_identical_process_vs_serial(seed):
    """Hypothesis: counting matches serially for random tiny read sets."""
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=3_000, seed=seed), depth=6,
                    mean_len=400, min_len=200,
                    error=ErrorModel(rate=0.03), seed=seed + 1))

    def count(executor):
        comm = SimComm(4, CommTracker(4))
        with executor as ex:
            table = count_kmers(reads, 17, comm, StageTimer(), upper=40,
                                executor=ex)
        return table, comm.tracker.summary()

    ref_table, ref_comm = count(get_executor("serial", 1))
    tab, com = count(get_executor("process", 4))
    assert np.array_equal(tab.kmers, ref_table.kmers)
    assert np.array_equal(tab.counts, ref_table.counts)
    assert com == ref_comm
