"""Unit tests for the repro.exec subsystem (partitioner + executors)."""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (ProcessExecutor, SERIAL, SerialExecutor,
                        get_executor, weighted_chunks)
from repro.exec.executor import Executor


# -- partitioner -------------------------------------------------------------

def test_weighted_chunks_basic():
    assert weighted_chunks([], 4) == []
    assert weighted_chunks([5.0], 4) == [(0, 1)]
    assert weighted_chunks([1, 1, 1, 1], 1) == [(0, 4)]
    # Even weights, even split.
    assert weighted_chunks([1, 1, 1, 1], 2) == [(0, 2), (2, 4)]


def test_weighted_chunks_skewed_weights_balance():
    # One huge task up front: it gets its own chunk, the tail is shared.
    ranges = weighted_chunks([100, 1, 1, 1, 1], 2)
    assert ranges[0] == (0, 1)
    assert ranges[-1][1] == 5


def test_weighted_chunks_zero_weights_fall_back_to_count_split():
    ranges = weighted_chunks([0, 0, 0, 0], 2)
    assert ranges == [(0, 2), (2, 4)]


def test_weighted_chunks_rejects_negative():
    with pytest.raises(ValueError):
        weighted_chunks([1, -1], 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=0, max_size=60),
       st.integers(1, 12))
def test_weighted_chunks_exact_cover(weights, n_chunks):
    """Every index appears in exactly one chunk, in ascending order."""
    ranges = weighted_chunks(weights, n_chunks)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(len(weights)))
    assert len(ranges) <= max(1, n_chunks)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=100, allow_nan=False),
                min_size=8, max_size=60),
       st.integers(2, 6))
def test_weighted_chunks_no_chunk_exceeds_max_task_plus_share(weights,
                                                             n_chunks):
    """Chunk loads stay near total/n plus one task (quantile-cut bound)."""
    ranges = weighted_chunks(weights, n_chunks)
    total = sum(weights)
    bound = total / n_chunks + max(weights)
    for lo, hi in ranges:
        assert sum(weights[lo:hi]) <= bound + 1e-9


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=0, max_size=60),
       st.integers(1, 12), st.integers(1, 10))
def test_weighted_chunks_max_items_cap(weights, n_chunks, max_items):
    """The item cap subdivides long quantile ranges; cover stays exact."""
    ranges = weighted_chunks(weights, n_chunks, max_items=max_items)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(len(weights)))
    for lo, hi in ranges:
        assert hi - lo <= max_items


def test_weighted_chunks_max_items_even_subdivision():
    # One chunk of 10 under a cap of 4 -> even 3/3/4, not 4/4/2.
    assert weighted_chunks([1] * 10, 1, max_items=4) == \
        [(0, 3), (3, 6), (6, 10)]
    with pytest.raises(ValueError):
        weighted_chunks([1, 2], 1, max_items=0)


# -- executors ---------------------------------------------------------------

def _square(ctx, x):
    return (ctx or 0) + x * x


def _fail_on_three(ctx, x):
    if x == 3:
        raise ValueError("task 3 exploded")
    return x


EXECUTORS = [SerialExecutor(4), ProcessExecutor(2)]


@pytest.mark.parametrize("ex", EXECUTORS, ids=lambda e: e.name)
def test_run_ordered_results_and_context(ex):
    with ex:
        tasks = list(range(23))
        assert ex.run(_square, tasks, context=100) == \
            [100 + x * x for x in tasks]


@pytest.mark.parametrize("ex", EXECUTORS, ids=lambda e: e.name)
def test_run_timed_returns_per_task_seconds(ex):
    with ex:
        results, secs = ex.run_timed(_square, [1, 2, 3],
                                     weights=[1, 2, 3])
        assert results == [1, 4, 9]
        assert len(secs) == 3 and all(s >= 0.0 for s in secs)


@pytest.mark.parametrize("ex", EXECUTORS, ids=lambda e: e.name)
def test_task_exception_propagates(ex):
    with ex:
        with pytest.raises(ValueError, match="exploded"):
            ex.run(_fail_on_three, [1, 2, 3, 4])


@pytest.mark.parametrize("ex", EXECUTORS, ids=lambda e: e.name)
def test_empty_task_list(ex):
    with ex:
        assert ex.run(_square, []) == []


def test_results_identical_across_executors_and_worker_counts():
    tasks = list(np.arange(97))
    weights = list(np.arange(97) % 7 + 1)
    ref = SERIAL.run(_square, tasks, weights=weights)
    for cls in (SerialExecutor, ProcessExecutor):
        for w in (1, 3, 8):
            with cls(w) as ex:
                assert ex.run(_square, tasks, weights=weights) == ref


def test_pool_reuse_across_calls():
    with ProcessExecutor(2) as ex:
        assert ex.run(_square, [1, 2]) == [1, 4]
        assert ex.run(_square, [3]) == [9]


# -- registry / resolution ----------------------------------------------------

def test_available_and_get_executor(monkeypatch):
    # Env overrides off: this test pins the *default* resolution rules.
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    assert isinstance(get_executor("serial", 1), SerialExecutor)
    ex = get_executor("process", 2)
    assert isinstance(ex, ProcessExecutor) and ex.workers == 2
    # auto: serial for 1 worker, process pool beyond.
    assert isinstance(get_executor("auto", 1), SerialExecutor)
    assert isinstance(get_executor("auto", 4), ProcessExecutor)
    # pass-through of built instances.
    assert get_executor(SERIAL) is SERIAL
    with pytest.raises(ValueError, match="unknown executor"):
        get_executor("gpu")
    with pytest.raises(ValueError, match="unknown executor 'thread'"):
        get_executor("thread", 2)


def test_get_executor_env_name(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    monkeypatch.setenv("REPRO_WORKERS", "3")
    ex = get_executor(None)
    assert isinstance(ex, ProcessExecutor) and ex.workers == 3


@pytest.mark.parametrize("cls", [SerialExecutor, ProcessExecutor])
def test_constructors_refuse_workers_below_one(cls):
    # Validated through the workers axis, not clamped to 1.
    with pytest.raises(ValueError, match="unknown workers 0"):
        cls(0)
