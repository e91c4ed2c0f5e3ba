"""Tests for the row-wise distributed reduction."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.dsparse.distmat import DistMat
from repro.dsparse.elementwise import reduce_rows
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm


def _dist_from_dense(dense, grid):
    coo = sp.coo_matrix(dense)
    return DistMat.from_coo(dense.shape, grid, coo.row, coo.col, coo.data)


@pytest.fixture
def sample():
    grid = ProcessGrid2D(4)
    dense = np.array([
        [0, 5, 2, 0],
        [1, 0, 0, 7],
        [0, 0, 3, 0],
        [4, 0, 0, 9],
    ])
    return _dist_from_dense(dense, grid), dense, grid


def test_reduce_rows_max(sample):
    D, dense, grid = sample
    v = reduce_rows(D, 0, np.maximum, 0)
    assert v.tolist() == [5, 7, 3, 9]


def test_reduce_rows_with_comm_charges(sample):
    D, dense, grid = sample
    tracker = CommTracker(4)
    comm = SimComm(4, tracker)
    v = reduce_rows(D, 0, np.maximum, 0, comm=comm, stage="red")
    assert v.tolist() == [5, 7, 3, 9]
    assert tracker.records["red"].total_messages > 0


def test_reduce_rows_identity_for_empty_rows():
    grid = ProcessGrid2D(1)
    D = _dist_from_dense(np.array([[0, 1], [0, 0]]), grid)
    v = reduce_rows(D, 0, np.maximum, -99)
    assert v.tolist() == [1, -99]
