"""Tests for 2D distributed matrices and Sparse SUMMA."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.dsparse.coomat import CooMat
from repro.dsparse.distmat import DistMat
from repro.dsparse.spgemm import spgemm_esc
from repro.dsparse.summa import _stage_broadcasts, summa, summa_comm_replay
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm

from oracles.scipy_ref import from_scipy, to_scipy
from oracles.semirings import MinPlus, PlusTimes


def _rand_dist(rng, shape, density, grid):
    s = sp.random(*shape, density=density, format="coo", random_state=rng,
                  data_rvs=lambda n: rng.integers(1, 50, n))
    return DistMat.from_coo(shape, grid, s.row, s.col, s.data), \
        from_scipy(s)


def test_from_coo_to_global_roundtrip():
    rng = np.random.default_rng(0)
    grid = ProcessGrid2D(4)
    D, G = _rand_dist(rng, (23, 17), 0.15, grid)
    back = D.to_global()
    assert np.array_equal(back.row, G.row)
    assert np.array_equal(back.col, G.col)
    assert np.array_equal(back.vals, G.vals)


def _from_coo_by_masks(shape, grid, row, col, vals):
    """``DistMat.from_coo`` as it was: one boolean mask per block."""
    q = grid.q
    rb, cb = grid.row_bounds(shape[0]), grid.col_bounds(shape[1])
    bi = np.searchsorted(rb, row, side="right") - 1
    bj = np.searchsorted(cb, col, side="right") - 1
    return [[CooMat((int(rb[i + 1] - rb[i]), int(cb[j + 1] - cb[j])),
                    row[(bi == i) & (bj == j)] - rb[i],
                    col[(bi == i) & (bj == j)] - cb[j],
                    vals[(bi == i) & (bj == j)])
             for j in range(q)] for i in range(q)]


@pytest.mark.parametrize("q", [1, 2, 4])
@pytest.mark.parametrize("nfields", [1, 3])
def test_from_coo_blocks_match_the_mask_oracle(q, nfields):
    """Unsorted global entries, an empty block row and an empty block
    column, dimensions that do not divide by ``q`` (and a 3 x 2 matrix with
    zero-height blocks): every block equals the per-block-mask build."""
    rng = np.random.default_rng(10 * q + nfields)
    grid = ProcessGrid2D(q * q)
    for shape in ((37, 29), (3, 2)):
        cells = rng.permutation(shape[0] * shape[1])[:shape[0] * shape[1] // 3]
        row, col = np.divmod(cells, shape[1])
        keep = np.ones(cells.shape[0], dtype=bool)
        if q > 1 and shape[0] > 3:       # empty out block row 1, column 0
            rb, cb = grid.row_bounds(shape[0]), grid.col_bounds(shape[1])
            keep = ~((row >= rb[1]) & (row < rb[2])) & (col >= cb[1])
        row, col = row[keep], col[keep]
        vals = rng.integers(-9, 9, (row.shape[0], nfields))
        D = DistMat.from_coo(shape, grid, row, col, vals)
        want = _from_coo_by_masks(shape, grid, row, col, vals)
        assert D.nfields == nfields
        for i in range(q):
            for j in range(q):
                got, ref = D.blocks[i][j], want[i][j]
                assert got.shape == ref.shape
                assert np.array_equal(got.row, ref.row)
                assert np.array_equal(got.col, ref.col)
                assert np.array_equal(got.vals, ref.vals)
        if q > 1 and shape[0] > 3:
            assert all(D.blocks[1][j].nnz == 0 for j in range(q))
            assert all(D.blocks[i][0].nnz == 0 for i in range(q))


def test_from_coo_refuses_coordinates_outside_the_matrix():
    grid = ProcessGrid2D(4)
    one = np.ones(2, dtype=np.int64)
    for row, col in (([0, 5], [0, 0]), ([0, -1], [0, 0]),
                     ([0, 0], [0, 4]), ([0, 0], [-1, 0])):
        with pytest.raises(ValueError, match="outside the 5x4 matrix"):
            DistMat.from_coo((5, 4), grid, np.array(row), np.array(col), one)
    assert DistMat.from_coo((5, 4), grid, [], [], np.empty((0, 2))).nnz() == 0


def test_blocks_cover_dimensions():
    grid = ProcessGrid2D(9)
    D = DistMat.empty((10, 7), grid)
    assert sum(D.blocks[i][0].shape[0] for i in range(3)) == 10
    assert sum(D.blocks[0][j].shape[1] for j in range(3)) == 7


def test_transpose_matches_global_transpose():
    """``D.T`` is the global transpose, block for block a view of the
    mirror block — and SUMMA charges it what a formed transpose costs."""
    rng = np.random.default_rng(1)
    grid = ProcessGrid2D(4)
    D, G = _rand_dist(rng, (15, 21), 0.2, grid)
    T = D.T
    assert T.shape == (21, 15) and T.nfields == D.nfields
    for i in range(grid.q):
        for j in range(grid.q):
            assert T.blocks[i][j].transposed
            assert T.blocks[i][j].vals is D.blocks[j][i].vals
    GT = G.transpose()
    got = T.to_global()
    assert np.array_equal(got.row, GT.row)
    assert np.array_equal(got.col, GT.col)
    assert np.array_equal(got.vals, GT.vals)
    assert T.T.blocks[0][1] is D.blocks[0][1]
    formed = DistMat.from_coo(GT.shape, grid, GT.row, GT.col, GT.vals)
    by_view, by_formed = CommTracker(4), CommTracker(4)
    C = summa(D, T, PlusTimes(), SimComm(4, by_view), "t").to_global()
    C_ref = summa(D, formed, PlusTimes(), SimComm(4, by_formed),
                  "t").to_global()
    assert np.array_equal(C.row, C_ref.row)
    assert np.array_equal(C.vals, C_ref.vals)
    assert _records(by_view) == _records(by_formed)


def test_nnz_and_copy_independent():
    rng = np.random.default_rng(2)
    grid = ProcessGrid2D(1)
    D, G = _rand_dist(rng, (10, 10), 0.2, grid)
    D2 = D.copy()
    D2.blocks[0][0].vals[:] = 0
    assert D.to_global().vals.sum() == G.vals.sum()
    assert D.nnz() == G.nnz


@pytest.mark.parametrize("P", [1, 4, 9])
def test_summa_matches_local_spgemm(P):
    rng = np.random.default_rng(P)
    grid = ProcessGrid2D(P)
    comm = SimComm(P, CommTracker(P))
    A, GA = _rand_dist(rng, (20, 30), 0.15, grid)
    B, GB = _rand_dist(rng, (30, 12), 0.15, grid)
    C = summa(A, B, PlusTimes(), comm, stage="t")
    expect = spgemm_esc(GA, GB, PlusTimes())
    got = C.to_global()
    assert np.array_equal(got.row, expect.row)
    assert np.array_equal(got.col, expect.col)
    assert np.array_equal(got.vals, expect.vals)


def test_summa_minplus_matches_local():
    rng = np.random.default_rng(7)
    grid = ProcessGrid2D(4)
    comm = SimComm(4, CommTracker(4))
    A, GA = _rand_dist(rng, (25, 25), 0.1, grid)
    C = summa(A, A, MinPlus(), comm, stage="t")
    expect = spgemm_esc(GA, GA, MinPlus())
    got = C.to_global()
    assert np.array_equal(got.row, expect.row)
    assert np.array_equal(got.vals, expect.vals)


def test_summa_charges_sqrtP_messages_per_rank():
    """Latency per rank is 2(√P−1) broadcasts' worth at the roots; the max
    per-rank message count over the whole product is O(√P) (Table I)."""
    rng = np.random.default_rng(3)
    P = 16
    grid = ProcessGrid2D(P)
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    A, _ = _rand_dist(rng, (64, 64), 0.2, grid)
    summa(A, A, PlusTimes(), comm, stage="sp")
    rec = tracker.records["sp"]
    q = 4
    # Each rank is a row-bcast root q times... no: over all k stages, rank
    # (i, j) roots the row broadcast when k == j and the col broadcast when
    # k == i — each costs q-1 messages, so max messages per rank = 2(q-1).
    assert rec.max_messages == 2 * (q - 1)


def _rand_fields(rng, shape, nfields, grid):
    """A random DistMat whose entries carry ``nfields`` value fields."""
    cells = rng.permutation(shape[0] * shape[1])
    cells = cells[:rng.integers(0, cells.shape[0] + 1)]
    row, col = np.divmod(cells, shape[1])
    vals = rng.integers(0, 50, (cells.shape[0], nfields))
    return DistMat.from_coo(shape, grid, row, col, vals)


def _block_counts(M):
    return np.array([[b.nnz for b in brow] for brow in M.blocks])


def _records(tracker):
    return {stage: (rec.bytes_per_rank.tolist(),
                    rec.messages_per_rank.tolist())
            for stage, rec in tracker.records.items()}


@pytest.mark.parametrize("q", [1, 2, 4])
@pytest.mark.parametrize("nfields", [1, 2, 4])
def test_summa_comm_replay_from_block_counts(q, nfields):
    """The sizes-only replay charges exactly what broadcasting the operands'
    blocks does — and, for one field, what the real product charges."""
    rng = np.random.default_rng(100 * q + nfields)
    grid = ProcessGrid2D(q * q)
    for _ in range(4):
        n, m, l = rng.integers(1, 40, 3)
        A = _rand_fields(rng, (n, m), nfields, grid)
        B = _rand_fields(rng, (m, l), nfields, grid)
        by_blocks = CommTracker(q * q)
        for k in range(q):
            _stage_broadcasts(grid, A.blocks, B.blocks, k,
                              SimComm(q * q, by_blocks), "SpGEMM")
        by_counts = CommTracker(q * q)
        summa_comm_replay(grid, _block_counts(A), _block_counts(B), nfields,
                          SimComm(q * q, by_counts), "SpGEMM")
        assert _records(by_counts) == _records(by_blocks)
        if nfields == 1:
            product = CommTracker(q * q)
            summa(A, B, PlusTimes(), SimComm(q * q, product), "SpGEMM")
            assert _records(by_counts) == _records(product)


def test_summa_comm_replay_refuses_misshapen_counts():
    grid = ProcessGrid2D(4)
    with pytest.raises(ValueError, match="2x2"):
        summa_comm_replay(grid, np.zeros((2, 2)), np.zeros((1, 2)), 2,
                          SimComm(4, CommTracker(4)), "SpGEMM")


def test_summa_grid_mismatch():
    gridA = ProcessGrid2D(4)
    gridB = ProcessGrid2D(9)
    A = DistMat.empty((8, 8), gridA)
    B = DistMat.empty((8, 8), gridB)
    comm = SimComm(4, CommTracker(4))
    with pytest.raises(ValueError):
        summa(A, B, PlusTimes(), comm, stage="t")


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_property_summa_equals_scipy(seed):
    rng = np.random.default_rng(seed)
    grid = ProcessGrid2D(4)
    comm = SimComm(4, CommTracker(4))
    A, GA = _rand_dist(rng, (18, 22), 0.12, grid)
    B, GB = _rand_dist(rng, (22, 16), 0.12, grid)
    C = summa(A, B, PlusTimes(), comm, stage="t").to_global()
    expect = (to_scipy(GA).tocsr() @ to_scipy(GB).tocsr())
    assert (abs(to_scipy(C).tocsr() - expect) > 1e-9).nnz == 0
