"""Unit tests for the CooMat local sparse container."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.dsparse.coomat import CooMat, lines_by


def test_canonical_sorting():
    m = CooMat((3, 3), [2, 0, 1], [1, 2, 0], [[10], [20], [30]])
    assert m.row.tolist() == [0, 1, 2]
    assert m.col.tolist() == [2, 0, 1]
    assert m.vals[:, 0].tolist() == [20, 30, 10]


def test_duplicate_coordinates_rejected():
    with pytest.raises(ValueError):
        CooMat((2, 2), [0, 0], [1, 1], [[1], [2]])


def test_unpackable_shape_is_ordered_by_both_coordinates():
    """Beyond 2**63 cells ``row * ncols + col`` wraps: here the keys read
    0 and 5, strictly increasing, yet row 2**23 comes first.  The entries
    must still be sorted, and duplicates still refused."""
    shape = (2 ** 24, 2 ** 41)
    m = CooMat(shape, [2 ** 23, 0], [0, 5], [1, 2])
    assert m.row.tolist() == [0, 2 ** 23]
    assert m.col.tolist() == [5, 0]
    assert m.vals[:, 0].tolist() == [2, 1]
    ordered = CooMat(shape, [0, 0, 2 ** 23], [5, 2 ** 40, 0], [1, 2, 3])
    assert ordered.row.tolist() == [0, 0, 2 ** 23]
    assert ordered.col.tolist() == [5, 2 ** 40, 0]
    with pytest.raises(ValueError, match="duplicate"):
        CooMat(shape, [2 ** 23, 2 ** 23], [7, 7], [1, 2])


def test_keys_unique_sorted():
    m = CooMat((4, 5), [0, 1, 3], [4, 0, 2], [[1], [1], [1]])
    keys = m.keys()
    assert np.all(np.diff(keys) > 0)


def test_csr_indptr():
    m = CooMat((4, 3), [0, 0, 2], [0, 2, 1], [[1], [2], [3]])
    assert m.csr_indptr().tolist() == [0, 2, 2, 3, 3]


def test_csr_indptr_cached():
    m = CooMat((4, 3), [0, 0, 2], [0, 2, 1], [[1], [2], [3]])
    assert m.csr_indptr() is m.csr_indptr()


def test_transpose():
    m = CooMat((2, 3), [0, 1], [2, 0], [[5], [6]])
    t = m.transpose()
    assert t.shape == (3, 2)
    assert (int(t.row[0]), int(t.col[0])) in {(0, 1), (2, 0)}
    assert t.nnz == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 12), st.integers(0, 12),
       st.floats(0.0, 1.0), st.integers(1, 3))
def test_csc_order_is_the_column_major_permutation(seed, n_rows, n_cols,
                                                   density, nfields):
    """``csc()`` and a view's ``csr()`` are one transposition, checked
    against scipy's CSR → CSC conversion run over the storage indices, on
    canonical matrices with empty rows and columns, no entries at all and
    1–3 value fields."""
    rng = np.random.default_rng(seed)
    cells = np.flatnonzero(rng.random(n_rows * n_cols) < density)
    rng.shuffle(cells)
    row, col = np.divmod(cells, max(n_cols, 1))
    m = CooMat((n_rows, n_cols), row, col,
               rng.integers(-5, 99, (cells.shape[0], nfields)))
    oracle = sp.csr_matrix((np.arange(1, m.nnz + 1), m.col, m.csr_indptr()),
                           shape=m.shape).tocsc()
    indptr, index, order = m.csc()
    assert indptr.dtype == order.dtype == index.dtype == np.int64
    assert np.array_equal(indptr, oracle.indptr)
    assert np.array_equal(index, oracle.indices)
    assert np.array_equal(order, oracle.data - 1)
    assert np.array_equal(order, np.lexsort((m.row, m.col)))
    assert np.array_equal(index, m.row[order])
    assert np.array_equal(np.diff(indptr), np.bincount(m.col,
                                                       minlength=n_cols))
    assert m.csc() is m.csc()                       # one pass, cached
    # Read-only storage (a forked worker's pages) is enough.
    m = CooMat(m.shape, m.row, m.col, m.vals, checked=True)
    for arr in (m.row, m.col, m.vals):
        arr.flags.writeable = False
    assert np.array_equal(m.csc().order, order)
    # A view's lines are its base's, swapped; its CSC needs no pass.
    view = m.T
    assert view.csr() is view.csr() and view.csc().order is None
    assert all(np.array_equal(a, b) for a, b in zip(view.csr(), m.csc()))
    # The pattern-only form carries the index through the sort instead.
    pattern = lines_by(view.row, view.col, *view.shape)
    assert pattern.order is None
    assert np.array_equal(pattern.indptr, oracle.indptr)
    assert np.array_equal(pattern.index, oracle.indices)
    indptr, index, order = CooMat.empty((4, 6), 2).csc()
    assert order.shape == index.shape == (0,)
    assert np.array_equal(indptr, np.zeros(7))


def test_submatrix_local_coords():
    m = CooMat((4, 4), [0, 1, 2, 3], [0, 1, 2, 3], [[1], [2], [3], [4]])
    b = m.submatrix(1, 3, 1, 3)
    assert b.shape == (2, 2)
    assert b.row.tolist() == [0, 1]
    assert b.vals[:, 0].tolist() == [2, 3]


def test_select_and_empty():
    m = CooMat((2, 2), [0, 1], [1, 0], [[7], [8]])
    s = m.select(np.array([True, False]))
    assert s.nnz == 1 and s.vals[0, 0] == 7
    e = CooMat.empty((5, 5), nfields=3)
    assert e.nnz == 0 and e.nfields == 3


def test_multifield_values():
    m = CooMat((2, 2), [0], [1], [[1, 2, 3]])
    assert m.nfields == 3
    assert m.vals.shape == (1, 3)


def test_1d_values_promoted():
    m = CooMat((2, 2), [0, 1], [0, 1], np.array([4, 5]))
    assert m.vals.shape == (2, 1)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        CooMat((2, 2), [0], [0, 1], [[1], [2]])
