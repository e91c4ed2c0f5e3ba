"""Tests for local semiring SpGEMM: ESC kernel vs Gustavson vs scipy."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.dsparse.coomat import CooMat
from repro.dsparse.spgemm import multiway_merge, spgemm_esc

from oracles.scipy_ref import from_scipy, to_scipy
from oracles.semirings import BoolOr, MinPlus, PlusTimes
from oracles.spgemm import spgemm_gustavson


def _rand_coo(rng, rows, cols, density):
    s = sp.random(rows, cols, density=density, format="coo", random_state=rng,
                  data_rvs=lambda n: rng.integers(1, 50, n))
    return from_scipy(s)


def test_plustimes_matches_scipy():
    rng = np.random.default_rng(0)
    A = _rand_coo(rng, 30, 40, 0.1)
    B = _rand_coo(rng, 40, 25, 0.1)
    C = spgemm_esc(A, B, PlusTimes())
    expect = (to_scipy(A).tocsr() @ to_scipy(B).tocsr()).tocoo()
    got = to_scipy(C).tocsr()
    assert (abs(got - expect.tocsr()) > 1e-9).nnz == 0


def test_esc_keeps_cancelled_structural_entries():
    """Products that cancel leave an explicit 0: ESC keeps every structural
    nonzero, where scipy's CSR arithmetic would prune it."""
    A = CooMat((2, 2), [0, 0], [0, 1], [[1], [-1]])
    B = CooMat((2, 2), [0, 1], [0, 0], [[5], [5]])
    C = spgemm_esc(A, B, PlusTimes())
    assert C.nnz == 1 and C.vals[0, 0] == 0


def test_esc_equals_gustavson_plustimes():
    rng = np.random.default_rng(1)
    A = _rand_coo(rng, 20, 20, 0.15)
    B = _rand_coo(rng, 20, 20, 0.15)
    c1 = spgemm_esc(A, B, PlusTimes())
    c2 = spgemm_gustavson(A, B, PlusTimes())
    assert np.array_equal(c1.row, c2.row)
    assert np.array_equal(c1.col, c2.col)
    assert np.array_equal(c1.vals, c2.vals)


def test_esc_equals_gustavson_minplus():
    rng = np.random.default_rng(2)
    A = _rand_coo(rng, 25, 25, 0.12)
    c1 = spgemm_esc(A, A, MinPlus())
    c2 = spgemm_gustavson(A, A, MinPlus())
    assert np.array_equal(c1.row, c2.row)
    assert np.array_equal(c1.vals, c2.vals)


def test_minplus_shortest_two_hop():
    # Path graph 0-1-2 with weights 3 and 4: two-hop 0->2 costs 7.
    A = CooMat((3, 3), [0, 1], [1, 2], [[3], [4]])
    C = spgemm_esc(A, A, MinPlus())
    assert C.nnz == 1
    assert (int(C.row[0]), int(C.col[0])) == (0, 2)
    assert int(C.vals[0, 0]) == 7


def test_minplus_takes_minimum_over_paths():
    # 0->1->3 (2+2=4) and 0->2->3 (1+1=2): min is 2.
    A = CooMat((4, 4), [0, 0, 1, 2], [1, 2, 3, 3], [[2], [1], [2], [1]])
    C = spgemm_esc(A, A, MinPlus())
    at = {(int(r), int(c)): int(v) for r, c, v in
          zip(C.row, C.col, C.vals[:, 0])}
    assert at[(0, 3)] == 2


def test_boolor_pattern():
    A = CooMat((3, 3), [0, 1], [1, 2], [[9], [9]])
    C = spgemm_esc(A, A, BoolOr())
    assert C.vals[:, 0].tolist() == [1]


def test_dimension_mismatch():
    A = CooMat.empty((3, 4))
    B = CooMat.empty((5, 3))
    with pytest.raises(ValueError):
        spgemm_esc(A, B, PlusTimes())


def test_empty_operands():
    A = CooMat.empty((3, 4))
    B = CooMat.empty((4, 2))
    C = spgemm_esc(A, B, PlusTimes())
    assert C.nnz == 0 and C.shape == (3, 2)


def test_multiway_merge_plustimes():
    p1 = CooMat((2, 2), [0], [0], [[3]])
    p2 = CooMat((2, 2), [0, 1], [0, 1], [[4], [5]])
    merged = multiway_merge([p1, p2], PlusTimes(), (2, 2))
    at = {(int(r), int(c)): int(v) for r, c, v in
          zip(merged.row, merged.col, merged.vals[:, 0])}
    assert at == {(0, 0): 7, (1, 1): 5}


def test_multiway_merge_empty():
    merged = multiway_merge([], PlusTimes(), (3, 3))
    assert merged.nnz == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(0.02, 0.2), st.floats(0.02, 0.2))
def test_property_esc_matches_scipy(seed, da, db):
    rng = np.random.default_rng(seed)
    A = _rand_coo(rng, 15, 18, da)
    B = _rand_coo(rng, 18, 12, db)
    C = spgemm_esc(A, B, PlusTimes())
    expect = (to_scipy(A).tocsr() @ to_scipy(B).tocsr())
    assert (abs(to_scipy(C).tocsr() - expect) > 1e-9).nnz == 0
