"""The backend axis and the local kernels SUMMA calls.

The contracts under test: every accepted ``backend`` name is validated and
an unknown name is refused; the transpose view ``A.T`` is the matrix
``A.transpose()`` forms, over ``A``'s own arrays, and SUMMA's local
product reads it to the same bytes; merge and row reduction honor their
frames; and the pipeline's output does not depend on the name chosen.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.semirings import BidirectedMinPlus, PositionsSemiring
from repro.dsparse.backend import get_backend
from repro.dsparse.coomat import CooMat
from repro.dsparse.distmat import DistMat
from repro.dsparse.elementwise import reduce_rows
from repro.dsparse.spgemm import multiway_merge
from repro.mpisim import ProcessGrid2D
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads

from oracles.scipy_ref import to_scipy
from oracles.semirings import BoolOr, MinPlus, PlusTimes
from overlap_helpers import local_product

#: semiring name -> (factory, operand nfields)
SEMIRINGS = {
    "plus_times": (PlusTimes, 1),
    "min_plus": (MinPlus, 1),
    "bool_or": (BoolOr, 1),
    "positions": (PositionsSemiring, 2),
    "bidirected_min_plus": (BidirectedMinPlus, 4),
}


def _rand_mat(rng, rows, cols, density, nfields, lo=1, hi=50):
    """Random canonical CooMat with semiring-appropriate value fields."""
    s = sp.random(rows, cols, density=density, format="coo", random_state=rng,
                  data_rvs=lambda n: rng.integers(1, 50, n))
    nnz = s.nnz
    if nfields == 1:
        vals = rng.integers(lo, hi, (nnz, 1))
    elif nfields == 2:   # A-typed: [pos, flip]
        vals = np.stack([rng.integers(0, 500, nnz),
                         rng.integers(0, 2, nnz)], axis=1)
    else:                # R-typed: [suffix, end_i, end_j, olen]
        vals = np.stack([rng.integers(1, 500, nnz),
                         rng.integers(0, 2, nnz),
                         rng.integers(0, 2, nnz),
                         rng.integers(100, 400, nnz)], axis=1)
    return CooMat((rows, cols), s.row.astype(np.int64),
                  s.col.astype(np.int64), vals.astype(np.int64))


def _assert_identical(a: CooMat, b: CooMat):
    assert a.shape == b.shape
    assert a.nfields == b.nfields
    assert np.array_equal(a.row, b.row)
    assert np.array_equal(a.col, b.col)
    assert np.array_equal(a.vals, b.vals)
    assert a.vals.dtype == b.vals.dtype == np.int64


def _formed(view: CooMat) -> CooMat:
    """A view's entries as a matrix of their own, re-sorted."""
    return CooMat(view.shape, view.row, view.col, view.vals)


def _assert_view_is(view: CooMat, oracle: CooMat, base: CooMat):
    """``view`` (``base.T``) holds ``oracle``'s entries without a copy."""
    assert view.transposed and not oracle.transposed and view.T is base
    assert view.row is base.col and view.col is base.row
    assert view.vals is base.vals
    _assert_identical(_formed(view), oracle)
    # Read in line order, its lines are the oracle's storage.
    rows = view.csr()
    assert np.array_equal(rows.indptr, oracle.csr_indptr())
    assert np.array_equal(view.csr_indptr(), oracle.csr_indptr())
    assert np.array_equal(rows.index, oracle.col)
    assert np.array_equal(view.vals[rows.stored(np.arange(view.nnz))],
                          oracle.vals)
    cols = view.csc()
    assert cols.order is None and cols.index is base.col


# -- registry ----------------------------------------------------------------

def test_registry_ships_three_backends():
    """The axis keeps its three names; each is accepted as itself."""
    for name in ("numpy", "scipy", "auto"):
        assert get_backend(name) == name


def test_get_backend_default_and_passthrough():
    """``None`` resolves to the default; a resolved name passes through
    unchanged, so a layer may validate what a caller already validated."""
    assert get_backend(None) == "auto"
    for name in ("numpy", "scipy", "auto"):
        assert get_backend(get_backend(name)) == name


def test_get_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("cuda")


# -- shape checks --------------------------------------------------------------

def test_scipy_spgemm_dimension_mismatch():
    """Inner dimensions are checked before any kernel is picked, under every
    backend name (the check the ``scipy`` and default ``auto`` paths ran)."""
    for name in ("numpy", "scipy", "auto"):
        get_backend(name)
        for kw in ({}, {"mask": CooMat.empty((3, 3))}, {"upper": (0, 0)}):
            with pytest.raises(ValueError, match="inner dimensions"):
                local_product(
                    CooMat.empty((3, 4)), CooMat.empty((5, 3)), PlusTimes(),
                    **kw)


# -- kernel parity (property) -------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(sorted(SEMIRINGS)),
       st.floats(0.0, 0.25), st.booleans())
def test_property_spgemm_parity(seed, semiring_name, da, negatives):
    """A·Aᵀ with Aᵀ formed (the oracle) and as a view: the same bytes, for
    every semiring and sign pattern."""
    rng = np.random.default_rng(seed)
    cls, nf = SEMIRINGS[semiring_name]
    lo = -5 if negatives else 1
    A = _rand_mat(rng, 17, 23, da, nf, lo=lo)
    semiring = cls()
    oracle, path = local_product(A, A.transpose(), semiring)
    assert path == "esc"
    _assert_identical(local_product(A, A.T, semiring)[0], oracle)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(0.0, 0.3),
       st.integers(1, 4))
def test_property_transpose_parity(seed, density, nfields):
    """The view ``A.T`` is the matrix ``A.transpose()`` forms: the same
    entries, lines and scipy forms, over ``A``'s own arrays."""
    rng = np.random.default_rng(seed)
    A = _rand_mat(rng, 19, 11, density, nfields)
    _assert_view_is(A.T, A.transpose(), A)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(0.0, 1.0),
       st.sampled_from([1, 2, 4, 7]), st.sampled_from([(19, 11), (1, 30),
                                                       (30, 1), (6, 6)]))
def test_property_transpose_any_field_count(seed, density, nfields, shape):
    """The permutation transpose (no sort) against the copy-and-lexsort
    oracle for A- (2), R- (4) and C-typed (7 fields) blocks at every
    density, including negative and repeated values."""
    rng = np.random.default_rng(seed)
    pattern = _rand_mat(rng, *shape, density, 1)
    A = CooMat(shape, pattern.row, pattern.col,
               rng.integers(-3, 4, (pattern.nnz, nfields)), checked=True)
    _assert_view_is(A.T, A.transpose(), A)
    _assert_identical(A.T.transpose(), A)
    # Selections and blocks of a view are views, and match the oracle's.
    keep = rng.random(A.nnz) < 0.5
    sub = A.T.select(keep)
    assert sub.transposed and sub.vals is sub.T.vals
    _assert_identical(_formed(sub), A.select(keep).transpose())
    r1, c1 = shape[1] // 2 + 1, shape[0] // 2 + 1
    blk = A.T.submatrix(0, r1, 1, c1)
    assert blk.transposed
    _assert_identical(_formed(blk), A.transpose().submatrix(0, r1, 1, c1))


@pytest.mark.parametrize("nfields", [1, 2, 7])
def test_transpose_empty_blocks(nfields):
    for shape in ((3, 4), (0, 5), (5, 0)):
        E = CooMat.empty(shape, nfields)
        T = E.T
        assert T.shape == shape[::-1] and T.nnz == 0
        assert T.nfields == nfields and T.vals.dtype == np.int64
        _assert_view_is(T, E.transpose(), E)


def test_merge_into_larger_frame_parity():
    """merge() must honor the requested output shape, including when it
    exceeds the parts' own shape."""
    a = CooMat((12, 12), [0], [3], [[2]])
    b = CooMat((12, 12), [5], [3], [[4]])
    for semiring in (PlusTimes(), BoolOr()):
        m = multiway_merge([a, b], semiring, (100, 100))
        assert m.shape == (100, 100)
        assert m.row.tolist() == [0, 5] and m.col.tolist() == [3, 3]


def test_row_reduce_matches_dense():
    rng = np.random.default_rng(7)
    A = _rand_mat(rng, 15, 9, 0.3, 1)
    dense = to_scipy(A).toarray()
    out = reduce_rows(DistMat((15, 9), ProcessGrid2D(1), [[A]], 1), 0,
                      np.maximum, 0)
    expect = dense.max(axis=1).astype(np.int64)
    assert np.array_equal(out, np.maximum(expect, 0))


# -- empty/edge cases ---------------------------------------------------------

@pytest.mark.parametrize("name", ["numpy", "scipy"])
def test_empty_operands(name):
    get_backend(name)
    C, _ = local_product(CooMat.empty((3, 4)), CooMat.empty((4, 2)),
                         PlusTimes())
    assert C.nnz == 0 and C.shape == (3, 2) and C.nfields == 1
    assert multiway_merge([], PlusTimes(), (3, 3)).nnz == 0
    C, _ = local_product(CooMat.empty((3, 4)),
                         CooMat.empty((2, 4)).T, PlusTimes())
    assert C.nnz == 0 and C.shape == (3, 2)


# -- end-to-end: pipeline output is backend-independent -----------------------

@pytest.fixture(scope="module")
def tiny_reads():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=6_000, seed=41), depth=8,
                    mean_len=600, min_len=300, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=43))
    return reads


def test_pipeline_byte_identical_across_backends(tiny_reads):
    results = {}
    for name in ("numpy", "scipy", "auto"):
        cfg = PipelineConfig(nprocs=4, align_mode="chain", fuzz=20,
                             depth_hint=8, error_hint=0.0, backend=name)
        results[name] = run_pipeline(tiny_reads, cfg)
    ref = results["numpy"]
    for name in ("scipy", "auto"):
        res = results[name]
        _assert_identical(ref.S, res.S)
        assert (ref.nnz_a, ref.nnz_c, ref.nnz_r, ref.nnz_s) == \
               (res.nnz_a, res.nnz_c, res.nnz_r, res.nnz_s)
        assert ref.tr_rounds == res.tr_rounds


def test_pipeline_rejects_unknown_backend(tiny_reads):
    cfg = PipelineConfig(nprocs=1, backend="nope")
    with pytest.raises(ValueError, match="unknown backend"):
        run_pipeline(tiny_reads, cfg)
