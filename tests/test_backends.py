"""Backend registry + numpy/scipy kernel parity.

The contract under test: for every shipped semiring and any sparsity
pattern, every registered backend produces **byte-identical** ``CooMat``
results (same coordinates, same int64 values, same entry order) — the
scipy backend's CSR lowerings either match the ESC reference exactly or
decline to lower.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.semirings import BidirectedMinPlus, PositionsSemiring
from repro.dsparse.backend import (AutoBackend, NumpyBackend, ScipyBackend,
                                   get_backend)
from repro.dsparse.coomat import CooMat
from repro.dsparse.semiring import BoolOr, MinPlus, PlusTimes
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads

NUMPY = get_backend("numpy")
SCIPY = get_backend("scipy")

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
    for field in range(oracle.nfields):
        assert (view.to_csr(field) != oracle.to_csr(field)).nnz == 0
    assert (view.pattern_csr() != oracle.pattern_csr()).nnz == 0


# -- registry ----------------------------------------------------------------

def test_registry_ships_three_backends():
    assert isinstance(get_backend("numpy"), NumpyBackend)
    assert isinstance(get_backend("scipy"), ScipyBackend)
    assert isinstance(get_backend("auto"), AutoBackend)


def test_get_backend_default_and_passthrough():
    assert isinstance(get_backend(None), AutoBackend)
    bk = get_backend("numpy")
    assert get_backend(bk) is bk


def test_get_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("cuda")


# -- lowering policy ---------------------------------------------------------

def test_scipy_lowers_scalar_semirings():
    rng = np.random.default_rng(0)
    A = _rand_mat(rng, 10, 10, 0.2, 1)
    assert ScipyBackend.can_lower(A, A, PlusTimes()) == "plus_times"
    assert ScipyBackend.can_lower(A, A, BoolOr()) == "bool_or"
    # No native tropical product, no multi-field lowering.
    assert ScipyBackend.can_lower(A, A, MinPlus()) is None
    R = _rand_mat(rng, 10, 10, 0.2, 4)
    assert ScipyBackend.can_lower(R, R, BidirectedMinPlus()) is None


def test_scipy_declines_cancelling_inputs():
    """scipy prunes accumulated zeros that ESC keeps, so values that could
    cancel (or zero products) must fall back to the reference kernel —
    and the results still match because both run ESC."""
    A = CooMat((2, 2), [0, 0], [0, 1], [[1], [-1]])
    B = CooMat((2, 2), [0, 1], [0, 0], [[5], [5]])
    assert ScipyBackend.can_lower(A, B, PlusTimes()) is None
    _assert_identical(SCIPY.spgemm(A, B, PlusTimes()),
                      NUMPY.spgemm(A, B, PlusTimes()))
    # The ESC reference keeps the cancelled structural entry as explicit 0.
    C = NUMPY.spgemm(A, B, PlusTimes())
    assert C.nnz == 1 and C.vals[0, 0] == 0


def test_scipy_spgemm_dimension_mismatch():
    with pytest.raises(ValueError):
        SCIPY.spgemm(CooMat.empty((3, 4)), CooMat.empty((5, 3)), PlusTimes())


# -- kernel parity (property) -------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(sorted(SEMIRINGS)),
       st.floats(0.0, 0.25), st.floats(0.0, 0.25), st.booleans())
def test_property_spgemm_parity(seed, semiring_name, da, db, negatives):
    rng = np.random.default_rng(seed)
    cls, nf = SEMIRINGS[semiring_name]
    lo = -5 if negatives else 1  # negatives force the cancellation fallback
    A = _rand_mat(rng, 17, 23, da, nf, lo=lo)
    B = A.transpose() if semiring_name in ("positions",
                                           "bidirected_min_plus") \
        else _rand_mat(rng, 23, 14, db, nf, lo=lo)
    semiring = cls()
    _assert_identical(SCIPY.spgemm(A, B, semiring),
                      NUMPY.spgemm(A, B, semiring))
    # A·Aᵀ with Aᵀ formed (the oracle) and as a view, on both backends;
    # a scalar view lowers through its base's CSC.
    oracle = NUMPY.spgemm(A, A.transpose(), semiring)
    for bk in (NUMPY, SCIPY):
        _assert_identical(bk.spgemm(A, A.T, semiring), oracle)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(["plus_times", "bool_or",
                                                 "min_plus"]),
       st.integers(2, 5), st.booleans())
def test_property_merge_parity(seed, semiring_name, nparts, negatives):
    rng = np.random.default_rng(seed)
    cls, nf = SEMIRINGS[semiring_name]
    lo = -5 if negatives else 1
    parts = [_rand_mat(rng, 12, 12, rng.uniform(0.0, 0.3), nf, lo=lo)
             for _ in range(nparts)]
    semiring = cls()
    _assert_identical(SCIPY.merge(parts, semiring, (12, 12)),
                      NUMPY.merge(parts, semiring, (12, 12)))


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
    """merge() must honor the requested output shape on every backend,
    including when it exceeds the parts' own shape (CSR fast path must
    decline rather than return a parts-shaped block)."""
    a = CooMat((12, 12), [0], [3], [[2]])
    b = CooMat((12, 12), [5], [3], [[4]])
    for semiring in (PlusTimes(), BoolOr()):
        m1 = NUMPY.merge([a, b], semiring, (100, 100))
        m2 = SCIPY.merge([a, b], semiring, (100, 100))
        assert m1.shape == m2.shape == (100, 100)
        _assert_identical(m1, m2)


def test_row_reduce_matches_dense():
    rng = np.random.default_rng(7)
    A = _rand_mat(rng, 15, 9, 0.3, 1)
    dense = A.to_scipy().toarray()
    out = NUMPY.row_reduce(A, 0, np.maximum, 0)
    expect = dense.max(axis=1).astype(np.int64)
    assert np.array_equal(out, np.maximum(expect, 0))
    assert np.array_equal(out, SCIPY.row_reduce(A, 0, np.maximum, 0))


def test_scipy_plustimes_matches_scipy_reference():
    """The lowered product agrees with scipy computed the ordinary way."""
    rng = np.random.default_rng(3)
    A = _rand_mat(rng, 40, 30, 0.1, 1)
    B = _rand_mat(rng, 30, 35, 0.1, 1)
    C = SCIPY.spgemm(A, B, PlusTimes())
    expect = (A.to_scipy().tocsr() @ B.to_scipy().tocsr()).tocoo()
    got = C.to_scipy().tocsr()
    assert (abs(got - expect.tocsr()) > 1e-9).nnz == 0


# -- empty/edge cases ---------------------------------------------------------

@pytest.mark.parametrize("name", ["numpy", "scipy"])
def test_empty_operands(name):
    bk = get_backend(name)
    C = bk.spgemm(CooMat.empty((3, 4)), CooMat.empty((4, 2)), PlusTimes())
    assert C.nnz == 0 and C.shape == (3, 2) and C.nfields == 1
    assert bk.merge([], PlusTimes(), (3, 3)).nnz == 0
    C = bk.spgemm(CooMat.empty((3, 4)), CooMat.empty((2, 4)).T, PlusTimes())
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
