"""Masked SpGEMM engine: kernel parity, dispatch, and pipeline identity.

The contract under test (PR 6): for every shipped semiring, any sparsity
pattern, and any mask pattern, ``spgemm_esc_masked(A, B, sr, mask)`` is
**byte-identical** to ``mask_select(spgemm_esc(A, B, sr), mask)`` — same
coordinates, same int64 values, same entry order — and the mask threads
through every layer (Backend.spgemm, SUMMA, the transitive-reduction
squaring, the full pipeline) without changing a single output byte.  The
only observable differences are performance artifacts: kernel-dispatch
counters and the recorded ``TrReduction`` live-set peak.
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
from repro.dsparse.masked import mask_select, spgemm_esc_masked
from repro.dsparse.semiring import BoolOr, MinPlus, PlusTimes
from repro.dsparse.spgemm import packed_order, spgemm_esc
from repro.dsparse.summa import summa
from repro.exec import SERIAL, ThreadExecutor
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.options import SPGEMM_IMPL
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads

NUMPY = get_backend("numpy")
SCIPY = get_backend("scipy")
AUTO = get_backend("auto")

#: semiring name -> (factory, operand nfields) — same table as
#: tests/test_backends.py, so the masked kernel is pinned against exactly
#: the algebra the pipeline ships.
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


# -- mask_select ---------------------------------------------------------------

def test_mask_select_basic_and_order_preserving():
    rng = np.random.default_rng(0)
    A = _rand_mat(rng, 20, 20, 0.3, 4)
    mask = _rand_mat(rng, 20, 20, 0.3, 1)
    out = mask_select(A, mask)
    in_mask = np.isin(A.keys(), mask.keys(), assume_unique=True)
    assert out.nnz == int(in_mask.sum())
    _assert_identical(out, A.select(in_mask))


def test_mask_select_shape_mismatch():
    with pytest.raises(ValueError, match="mask shape"):
        mask_select(CooMat.empty((3, 4)), CooMat.empty((4, 3)))


def test_mask_select_empty_cases():
    rng = np.random.default_rng(1)
    A = _rand_mat(rng, 10, 10, 0.3, 1)
    empty = CooMat.empty((10, 10))
    assert mask_select(A, empty).nnz == 0
    assert mask_select(empty, A).nnz == 0
    assert mask_select(A, empty).nfields == A.nfields


# -- masked kernel: byte-identity with compute-then-filter ---------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(sorted(SEMIRINGS)),
       st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.0, 0.4),
       st.booleans())
def test_property_masked_kernel_identity(seed, semiring_name, da, db,
                                         dmask, negatives):
    """masked ESC ≡ unmasked ESC ∩ mask, for every semiring and pattern."""
    rng = np.random.default_rng(seed)
    cls, nf = SEMIRINGS[semiring_name]
    lo = -5 if negatives else 1
    A = _rand_mat(rng, 17, 23, da, nf, lo=lo)
    B = NUMPY.transpose(A) if semiring_name in ("positions",
                                                "bidirected_min_plus") \
        else _rand_mat(rng, 23, 14, db, nf, lo=lo)
    out_shape = (A.shape[0], B.shape[1])
    mask = _rand_mat(rng, *out_shape, dmask, 1)
    semiring = cls()
    oracle = mask_select(spgemm_esc(A, B, semiring), mask)
    _assert_identical(spgemm_esc_masked(A, B, semiring, mask), oracle)
    # The backend seam agrees too, on every backend.
    for bk in (NUMPY, SCIPY, AUTO):
        _assert_identical(bk.spgemm(A, B, semiring, mask=mask), oracle)


def test_masked_with_full_product_mask_is_unmasked():
    """A mask covering the whole product pattern changes nothing."""
    rng = np.random.default_rng(5)
    A = _rand_mat(rng, 15, 15, 0.25, 2)
    At = NUMPY.transpose(A)
    semiring = PositionsSemiring()
    full = spgemm_esc(A, At, semiring)
    mask = CooMat((15, 15), full.row, full.col,
                  np.ones((full.nnz, 1), dtype=np.int64))
    _assert_identical(spgemm_esc_masked(A, At, semiring, mask), full)


def test_masked_empty_operands_and_mask():
    semiring = PlusTimes()
    rng = np.random.default_rng(6)
    A = _rand_mat(rng, 8, 9, 0.3, 1)
    B = _rand_mat(rng, 9, 7, 0.3, 1)
    empty_mask = CooMat.empty((8, 7))
    out = spgemm_esc_masked(A, B, semiring, empty_mask)
    assert out.nnz == 0 and out.shape == (8, 7)
    mask = _rand_mat(rng, 8, 7, 0.4, 1)
    assert spgemm_esc_masked(CooMat.empty((8, 9)), B, semiring,
                             mask).nnz == 0
    assert spgemm_esc_masked(A, CooMat.empty((9, 7)), semiring,
                             mask).nnz == 0


def test_masked_shape_validation():
    semiring = PlusTimes()
    with pytest.raises(ValueError, match="inner dimensions"):
        spgemm_esc_masked(CooMat.empty((3, 4)), CooMat.empty((5, 3)),
                          semiring, CooMat.empty((3, 3)))
    with pytest.raises(ValueError, match="mask shape"):
        spgemm_esc_masked(CooMat.empty((3, 4)), CooMat.empty((4, 2)),
                          semiring, CooMat.empty((3, 3)))


def test_masked_unpackable_shape_falls_back():
    """Shapes whose coordinates overflow the packed int64 key still give
    the compute-then-filter answer (no silent key wraparound)."""
    rows = 2 ** 40
    cols = 2 ** 40  # rows * cols >> 2**63: packed keys would wrap
    A = CooMat((rows, 8), [0, 5], [1, 3], [[2], [3]])
    B = CooMat((8, cols), [1, 3], [0, 7], [[4], [5]])
    # The mask keeps (0, 0) — one of the two product coordinates — and a
    # coordinate with no product, so the fallback really filters.
    mask = CooMat((rows, cols), [0, 5], [0, 0], [[1], [1]])
    semiring = PlusTimes()
    oracle = mask_select(spgemm_esc(A, B, semiring), mask)
    _assert_identical(spgemm_esc_masked(A, B, semiring, mask), oracle)
    assert oracle.nnz == 1 and oracle.row[0] == 0 and oracle.col[0] == 0


def test_packed_order_overflow_guard_matches_lexsort():
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 2 ** 62, 50)
    cols = rng.integers(0, 2 ** 62, 50)
    huge = (2 ** 62, 2 ** 62)
    order = packed_order(rows, cols, huge)
    assert np.array_equal(order, np.lexsort((cols, rows)))
    # And the packable branch agrees with lexsort on small frames.
    small_r = rng.integers(0, 40, 80)
    small_c = rng.integers(0, 30, 80)
    assert np.array_equal(packed_order(small_r, small_c, (40, 30)),
                          np.lexsort((small_c, small_r)))


# -- reduce truncation (product_reduce_depth) ----------------------------------

def test_positions_declares_truncation_depth():
    """Only the positions semiring opts into the truncated seed pass; the
    MinPlus-style reduces need every product and must stay off it."""
    assert PositionsSemiring.product_reduce_depth == 2
    for cls in (BidirectedMinPlus, PlusTimes, MinPlus, BoolOr):
        assert cls.product_reduce_depth is None


def test_positions_reduce_truncated_matches_reduce():
    """reduce_truncated over clipped groups == reduce over full groups,
    including the count field (true group size) and seed-2 backfill."""
    rng = np.random.default_rng(13)
    semiring = PositionsSemiring()
    counts = np.array([1, 2, 5, 3, 1], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    avals = np.stack([rng.integers(0, 500, int(counts.sum())),
                      rng.integers(0, 2, int(counts.sum()))], axis=1)
    bvals = np.stack([rng.integers(0, 500, int(counts.sum())),
                      rng.integers(0, 2, int(counts.sum()))], axis=1)
    full, valid = semiring.multiply(avals, bvals)
    assert valid is None
    expect = semiring.reduce(full, starts, counts)
    clipped = np.minimum(counts, 2)
    tstarts = np.cumsum(clipped) - clipped
    sel = np.concatenate([np.arange(s, s + c)
                          for s, c in zip(starts, clipped)])
    got = semiring.reduce_truncated(full[sel], tstarts, counts)
    assert np.array_equal(got, expect)


def test_truncation_contract_rejects_validity_masks():
    """A semiring claiming a truncation depth while emitting validity masks
    would silently truncate the wrong products — the kernel refuses."""
    class _Liar(BidirectedMinPlus):
        product_reduce_depth = 2

    rng = np.random.default_rng(14)
    A = _rand_mat(rng, 10, 10, 0.3, 4)
    mask = _rand_mat(rng, 10, 10, 0.5, 1)
    with pytest.raises(ValueError, match="product_reduce_depth"):
        spgemm_esc_masked(A, NUMPY.transpose(A), _Liar(), mask)


# -- backend dispatch paths ----------------------------------------------------

def test_spgemm_with_path_labels():
    rng = np.random.default_rng(11)
    A1 = _rand_mat(rng, 12, 12, 0.25, 1)
    mask1 = _rand_mat(rng, 12, 12, 0.25, 1)
    A2 = _rand_mat(rng, 12, 12, 0.25, 2)
    At2 = NUMPY.transpose(A2)
    mask2 = _rand_mat(rng, 12, 12, 0.25, 1)

    _, path = NUMPY.spgemm_with_path(A1, A1, PlusTimes())
    assert path == "esc"
    _, path = NUMPY.spgemm_with_path(A1, A1, PlusTimes(), mask=mask1)
    assert path == "masked_esc"
    _, path = SCIPY.spgemm_with_path(A1, A1, PlusTimes())
    assert path == "csr"
    _, path = SCIPY.spgemm_with_path(A1, A1, PlusTimes(), mask=mask1)
    assert path == "masked_csr"
    # Multi-field semirings never lower: scipy/auto run the (masked) ESC.
    for bk in (SCIPY, AUTO):
        _, path = bk.spgemm_with_path(A2, At2, PositionsSemiring(),
                                      mask=mask2)
        assert path == "masked_esc"
        _, path = bk.spgemm_with_path(A2, At2, PositionsSemiring())
        assert path == "esc"


# -- masked SUMMA --------------------------------------------------------------

def _rand_dist(rng, shape, density, grid, nfields=1):
    g = _rand_mat(rng, *shape, density, nfields)
    return DistMat.from_coo(shape, grid, g.row, g.col, g.vals), g


@pytest.mark.parametrize("P", [1, 4, 9])
@pytest.mark.parametrize("make_executor",
                         [lambda: SERIAL, lambda: ThreadExecutor(3)],
                         ids=["serial", "thread3"])
def test_summa_masked_matches_filtered(P, make_executor):
    rng = np.random.default_rng(P)
    grid = ProcessGrid2D(P)
    A, GA = _rand_dist(rng, (21, 30), 0.15, grid)
    B, GB = _rand_dist(rng, (30, 13), 0.15, grid)
    mask, gmask = _rand_dist(rng, (21, 13), 0.3, grid)
    comm = SimComm(P, CommTracker(P))
    C = summa(A, B, PlusTimes(), comm, "t", executor=make_executor(),
              mask=mask)
    expect = mask_select(spgemm_esc(GA, GB, PlusTimes()), gmask)
    _assert_identical(C.to_global(), expect)


def test_summa_mask_validation():
    grid = ProcessGrid2D(4)
    rng = np.random.default_rng(3)
    A, _ = _rand_dist(rng, (10, 10), 0.2, grid)
    comm = SimComm(4, CommTracker(4))
    bad_shape, _ = _rand_dist(rng, (10, 9), 0.2, grid)
    with pytest.raises(ValueError, match="mask shape"):
        summa(A, A, PlusTimes(), comm, "t", mask=bad_shape)
    bad_grid, _ = _rand_dist(rng, (10, 10), 0.2, ProcessGrid2D(1))
    with pytest.raises(ValueError, match="process grid"):
        summa(A, A, PlusTimes(), comm, "t", mask=bad_grid)


def test_summa_counts_kernel_paths():
    grid = ProcessGrid2D(4)
    rng = np.random.default_rng(4)
    A, _ = _rand_dist(rng, (16, 16), 0.3, grid)
    mask, _ = _rand_dist(rng, (16, 16), 0.3, grid)
    comm = SimComm(4, CommTracker(4))
    timer = StageTimer()
    summa(A, A, PlusTimes(), comm, "Stage", timer, backend="auto", mask=mask)
    counts = timer.kernel_counts()
    # q=2 SUMMA: 2 stages x 4 block products, every one mask-pruned CSR.
    assert counts == {"Stage": {"masked_csr": 8}}


# -- end-to-end: pipeline output is engine-independent -------------------------

@pytest.fixture(scope="module")
def tiny_reads():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=7_000, seed=31), depth=9,
                    mean_len=600, min_len=300, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=33))
    return reads


@pytest.mark.parametrize("overlap_mode", ["monolithic", "blocked"])
def test_pipeline_byte_identical_across_engines(tiny_reads, overlap_mode):
    results = {}
    for impl in SPGEMM_IMPL.choices:
        cfg = PipelineConfig(nprocs=4, align_mode="chain", fuzz=20,
                             depth_hint=9, error_hint=0.0,
                             overlap_mode=overlap_mode,
                             n_strips=3 if overlap_mode == "blocked"
                             else None, spgemm_impl=impl)
        results[impl] = run_pipeline(tiny_reads, cfg)
    esc, masked = results["esc"], results["masked"]
    _assert_identical(esc.S, masked.S)
    assert (esc.nnz_a, esc.nnz_c, esc.nnz_r, esc.nnz_s) == \
           (masked.nnz_a, masked.nnz_c, masked.nnz_r, masked.nnz_s)
    assert esc.tr_rounds == masked.tr_rounds
    # Identical communication: the decomposed count product runs on an
    # untracked shadow communicator, so the tracker records match bytewise.
    assert esc.tracker.summary() == masked.tracker.summary()
    # The one intended divergence: the masked TrReduction live set (R + the
    # pattern-pruned N) can only be smaller than the unmasked one.
    peaks_esc = esc.timer.peak_bytes()
    peaks_masked = masked.timer.peak_bytes()
    assert peaks_masked["TrReduction"] < peaks_esc["TrReduction"]
    assert peaks_masked["SpGEMM"] == peaks_esc["SpGEMM"]


def test_pipeline_reports_engine_and_paths(tiny_reads):
    cfg = PipelineConfig(nprocs=4, align_mode="chain", fuzz=20,
                         depth_hint=9, error_hint=0.0, spgemm_impl="masked")
    result = run_pipeline(tiny_reads, cfg)
    assert result.config.spgemm_impl == "masked"
    paths = result.spgemm_paths
    # The overlap product splits into a native count pass + a masked ESC
    # seed pass; the TR squaring is masked ESC throughout.
    assert set(paths["SpGEMM"]) == {"csr", "masked_esc"}
    assert set(paths["TrReduction"]) == {"masked_esc"}
    esc = run_pipeline(tiny_reads,
                       PipelineConfig(nprocs=4, align_mode="chain", fuzz=20,
                                      depth_hint=9, error_hint=0.0,
                                      spgemm_impl="esc"))
    assert esc.config.spgemm_impl == "esc"
    assert set(esc.spgemm_paths["SpGEMM"]) == {"esc"}
    assert set(esc.spgemm_paths["TrReduction"]) == {"esc"}


def test_pipeline_rejects_unknown_engine(tiny_reads):
    cfg = PipelineConfig(nprocs=1, spgemm_impl="nope")
    with pytest.raises(ValueError, match="unknown spgemm_impl"):
        run_pipeline(tiny_reads, cfg)
