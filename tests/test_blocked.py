"""Tests for strip-mined overlap detection (the future-work memory mode)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.blocked import candidate_overlaps_blocked
from repro.core.memory import coo_nbytes
from repro.core.overlap import AlignmentFilter, align_candidates, \
    build_a_matrix, candidate_overlaps, full_product_nnz, row_census
from repro.core.semirings import R_NFIELDS
from repro.core.transitive_reduction import transitive_reduction
from repro.dsparse.distmat import DistMat
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.mpisim.grid import block_bounds
from repro.seqs.kmer_counter import count_kmers

from overlap_helpers import esc_upper, summa_upper


def _setup(reads, P=1):
    comm = SimComm(P, CommTracker(P))
    timer = StageTimer()
    grid = ProcessGrid2D(P)
    table = count_kmers(reads, 17, comm, timer, upper=40)
    A = build_a_matrix(reads, table, grid, comm, timer)
    return A, comm, timer


@pytest.mark.parametrize("P,strips", [(1, 3), (4, 2), (4, 5)])
def test_blocked_matches_monolithic(clean_dataset, P, strips):
    """The strip-mined path must produce a bit-identical R."""
    _genome, reads, _layout = clean_dataset
    A, comm, timer = _setup(reads, P)
    C = candidate_overlaps(A, comm, timer)
    R_mono = align_candidates(C, reads, 17, comm, timer, mode="chain",
                              fuzz=20).to_global()
    res = candidate_overlaps_blocked(A, reads, 17, comm, strips, timer,
                                     mode="chain", fuzz=20)
    R_blk = res.R.to_global()
    assert np.array_equal(R_blk.row, R_mono.row)
    assert np.array_equal(R_blk.col, R_mono.col)
    assert np.array_equal(R_blk.vals, R_mono.vals)


def test_blocked_counts_match_monolithic(clean_dataset):
    _genome, reads, _layout = clean_dataset
    A, comm, timer = _setup(reads)
    C = candidate_overlaps(A, comm, timer)
    res = candidate_overlaps_blocked(A, reads, 17, comm, 4, timer,
                                     mode="chain", fuzz=20)
    assert res.nnz_c == C.nnz()
    assert res.n_strips == 4


def test_blocked_reduces_peak_memory(clean_dataset):
    """More strips => smaller candidate-matrix high-water mark."""
    _genome, reads, _layout = clean_dataset
    A, comm, timer = _setup(reads)
    res1 = candidate_overlaps_blocked(A, reads, 17, comm, 1, timer,
                                      mode="chain", fuzz=20)
    res8 = candidate_overlaps_blocked(A, reads, 17, comm, 8, timer,
                                      mode="chain", fuzz=20)
    assert res8.peak_strip_nnz < res1.peak_strip_nnz
    # Roughly proportional to the strip count (within 3x slack for skew).
    assert res8.peak_strip_nnz < res1.peak_strip_nnz / 8 * 3


def test_blocked_single_strip_equals_candidate_overlaps(clean_dataset):
    _genome, reads, _layout = clean_dataset
    A, comm, timer = _setup(reads)
    res = candidate_overlaps_blocked(A, reads, 17, comm, 1, timer,
                                     mode="chain", fuzz=20)
    assert res.peak_strip_nnz == res.nnz_c


def test_blocked_records_strip_peak_bytes(clean_dataset):
    """The timer's SpGEMM high-water mark is the largest live strip."""
    _genome, reads, _layout = clean_dataset
    A, comm, timer = _setup(reads)
    t1, t4 = StageTimer(), StageTimer()
    res1 = candidate_overlaps_blocked(A, reads, 17, comm, 1, t1,
                                      mode="chain", fuzz=20)
    res4 = candidate_overlaps_blocked(A, reads, 17, comm, 4, t4,
                                      mode="chain", fuzz=20)
    assert res1.peak_strip_bytes == t1.peak_bytes()["SpGEMM"]
    assert res4.peak_strip_bytes == t4.peak_bytes()["SpGEMM"]
    # Four strips cut the recorded live-bytes peak by ~4 (3x slack for skew).
    assert res4.peak_strip_bytes < res1.peak_strip_bytes / 4 * 3
    # The recorded peak covers the pre-prune expansion, so it is at least
    # the post-prune strip payload.
    assert res4.peak_strip_bytes >= coo_nbytes(res4.peak_strip_nnz, 7)


def test_blocked_empty_r_keeps_semiring_field_count(clean_dataset):
    """Zero surviving overlaps must still yield an R_NFIELDS-field R.

    Regression: the empty-R branch used to hardcode ``np.empty((0, 4))``,
    silently desyncing from the R semiring layout if a field were added.
    A filter nothing can pass forces every strip (and the monolithic
    aligner) to produce an empty R.
    """
    _genome, reads, _layout = clean_dataset
    A, comm, timer = _setup(reads)
    impossible = AlignmentFilter(min_overlap=10**9)
    res = candidate_overlaps_blocked(A, reads, 17, comm, 3, timer,
                                     mode="chain", fuzz=20, filt=impossible)
    assert res.R.nnz() == 0
    assert res.nnz_c > 0                      # candidates existed...
    assert res.R.nfields == R_NFIELDS         # ...but R stayed well-typed
    g = res.R.to_global()
    assert g.vals.shape == (0, R_NFIELDS)
    # The empty R must remain consumable downstream.
    tr = transitive_reduction(res.R, comm, timer, fuzz=20)
    assert tr.S.nnz() == 0

    # Same guarantee on the monolithic path's empty branch.
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates(C, reads, 17, comm, timer, mode="chain", fuzz=20,
                         filt=impossible)
    assert R.nnz() == 0
    assert R.to_global().vals.shape == (0, R_NFIELDS)


@pytest.mark.parametrize("executor,workers", [("process", 2)])
def test_blocked_strip_work_on_pool_identical(clean_dataset, executor,
                                              workers):
    """Each strip's SUMMA blocks and alignment chunks on a pool: R, tracker
    records, and peaks match serial."""
    from repro.exec import get_executor
    _genome, reads, _layout = clean_dataset
    A, comm, timer = _setup(reads, P=4)
    res_ref = candidate_overlaps_blocked(A, reads, 17, comm, 4, timer,
                                         mode="chain", fuzz=20)
    ref_tracker = CommTracker(4)
    comm_ref = SimComm(4, ref_tracker)
    timer_ref = StageTimer()
    res_serial = candidate_overlaps_blocked(A, reads, 17, comm_ref, 4,
                                            timer_ref, mode="chain", fuzz=20)
    par_tracker = CommTracker(4)
    comm_par = SimComm(4, par_tracker)
    timer_par = StageTimer()
    with get_executor(executor, workers) as ex:
        res_par = candidate_overlaps_blocked(A, reads, 17, comm_par, 4,
                                             timer_par, mode="chain",
                                             fuzz=20, executor=ex)
    ref, par = res_serial.R.to_global(), res_par.R.to_global()
    assert np.array_equal(par.row, ref.row)
    assert np.array_equal(par.col, ref.col)
    assert np.array_equal(par.vals, ref.vals)
    assert res_par.nnz_c == res_serial.nnz_c == res_ref.nnz_c
    assert res_par.peak_strip_nnz == res_serial.peak_strip_nnz
    assert res_par.peak_strip_bytes == res_serial.peak_strip_bytes
    assert par_tracker.summary() == ref_tracker.summary()
    assert timer_par.peak_bytes() == timer_ref.peak_bytes()
    assert timer_par.stage_supersteps == timer_ref.stage_supersteps


def test_blocked_more_strips_than_reads_ok():
    """Degenerate: empty strips are skipped without error."""
    from repro.seqs.dna import encode
    from repro.seqs.fasta import ReadSet
    rng = np.random.default_rng(0)
    base = rng.integers(0, 4, 400).astype(np.uint8)
    reads = ReadSet(["a", "b"], [base[:300].copy(), base[100:].copy()])
    A, comm, timer = _setup(reads)
    res = candidate_overlaps_blocked(A, reads, 17, comm, 10, timer,
                                     mode="chain", fuzz=20)
    assert res.R.shape == (2, 2)


def _brute_force_strip_peak(A, n_strips):
    """Bytes of the largest column strip of the full, unpruned
    ``pattern(A) · pattern(A)ᵀ`` — what an unpruned SUMMA holds."""
    g = A.to_global()
    pa = sp.csr_matrix((np.ones(g.nnz), (g.row, g.col)), shape=g.shape)
    full = (pa @ pa.T).tocsc()
    bounds = block_bounds(A.shape[0], n_strips)
    return coo_nbytes(max(full[:, lo:hi].nnz
                          for lo, hi in zip(bounds[:-1], bounds[1:])), 7)


@pytest.mark.parametrize("dataset", ["clean_dataset", "noisy_dataset"])
@pytest.mark.parametrize("strips", [1, 2, 4, 7])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_blocked_peak_equals_brute_force(request, dataset, strips, executor):
    """The recorded SpGEMM peak — counted by symmetry from each strip's
    upper triangle and row census — equals the brute-force full strip
    product, on any executor, although no strip ever forms more than its
    upper triangle."""
    from repro.exec import get_executor
    _genome, reads, _layout = request.getfixturevalue(dataset)
    A, comm, _timer = _setup(reads, P=4)
    expect = _brute_force_strip_peak(A, strips)
    timer = StageTimer()
    with get_executor(executor, 2) as ex:
        res = candidate_overlaps_blocked(
            A, reads, 17, SimComm(4, CommTracker(4)), strips, timer,
            mode="chain", fuzz=20, executor=ex)
    assert res.peak_strip_bytes == timer.peak_bytes()["SpGEMM"] == expect
    if strips == 1:
        timer = StageTimer()
        candidate_overlaps(A, SimComm(4, CommTracker(4)), timer)
        assert timer.peak_bytes()["SpGEMM"] == expect


@pytest.mark.parametrize("strips", [1, 2, 4, 7])
def test_full_product_nnz_matches_every_strip(noisy_dataset, strips):
    """Not only the largest: every strip's count by symmetry — its own
    upper entries, its non-empty A rows and the census of upper entries
    whose row falls in it — is the brute-force strip of the full product."""
    _genome, reads, _layout = noisy_dataset
    A, comm, timer = _setup(reads, P=4)
    g = A.to_global()
    pa = sp.csr_matrix((np.ones(g.nnz), (g.row, g.col)), shape=g.shape)
    full = (pa @ pa.T).tocsc()
    bounds = block_bounds(A.shape[0], strips)
    upper, census = [], 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        C = summa_upper(A, A.row_slice(lo, hi).T, comm, timer,
                        col_offset=lo)
        upper.append(C.nnz())
        census = census + row_census(C, bounds)
    assert list(full_product_nnz(A, bounds, upper, census)) == \
        [full[:, lo:hi].nnz for lo, hi in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("P", [1, 4, 9])
def test_strips_are_row_slices_viewed_transposed(noisy_dataset, P):
    """A strip ``Aᵀ[:, lo:hi]`` is rows ``lo:hi`` of A re-blocked to the
    strip's grid bounds and viewed transposed: the formed transpose's
    columns (the oracle), and — taken as a whole, or wider than A's own
    block rows, or empty — the same strip products as that oracle."""
    _genome, reads, _layout = noisy_dataset
    A, comm, timer = _setup(reads, P=P)
    n, m = A.shape
    g = A.to_global()
    oracle_t = g.transpose()
    for lo, hi in ((0, n), (3, n // 2 + 5), (n // 3, n // 3), (n - 1, n)):
        strip = A.row_slice(lo, hi).T
        assert strip.shape == (m, hi - lo)
        assert all(b.transposed for brow in strip.blocks for b in brow)
        got = strip.to_global()
        want = oracle_t.submatrix(0, m, lo, hi)
        assert np.array_equal(got.row, want.row)
        assert np.array_equal(got.col, want.col)
        assert np.array_equal(got.vals, want.vals)
        formed = DistMat.from_coo(want.shape, A.grid, want.row, want.col,
                                  want.vals)
        C = summa_upper(A, strip, SimComm(P, CommTracker(P)),
                        col_offset=lo).to_global()
        C_ref = esc_upper(A, formed, SimComm(P, CommTracker(P)),
                          col_offset=lo).to_global()
        assert np.array_equal(C.row, C_ref.row)
        assert np.array_equal(C.col, C_ref.col)
        assert np.array_equal(C.vals, C_ref.vals)
    with pytest.raises(ValueError, match="out of range"):
        A.row_slice(2, n + 1)
