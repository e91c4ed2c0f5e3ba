"""Masked SpGEMM engine: kernel parity, dispatch, and pipeline identity.

The contract under test (PR 6): for every shipped semiring, any sparsity
pattern, and any mask pattern, ``spgemm_esc_masked(A, B, sr, mask)`` is
**byte-identical** to ``mask_select(spgemm_esc(A, B, sr), mask)`` — same
coordinates, same int64 values, same entry order — and the mask threads
through every layer (SUMMA's local product, SUMMA, the transitive-reduction
squaring, the full pipeline) without changing a single output byte.  The
only observable differences are performance artifacts: kernel-dispatch
counters and the recorded ``TrReduction`` live-set peak.

PR 18 added a second masked kernel for semirings that declare
``product_reduce_depth``: ``spgemm_dot_masked`` carries the same contract
and is checked *directly* (not through the router) wherever ESC is, and
``masked_route`` — the pre-expansion choice between the two — is pinned by
its label, its work counters and its memory.
"""

import pickle
import re
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import repro.core.overlap as overlap_mod
import repro.dsparse.masked as masked_mod
from repro.core.overlap import (align_candidates, build_a_matrix,
                                candidate_overlaps)
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.semirings import BidirectedMinPlus, PositionsSemiring
from repro.core.transitive_reduction import transitive_reduction
from repro.dsparse.coomat import CooMat
from repro.dsparse.distmat import DistMat
from repro.dsparse.masked import (mask_select, masked_route,
                                  spgemm_dot_masked, spgemm_esc_masked,
                                  spgemm_masked, spgemm_upper)
from repro.dsparse.spgemm import (multiway_merge, packed_order, spgemm_esc,
                                  stable_key_order, stable_key_sort)
from repro.dsparse.summa import summa
from repro.exec import SERIAL, ProcessExecutor
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.mpisim.grid import block_bounds
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.kmer_counter import count_kmers, reliable_upper_bound

from oracles.scipy_ref import from_scipy
from oracles.semirings import BoolOr, MinPlus, PlusTimes
from overlap_helpers import esc_upper, local_product

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


def _pattern_csr(M: CooMat) -> sp.csr_matrix:
    """``M``'s pattern with unit weights, built independently with scipy."""
    return sp.csr_matrix((np.ones(M.nnz, dtype=np.int64), (M.row, M.col)),
                         shape=M.shape)


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
       st.booleans(), st.booleans())
def test_property_masked_kernel_identity(seed, semiring_name, da, db,
                                         dmask, negatives, b_is_at):
    """Both masked kernels ≡ unmasked ESC ∩ mask, for every semiring and
    pattern — each called directly, then through the router and SUMMA's
    local product."""
    rng = np.random.default_rng(seed)
    cls, nf = SEMIRINGS[semiring_name]
    lo = -5 if negatives else 1
    A = _rand_mat(rng, 17, 23, da, nf, lo=lo)
    # The direction-checked MinPlus needs R-typed square operands; the
    # positions multiply takes any two A-typed operands, so B ≠ Aᵀ too.
    # Aᵀ is taken formed (the oracle) and as the view every kernel reads.
    at = semiring_name == "bidirected_min_plus" or \
        (semiring_name == "positions" and b_is_at)
    operands = [A.transpose(), A.T] if at else \
        [_rand_mat(rng, 23, 14, db, nf, lo=lo)]
    out_shape = (A.shape[0], operands[0].shape[1])
    mask = _rand_mat(rng, *out_shape, dmask, 1)
    semiring = cls()
    oracle = mask_select(spgemm_esc(A, operands[0], semiring), mask)
    for B in operands:
        _assert_identical(spgemm_esc(A, B, semiring),
                          spgemm_esc(A, operands[0], semiring))
        _assert_identical(spgemm_esc_masked(A, B, semiring, mask), oracle)
        if semiring.product_reduce_depth is not None:
            _assert_identical(spgemm_dot_masked(A, B, semiring, mask),
                              oracle)
        routed, path = spgemm_masked(A, B, semiring, mask)
        _assert_identical(routed, oracle)
        assert path in ("masked_esc", "masked_dot")
        # SUMMA's local product agrees too.
        _assert_identical(
            local_product(A, B, semiring, mask=mask)[0], oracle)


def _positions_operand(rng, rows, cols, density):
    return _rand_mat(rng, rows, cols, density, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
def test_property_dot_kernel_all_densities(seed, da, db, dmask):
    """The dot kernel at every operand and mask density up to full —
    long rows, dense groups, empty rows/columns, mask entries without
    products — against both ESC forms, B ≠ Aᵀ."""
    rng = np.random.default_rng(seed)
    A = _positions_operand(rng, 13, 40, da)
    B = _positions_operand(rng, 40, 11, db)
    mask = _rand_mat(rng, 13, 11, dmask, 1)
    semiring = PositionsSemiring()
    oracle = mask_select(spgemm_esc(A, B, semiring), mask)
    _assert_identical(spgemm_esc_masked(A, B, semiring, mask), oracle)
    _assert_identical(spgemm_dot_masked(A, B, semiring, mask), oracle)


def test_masked_with_full_product_mask_is_unmasked():
    """A mask covering the whole product pattern changes nothing."""
    rng = np.random.default_rng(5)
    A = _rand_mat(rng, 15, 15, 0.25, 2)
    semiring = PositionsSemiring()
    full = spgemm_esc(A, A.transpose(), semiring)
    mask = CooMat((15, 15), full.row, full.col,
                  np.ones((full.nnz, 1), dtype=np.int64))
    for At in (A.transpose(), A.T):
        _assert_identical(spgemm_esc_masked(A, At, semiring, mask), full)
        _assert_identical(spgemm_dot_masked(A, At, semiring, mask), full)


#: Both masked kernels behind one signature; the dot kernel needs a
#: semiring with a truncation depth, so shared cases use PositionsSemiring.
KERNELS = {"esc": spgemm_esc_masked, "dot": spgemm_dot_masked}


def test_masked_empty_operands_and_mask():
    semiring = PositionsSemiring()
    rng = np.random.default_rng(6)
    A = _positions_operand(rng, 8, 9, 0.3)
    B = _positions_operand(rng, 9, 7, 0.3)
    mask = _rand_mat(rng, 8, 7, 0.4, 1)
    # Operands that share no inner index: products nowhere, mask or not.
    lone_a = CooMat((8, 9), [2], [1], [[5, 0]])
    lone_b = CooMat((9, 7), [4], [3], [[6, 1]])
    for run in KERNELS.values():
        out = run(A, B, semiring, CooMat.empty((8, 7)))
        assert out.nnz == 0 and out.shape == (8, 7) and out.nfields == 7
        assert run(CooMat.empty((8, 9), 2), B, semiring, mask).nnz == 0
        assert run(A, CooMat.empty((9, 7), 2), semiring, mask).nnz == 0
        assert run(lone_a, lone_b, semiring, mask).nnz == 0


def test_masked_shape_validation():
    semiring = PositionsSemiring()
    for run in KERNELS.values():
        with pytest.raises(ValueError, match="inner dimensions"):
            run(CooMat.empty((3, 4), 2), CooMat.empty((5, 3), 2), semiring,
                CooMat.empty((3, 3)))
        with pytest.raises(ValueError, match="mask shape"):
            run(CooMat.empty((3, 4), 2), CooMat.empty((4, 2), 2), semiring,
                CooMat.empty((3, 3)))


def test_masked_unpackable_shape_is_refused_by_name():
    """An output whose packed ``(row, col)`` keys would overflow int64 is
    refused with a ``ValueError`` naming its shape — by ``mask_select``,
    both masked kernels and the router alike — before anything is
    expanded, instead of wrapping keys into a crash deep in the mask
    lookup.  Here row ``2³¹ + 5`` times ``2³²`` columns wraps the key."""
    big = 2 ** 32
    A = CooMat((big, 1), [0, 2 ** 31 + 5], [0, 0], [[2, 0], [3, 1]])
    B = CooMat((1, big), [0, 0], [3, 7], [[4, 1], [5, 1]])
    mask = CooMat((big, big), [0, 2 ** 31 + 5], [3, 7], [[1], [1]])
    named = f"keys of a {big} x {big} matrix overflow int64"
    with pytest.raises(ValueError, match=named):
        mask.keys()
    with pytest.raises(ValueError, match=named):
        spgemm_esc_masked(A, B, PlusTimes(), mask)
    with pytest.raises(ValueError, match=named):
        mask_select(mask, mask)
    for kernel in (spgemm_dot_masked, spgemm_masked):
        with pytest.raises(ValueError, match=named):
            kernel(A, B, PositionsSemiring(), mask)


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


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=300),
       st.sampled_from([0, 1, 22, 30, 60, 61]))
@example([], 0)
@example([2], 0)
@example([3, 3, 3, 3], 61)
def test_stable_key_order_is_the_stable_argsort(small, scale):
    """Heavy ties (four distinct keys), empty and one-element inputs, key
    scales on both sides of the 32-bit sort word (at scale 22 up to 255
    keys fit it, more do not), and key scales where key and index bits no
    longer fit 63 — there the tagged sort would overflow, so only the
    fallback gives this answer.  ``stable_key_sort`` gives the same order
    and the keys in it."""
    keys = np.array(small, dtype=np.int64) << np.int64(scale)
    bound = (3 << scale) + 1
    order = stable_key_order(keys, bound)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    sorted_keys, same = stable_key_sort(keys, bound)
    assert np.array_equal(same, order)
    assert sorted_keys.dtype == np.int64
    assert np.array_equal(sorted_keys, keys[order])


# -- reduce truncation (product_reduce_depth) ----------------------------------

def test_positions_declares_truncation_depth():
    """Only the positions semiring opts into the truncated seed pass; the
    MinPlus-style reduces need every product and must stay off it."""
    assert PositionsSemiring.product_reduce_depth == 2
    for cls in (BidirectedMinPlus, PlusTimes, MinPlus, BoolOr):
        assert cls.product_reduce_depth is None


def test_positions_reduce_truncated_matches_reduce():
    """reduce_truncated over clipped groups == reduce over full groups,
    including the count field (true group size) and seed-2 backfill; with
    fewer products taken, the seeds not taken stay unfilled."""
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
    got = semiring.reduce_truncated(full[sel], tstarts, counts, clipped)
    assert np.array_equal(got, expect)
    assert np.array_equal(semiring.group_sizes(got), counts)
    # One product of group 2, none of group 3: a one-seed and a count-only
    # row, the rest as before.
    taken = np.array([1, 2, 1, 0, 1])
    tstarts = np.cumsum(taken) - taken
    sel = np.concatenate([np.arange(s, s + c) for s, c in zip(starts, taken)])
    short = semiring.reduce_truncated(full[sel], tstarts, counts, taken)
    assert np.array_equal(short[[0, 1, 4]], expect[[0, 1, 4]])
    assert np.array_equal(short[2, :4], expect[2, :4])
    assert (short[2, 4:] == -1).all()
    assert short[3, 0] == 3 and (short[3, 1:] == -1).all()


def test_truncation_contract_rejects_validity_masks():
    """A semiring claiming a truncation depth while emitting validity masks
    would silently truncate the wrong products — the kernel refuses."""
    class _Liar(BidirectedMinPlus):
        product_reduce_depth = 2

    rng = np.random.default_rng(14)
    A = _rand_mat(rng, 10, 10, 0.3, 4)
    mask = _rand_mat(rng, 10, 10, 0.5, 1)
    for run in KERNELS.values():
        for At in (A.transpose(), A.T):
            with pytest.raises(ValueError,
                               match="_Liar sets product_reduce_depth"):
                run(A, At, _Liar(), mask)


def test_dot_kernel_requires_truncation_depth():
    """Without a declared depth there is no "first d products" to fetch:
    the dot kernel says so instead of guessing (the router never asks)."""
    rng = np.random.default_rng(15)
    A = _rand_mat(rng, 10, 10, 0.3, 4)
    mask = _rand_mat(rng, 10, 10, 0.5, 1)
    with pytest.raises(ValueError, match="BidirectedMinPlus declares no "
                                         "product_reduce_depth"):
        spgemm_dot_masked(A, A.transpose(), BidirectedMinPlus(), mask)
    for At in (A.transpose(), A.T):
        _, path = spgemm_masked(A, At, BidirectedMinPlus(), mask)
        assert path == "masked_esc"


# -- the dot kernel's window walk ----------------------------------------------

def _rows_sharing(commons, length, inner, rng):
    """Two sorted index rows of ``length`` inside ``range(inner)`` whose
    intersection is exactly ``commons``."""
    commons = np.asarray(commons, dtype=np.int64)
    rest = np.setdiff1d(np.arange(inner), commons)
    rest = rng.permutation(rest)
    n = length - commons.shape[0]
    return (np.sort(np.concatenate([commons, rest[:n]])),
            np.sort(np.concatenate([commons, rest[n:2 * n]])))


def _pair_operands(row_a, col_b, inner, rng):
    """A (1 x inner) holding ``row_a`` and B (inner x 1) holding ``col_b``."""
    def vals(n):
        return np.stack([rng.integers(0, 900, n), rng.integers(0, 2, n)], 1)
    A = CooMat((1, inner), np.zeros_like(row_a), row_a, vals(row_a.shape[0]))
    B = CooMat((inner, 1), col_b, np.zeros_like(col_b), vals(col_b.shape[0]))
    return A, B


@pytest.mark.parametrize("commons", [1, 2, 8, 64])
def test_dot_last_element_singleton(commons):
    """A group whose commons are the last elements of two long rows (the
    singleton among them: only the very last): the walk has to reach the
    end, whatever the group size its first window is cut from."""
    rng = np.random.default_rng(21)
    inner = 400
    row_a, col_b = _rows_sharing(np.arange(inner - commons, inner), 150,
                                 inner, rng)
    assert row_a[-1] == col_b[-1] == inner - 1
    A, B = _pair_operands(row_a, col_b, inner, rng)
    mask = CooMat((1, 1), [0], [0], [[1]])
    semiring = PositionsSemiring()
    tally = {}
    out = spgemm_dot_masked(A, B, semiring, mask, tally)
    _assert_identical(out, spgemm_esc_masked(A, B, semiring, mask))
    assert out.vals[0, 0] == commons                # the group's true size
    assert tally == {"probes": 150}                 # every element, once


def test_dot_window_growth_is_incremental():
    """The first window is sized from the group: ``⌈need·(len + 1) /
    (count + 1)⌉``.  Four commons in 23-element lines, need 2: 10 elements,
    which hold the first common only (the second sits at index 10), so the
    doubled window, cut to the 13 left, follows — 23 look-ups, none
    repeated.  With one seed already supplied by an earlier stage (need 1)
    the first window is 5 and holds it; with two, nothing is walked."""
    rng = np.random.default_rng(22)
    commons = [5, 100, 200, 299]
    # A's fillers are odd, B's even, so the rows meet at ``commons`` only;
    # A walks (equal lengths) and holds 5 at index 0, 100 at index 10.
    row_a = np.array([5] + list(range(7, 25, 2)) + [100] +
                     list(range(101, 121, 2)) + [200, 299])
    col_b = np.array([5] + list(range(6, 44, 2)) + [100, 200, 299])
    assert row_a.shape == col_b.shape and row_a[10] == 100
    assert sorted(set(row_a) & set(col_b)) == commons
    A, B = _pair_operands(row_a, col_b, 300, rng)
    mask = CooMat((1, 1), [0], [0], [[1]])
    semiring = PositionsSemiring()
    oracle = spgemm_esc_masked(A, B, semiring, mask)
    assert oracle.vals[0, 0] == 4
    tally = {}
    _assert_identical(spgemm_dot_masked(A, B, semiring, mask, tally), oracle)
    assert tally == {"probes": 10 + 13}
    for supplied, probes in ((1, 5), (2, 0), (5, 0)):
        second = [9, 10, 0] if supplied >= 2 else [-1, -1, -1]
        earlier = CooMat((1, 1), [0], [0], [[supplied, 7, 8, 1] + second])
        tally = {}
        out = spgemm_dot_masked(A, B, semiring, mask, tally, prior=[earlier])
        assert tally == {"probes": probes}
        kept = 2 - min(supplied, 2)
        assert out.vals[0, 0] == 4
        assert np.array_equal(out.vals[0, 1:1 + 3 * kept],
                              oracle.vals[0, 1:1 + 3 * kept])
        assert (out.vals[0, 1 + 3 * kept:] == -1).all()
        _assert_identical(multiway_merge([earlier, out], semiring, (1, 1)),
                          multiway_merge([earlier, oracle], semiring, (1, 1)))


def test_dot_walks_the_shorter_side():
    """A long row against a one-element column costs one look-up, and the
    other way round; groups keep ESC's k-ascending seed order either way."""
    rng = np.random.default_rng(23)
    inner = 500
    long_row = np.sort(rng.permutation(inner)[:300])
    k = long_row[-1:]
    semiring = PositionsSemiring()
    mask = CooMat((1, 1), [0], [0], [[1]])
    for row_a, col_b in ((long_row, k), (k, long_row)):
        A, B = _pair_operands(row_a, col_b, inner, rng)
        tally = {}
        out = spgemm_dot_masked(A, B, semiring, mask, tally)
        _assert_identical(out, spgemm_esc_masked(A, B, semiring, mask))
        assert out.nnz == 1 and tally == {"probes": 1}


def test_dot_mask_entries_without_products_and_empty_lines():
    """Mask coordinates whose row/column share nothing, rows and columns
    that are empty, and a mask far denser than the product."""
    semiring = PositionsSemiring()
    #      k: 0  1  2  3  4  5
    # row 0:  x  .  x  .  .  .
    # row 1:  .  .  .  .  .  .      (empty row)
    # row 2:  .  x  .  x  .  x
    A = CooMat((3, 6), [0, 0, 2, 2, 2], [0, 2, 1, 3, 5],
               [[10, 0], [11, 1], [12, 0], [13, 1], [14, 0]])
    # col 0 = {0, 2}, col 1 = {} (empty column), col 2 = {1, 4}, col 3 = {3, 5}
    B = CooMat((6, 4), [0, 2, 1, 4, 3, 5], [0, 0, 2, 2, 3, 3],
               [[20, 0], [21, 0], [22, 1], [23, 1], [24, 0], [25, 1]])
    full = CooMat((3, 4), np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3),
                  np.ones((12, 1), dtype=np.int64))
    oracle = mask_select(spgemm_esc(A, B, semiring), full)
    assert list(zip(oracle.row, oracle.col)) == [(0, 0), (2, 2), (2, 3)]
    _assert_identical(spgemm_dot_masked(A, B, semiring, full), oracle)
    _assert_identical(spgemm_esc_masked(A, B, semiring, full), oracle)


def test_masked_kernels_accept_read_only_operands():
    """Operands mapped read-only (a forked worker's pages) go through both
    kernels untouched."""
    rng = np.random.default_rng(24)
    A = _positions_operand(rng, 12, 30, 0.5)
    B = _positions_operand(rng, 30, 9, 0.5)
    mask = _rand_mat(rng, 12, 9, 0.6, 1)
    semiring = PositionsSemiring()
    oracle = mask_select(spgemm_esc(A, B, semiring), mask)
    for m in (A, B, mask):
        for arr in (m.row, m.col, m.vals):
            arr.flags.writeable = False
    for run in KERNELS.values():
        _assert_identical(run(A, B, semiring, mask), oracle)


# -- local-product dispatch paths -------------------------------------------

def test_spgemm_with_path_labels():
    rng = np.random.default_rng(11)
    A1 = _rand_mat(rng, 12, 12, 0.25, 1)
    mask1 = _rand_mat(rng, 12, 12, 0.25, 1)
    A2 = _rand_mat(rng, 12, 12, 0.25, 2)
    At2 = A2.transpose()
    mask2 = _rand_mat(rng, 12, 12, 0.25, 1)

    _, path = local_product(A1, A1, PlusTimes())
    assert path == "esc"
    _, path = local_product(A1, A1, PlusTimes(), mask=mask1)
    assert path == "masked_esc"
    # Masked, the kernel masked_route picks (ESC on this sparse,
    # low-compression input; the routing tests below cover the other side).
    assert not masked_route(A2, At2, mask2, 2).dot
    for B in (At2, A2.T):
        _, path = local_product(A2, B, PositionsSemiring(), mask=mask2)
        assert path == "masked_esc"
        _, path = local_product(A2, B, PositionsSemiring())
        assert path == "esc"


# -- kernel choice: routing, counters, memory ----------------------------------

def _read_kmer_operands(rng, n_reads, read_len, genome, keep=0.9):
    """Read-by-k-mer operands (A, Aᵀ, strict-upper-triangle mask of A·Aᵀ):
    ``n_reads`` windows of ``read_len`` k-mer slots over a ``genome`` whose
    k-mer ids are shuffled, each slot kept with probability ``keep``."""
    ids = rng.permutation(genome)
    starts = rng.integers(0, genome - read_len, n_reads)
    rows = np.repeat(np.arange(n_reads), read_len)
    cols = ids[(starts[:, None] + np.arange(read_len)[None, :]).ravel()]
    kept = rng.random(rows.shape[0]) < keep
    rows, cols = rows[kept], cols[kept]
    A = CooMat((n_reads, genome), rows, cols,
               np.stack([rng.integers(0, 5000, rows.shape[0]),
                         rng.integers(0, 2, rows.shape[0])], axis=1))
    At = A.transpose()
    full = (_pattern_csr(A) @ _pattern_csr(At)).tocoo()
    upper = full.row < full.col
    mask = CooMat(full.shape, full.row[upper], full.col[upper],
                  np.ones((int(upper.sum()), 1), dtype=np.int64))
    return A, At, mask


def test_route_follows_compression():
    """Many shared columns per masked pair (long, clean reads) take the dot
    kernel; few (short, noisy reads at equal nnz) take ESC — through the
    local product's path label, the same rule on both."""
    semiring = PositionsSemiring()
    rng = np.random.default_rng(31)
    labels = {}
    for name, args in (("high", (60, 600, 4000, 0.9)),
                       ("low", (1200, 150, 40000, 0.2))):
        A, At, mask = _read_kmer_operands(rng, *args)
        route = masked_route(A, At, mask, semiring.product_reduce_depth)
        out, labels[name] = local_product(A, At, semiring, mask=mask)
        _assert_identical(out, spgemm_esc_masked(A, At, semiring, mask))
        # The view routes the same way, to the same bytes.
        assert masked_route(A, A.T, mask, 2) == route
        view, label = local_product(A, A.T, semiring, mask=mask)
        assert label == labels[name]
        _assert_identical(view, out)
        # The rule's inputs, so a failure names the quantity that moved.
        print(name, "nnz(A) =", A.nnz, route,
              "products/mask entry =", route.flops / route.nnz_mask,
              "flops/est_probes =", route.flops / route.est_probes)
        assert route.dot == (labels[name] == "masked_dot"), route
    assert labels == {"high": "masked_dot", "low": "masked_esc"}


def test_route_is_a_pure_function_of_pre_expansion_quantities():
    """flops from the row pointers, span from the masked pairs' lengths,
    the estimate and the decision from those — checked against a dense
    recomputation on asymmetric products, below and above the flops floor."""
    rng = np.random.default_rng(32)
    taken = []
    for rows, inner, cols in ((14, 50, 9), (60, 200, 45)):
        A = _positions_operand(rng, rows, inner, 0.4)
        B = _positions_operand(rng, inner, cols, 0.7)
        mask = _rand_mat(rng, rows, cols, 0.5, 1)
        pa = _pattern_csr(A).toarray()
        pb = _pattern_csr(B).toarray()
        route = masked_route(A, B, mask, 2)
        assert route.flops == int((pa @ pb).sum())
        assert route.nnz_mask == mask.nnz
        assert route.span == int(np.minimum(pa.sum(1)[mask.row],
                                            pb.sum(0)[mask.col]).sum())
        assert route.est_probes == \
            route.span * min(1, 2 * mask.nnz / route.flops)
        assert route.flops >= 8 * route.est_probes, route
        assert route.dot == (route.flops >= 2 ** 15), route
        taken.append(route.dot)
    assert taken == [False, True]


def test_dot_probes_bounded_and_additive_over_blocks():
    """On the dot path ``probes`` never exceeds the masked pairs' shorter
    lines (let alone ``Σ len_i + len_j``), whatever the group sizes; ESC's
    ``products`` is the block's flops; and SUMMA's per-stage work counters
    are the sum over its block products, each stage's called with the
    partials its block accumulated so far — fewer probes than the same
    products made independently."""
    semiring = PositionsSemiring()
    rng = np.random.default_rng(33)
    A, At, mask = _read_kmer_operands(rng, 96, 600, 4000, 0.9)
    route = masked_route(A, At, mask, 2)
    a_len = np.diff(A.csr_indptr())
    b_len = np.bincount(At.col, minlength=At.shape[1])
    for B in (At, A.T):
        tally = {}
        spgemm_dot_masked(A, B, semiring, mask, tally)
        assert set(tally) == {"probes"}
        assert 0 < tally["probes"] <= route.span <= \
            int((a_len[mask.row] + b_len[mask.col]).sum())
        tally = {}
        spgemm_esc_masked(A, B, semiring, mask, tally)
        assert tally == {"products": route.flops}

    grid = ProcessGrid2D(4)
    dA = DistMat.from_coo(A.shape, grid, A.row, A.col, A.vals)
    dAt = dA.T
    dmask = DistMat.from_coo(mask.shape, grid, mask.row, mask.col, mask.vals)
    timer = StageTimer()
    summa(dA, dAt, semiring, SimComm(4, CommTracker(4)), "Stage", timer,
          mask=dmask)
    expect_paths, expect_work, _ = _replay_summa(
        dA, dAt, semiring, lambda i, j, tally, prior, a, b:
        spgemm_masked(a, b, semiring, dmask.blocks[i][j], tally, prior))
    assert timer.kernel_counts() == {"Stage": expect_paths}
    assert timer.work_counts() == {"Stage": expect_work}
    assert expect_paths["masked_dot"] >= 4 and expect_work["probes"] > 0
    independent = {}
    for i, j, k in np.ndindex(2, 2, 2):
        spgemm_masked(dA.blocks[i][k], dAt.blocks[k][j], semiring,
                      dmask.blocks[i][j], independent)
    assert expect_work["probes"] < independent["probes"]
    # The counters ride StageTimer.merge like every other stage record.
    twice = StageTimer()
    twice.merge(timer)
    twice.merge(timer)
    assert twice.work_counts()["Stage"]["probes"] == 2 * expect_work["probes"]


def _replay_summa(A, B, semiring, product):
    """SUMMA's block products one by one, as its accumulation calls them:
    ``product(i, j, tally, prior, A(i, k), B(k, j))`` at stage ``k`` with
    block ``(i, j)``'s nonempty partials of the stages before.  Returns the
    path counts, the summed work and, per block, ``(k, path, partial)`` of
    each nonempty partial."""
    q = A.grid.q
    paths, work, partials = {}, {}, {}
    for i, j in np.ndindex(q, q):
        stages = partials[i, j] = []
        for k in range(q):
            part, path = product(i, j, work, tuple(p for *_, p in stages),
                                 A.blocks[i][k], B.blocks[k][j])
            paths[path] = paths.get(path, 0) + 1
            if part.nnz:
                stages.append((k, path, part))
    return paths, work, partials


def _traced_peak(run, *args):
    tracemalloc.start()
    try:
        out = run(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dot_memory_tracks_operands_not_flops():
    """Peak allocation of the dot path on a ≥ 100-products-per-mask-entry
    input is a small multiple of ``nnz(A) + nnz(B) + probes`` words
    (measured: 2.0), below the 8 bytes per elementary product that ESC's
    narrowest product-scale array alone costs, and an order of magnitude
    below what ESC really allocates (measured: 25x)."""
    semiring = PositionsSemiring()
    rng = np.random.default_rng(34)
    A, At, mask = _read_kmer_operands(rng, 120, 1500, 12000, 0.9)
    route = masked_route(A, At, mask, 2)
    assert route.dot and route.flops >= 100 * mask.nnz
    A.csr_indptr(), At.csr_indptr()          # cached derivatives: not ours
    tally = {}
    out, peak = _traced_peak(spgemm_dot_masked, A, At, semiring, mask, tally)
    esc, esc_peak = _traced_peak(spgemm_esc_masked, A, At, semiring, mask)
    _assert_identical(out, esc)
    words = A.nnz + At.nnz + tally["probes"]
    assert peak < 4 * 8 * words, (peak, words)
    assert peak < 8 * route.flops / 2, (peak, route.flops)
    assert 10 * peak < esc_peak, (peak, esc_peak)


# -- masked SUMMA --------------------------------------------------------------

def _rand_dist(rng, shape, density, grid, nfields=1):
    g = _rand_mat(rng, *shape, density, nfields)
    return DistMat.from_coo(shape, grid, g.row, g.col, g.vals), g


@pytest.mark.parametrize("P", [1, 4, 9])
@pytest.mark.parametrize("make_executor",
                         [lambda: SERIAL, lambda: ProcessExecutor(3)],
                         ids=["serial", "process3"])
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


@pytest.mark.parametrize("P", [1, 4, 9])
@pytest.mark.parametrize("make_executor",
                         [lambda: SERIAL, lambda: ProcessExecutor(2)],
                         ids=["serial", "process2"])
def test_summa_masked_dot_matches_filtered(P, make_executor):
    """The positions product under a mask, on blocks the router sends to
    the dot kernel: same bytes as the global ESC ∩ mask on every grid and
    executor, with the work tally carried back from pool workers."""
    rng = np.random.default_rng(40 + P)
    GA, _, _ = _read_kmer_operands(rng, 72, 900, 3000, 0.9)
    GB = _positions_operand(rng, GA.shape[1], 29, 0.8)      # B ≠ Aᵀ
    gmask = _rand_mat(rng, 72, 29, 0.5, 1)
    grid = ProcessGrid2D(P)
    A = DistMat.from_coo(GA.shape, grid, GA.row, GA.col, GA.vals)
    B = DistMat.from_coo(GB.shape, grid, GB.row, GB.col, GB.vals)
    mask = DistMat.from_coo(gmask.shape, grid, gmask.row, gmask.col,
                            gmask.vals)
    semiring = PositionsSemiring()
    timer = StageTimer()
    with make_executor() as executor:
        C = summa(A, B, semiring, SimComm(P, CommTracker(P)), "t", timer,
                  executor=executor, mask=mask)
    _assert_identical(C.to_global(),
                      mask_select(spgemm_esc(GA, GB, semiring), gmask))
    paths = timer.kernel_counts()["t"]
    assert sum(paths.values()) == grid.q ** 3
    assert paths.get("masked_dot", 0) > 0, paths
    assert timer.work_counts()["t"]["probes"] > 0


#: Pairs whose commons straddle SUMMA stages, as (stage 0, middle, last)
#: common counts: k-mer columns [0, 15), [140, 150) and [225, 240) of 240
#: sit in stage 0, a middle stage and the last stage on 2 × 2, 3 × 3 and
#: 4 × 4 grids (on 2 × 2 the middle is the last).
STRADDLING = {"one_then_one": (1, 0, 1), "one_then_two": (1, 0, 2),
              "none_then_two": (0, 0, 2), "none_then_split": (0, 1, 1),
              "saturated_first": (3, 1, 2), "one_one_three": (1, 1, 3)}


def _straddling_reads(rng):
    """Read-by-k-mer operand: 40 bulk reads sharing many k-mers (blocks the
    dot kernel takes) around the :data:`STRADDLING` pairs, whose two reads
    share exactly their listed columns (private to the pair) and nothing
    else; reads are shuffled so the pairs land in many blocks."""
    m = 240
    reserved = np.r_[0:15, 140:150, 225:240]
    bulk_cols = np.setdiff1d(np.arange(m), reserved)
    rows = [np.flatnonzero(rng.random(bulk_cols.shape[0]) < 0.9)
            for _ in range(40)]
    rows = [bulk_cols[r] for r in rows]
    lanes = [iter(range(0, 15)), iter(range(140, 150)), iter(range(225, 240))]
    for counts in STRADDLING.values():
        cols = np.array([next(lanes[s]) for s, c in enumerate(counts)
                         for _ in range(c)])
        rows += [cols, cols]
    order = rng.permutation(len(rows))
    rows = [rows[o] for o in order]
    r = np.repeat(np.arange(len(rows)), [x.shape[0] for x in rows])
    c = np.concatenate(rows)
    vals = np.stack([rng.integers(0, 900, r.shape[0]),
                     rng.integers(0, 2, r.shape[0])], axis=1)
    return CooMat((len(rows), m), r, c, vals), order


@pytest.fixture(scope="module")
def straddling():
    """The operand, its pairs' global coordinates and the oracle: the whole
    positions product by plain ESC, then its strict upper triangle."""
    GA, order = _straddling_reads(np.random.default_rng(41))
    at = np.argsort(order)          # read slot of each unshuffled read
    pairs = [tuple(sorted(at[[40 + 2 * p, 41 + 2 * p]]))
             for p in range(len(STRADDLING))]
    full = spgemm_esc(GA, GA.transpose(), PositionsSemiring())
    return GA, pairs, full.select(full.row < full.col)


@pytest.mark.parametrize("P", [4, 9, 16])
@pytest.mark.parametrize("make_executor",
                         [lambda: SERIAL, lambda: ProcessExecutor(2)],
                         ids=["serial", "process2"])
def test_summa_stage_aware_seeds_straddling_stages(straddling, P,
                                                   make_executor,
                                                   monkeypatch):
    """Commons split across stages — one then one, none then two, a pair
    saturated in stage 0 — under both the triangle predicate and an
    explicit mask: C is the global ESC product's bytes, the work counters
    are the replayed accumulation's, and the partials show the short rows
    (one seed, none) that stage-aware seeds leave."""
    # The bulk's blocks are small: lift the dot kernel's floor so the
    # router's compression rule alone decides (fork-started workers
    # inherit the patch).
    monkeypatch.setattr(masked_mod, "_DOT_MIN_FLOPS", 0)
    GA, pairs, oracle = straddling
    semiring = PositionsSemiring()
    grid = ProcessGrid2D(P)
    A = DistMat.from_coo(GA.shape, grid, GA.row, GA.col, GA.vals)
    mask = DistMat.from_coo(oracle.shape, grid, oracle.row, oracle.col,
                            np.ones((oracle.nnz, 1), dtype=np.int64))
    rb = grid.row_bounds(GA.shape[0])
    shorts = {"upper": 0, "mask": 0}
    runs = {"upper": (dict(upper=0), lambda i, j, tally, prior, a, b:
                      spgemm_upper(a, b, semiring, (int(rb[i]), int(rb[j])),
                                   tally, prior)),
            "mask": (dict(mask=mask), lambda i, j, tally, prior, a, b:
                     spgemm_masked(a, b, semiring, mask.blocks[i][j], tally,
                                   prior))}
    for name, (how, product) in runs.items():
        timer = StageTimer()
        with make_executor() as executor:
            C = summa(A, A.T, semiring, SimComm(P, CommTracker(P)), "t",
                      timer, executor=executor, **how)
        _assert_identical(C.to_global(), oracle)
        paths, work, partials = _replay_summa(A, A.T, semiring, product)
        assert timer.kernel_counts() == {"t": paths}, name
        assert timer.work_counts() == {"t": work}, name
        assert paths.get("masked_dot", 0) >= grid.q, (name, paths)
        # Each pair's partial rows, stage by stage: (count, seeds held).
        stage_of = np.searchsorted(grid.col_bounds(GA.shape[1]), [0, 140, 225],
                                   side="right") - 1
        for (r, c), counts in zip(pairs, STRADDLING.values()):
            i, j = (int(np.searchsorted(rb, x, side="right") - 1)
                    for x in (r, c))
            got, want, supplied = [], [], 0
            for k, path, part in partials[i, j]:
                at = np.flatnonzero((part.row == r - rb[i]) &
                                    (part.col == c - rb[j]))
                n = sum(ct for s, ct in zip(stage_of, counts) if s == k)
                assert at.shape[0] == (n > 0)
                if n:
                    vals = part.vals[at[0]]
                    got.append((int(vals[0]), int((vals[[1, 4]] >= 0).sum())))
                    full = path != "masked_dot"
                    want.append((n, min(n, 2 if full else
                                        max(0, 2 - supplied))))
                    supplied += min(n, 2)
            assert got == want, (name, r, c, got)
            shorts[name] += sum(h < min(n, 2) for n, h in got)
    # The triangle predicate and the mask each left short rows somewhere.
    assert min(shorts.values()) > 0, shorts


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
    summa(A, A, PlusTimes(), comm, "Stage", timer, mask=mask)
    counts = timer.kernel_counts()
    # q=2 SUMMA: 2 stages x 4 block products, every one on the pruned ESC
    # (PlusTimes declares no truncation depth, so the dot kernel is out).
    assert counts == {"Stage": {"masked_esc": 8}}


# -- the upper triangle as a coordinate predicate ------------------------------

def _triangle(shape, origin):
    """The dense strict-upper-triangle mask of a block at global ``origin``."""
    rows, cols = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
    keep = rows + origin[0] < cols + origin[1]
    return CooMat(shape, rows[keep], cols[keep],
                  np.ones((int(keep.sum()), 1), dtype=np.int64))


def _upper_groups(A, B, origin):
    """The dot kernel's pre-sized input, built independently with scipy:
    the pattern product's strict upper part, group sizes as values."""
    full = from_scipy(_pattern_csr(A) @ _pattern_csr(B))
    return mask_select(full, _triangle(full.shape, origin))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(0.0, 0.8), st.floats(0.0, 0.8),
       st.integers(0, 40), st.integers(-16, 16), st.sampled_from([0, 7]),
       st.booleans())
def test_property_upper_kernel_identity(seed, da, db, row0, shift, offset,
                                        b_is_at):
    """Both routes of the predicate-masked block kernel ≡ unmasked ESC ∩
    triangle.  ``col0 - row0 = shift + offset`` sweeps blocks wholly above
    the diagonal (≥ 13, the row count), wholly on or below it (≤ -10, one
    less than the column count) and across it; ``offset`` is a strip's
    column offset folded into the column origin, as SUMMA folds it."""
    rng = np.random.default_rng(seed)
    A = _positions_operand(rng, 13, 40, da)
    # B = Aᵀ's first 11 columns: formed (the oracle) and as a view.
    operands = [A.transpose().submatrix(0, 40, 0, 11),
                A.submatrix(0, 11, 0, 40).T] if b_is_at else \
        [_positions_operand(rng, 40, 11, db)]
    origin = (row0, row0 + shift + offset)
    semiring = PositionsSemiring()
    oracle = mask_select(spgemm_esc(A, operands[0], semiring),
                         _triangle((13, 11), origin))
    for B in operands:
        # ESC route: under 2¹⁵ products the router never takes the dot
        # kernel.
        tally = {}
        routed, path = spgemm_upper(A, B, semiring, origin, tally)
        _assert_identical(routed, oracle)
        assert path == "masked_esc"
        if shift + offset <= -10:        # wholly on or below: not computed
            assert (routed.nnz, tally) == (0, {})
        # Dot route, on the pre-sized groups the router would hand it.
        _assert_identical(spgemm_dot_masked(A, B, semiring,
                                            _upper_groups(A, B, origin),
                                            sized=True),
                          oracle)
        out, _ = local_product(A, B, semiring, upper=origin)
        _assert_identical(out, oracle)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([1, 4, 9]),
       st.integers(0, 35), st.integers(1, 35))
def test_property_summa_upper_matches_triangle(seed, P, lo, width):
    """SUMMA with ``upper=lo`` on a column strip ``Aᵀ[:, lo:lo+width]``
    (rows ``lo:hi`` of A, viewed transposed) ≡ the global ESC product ∩
    {row < col + lo}, on every grid."""
    rng = np.random.default_rng(seed)
    n = 36
    GA = _positions_operand(rng, n, 50, 0.25)
    hi = min(n, lo + width)
    grid = ProcessGrid2D(P)
    A = DistMat.from_coo(GA.shape, grid, GA.row, GA.col, GA.vals)
    strip = A.row_slice(lo, hi).T
    assert all(b.transposed for brow in strip.blocks for b in brow)
    gs = GA.transpose().submatrix(0, GA.shape[1], lo, hi)
    _assert_identical(strip.to_global(), gs)
    semiring = PositionsSemiring()
    timer = StageTimer()
    C = summa(A, strip, semiring, SimComm(P, CommTracker(P)), "t", timer,
              upper=lo)
    expect = mask_select(spgemm_esc(GA, gs, semiring),
                         _triangle((n, hi - lo), (0, lo)))
    _assert_identical(C.to_global(), expect)
    assert sum(timer.kernel_counts()["t"].values()) == grid.q ** 3


def _strict_upper_pairs(X: CooMat) -> int:
    """``Σ c(c − 1)/2`` over ``X``'s column lengths ``c``: the products a
    symmetric block ``X·Xᵀ`` has strictly above its diagonal."""
    c = np.bincount(X.col, minlength=X.shape[1])
    return int((c * (c - 1) // 2).sum())


def test_upper_routes_like_the_triangle_mask():
    """On a single block the predicate kernel gives the masked router's
    bytes under the triangle of the product's own pattern, on both sides
    of the floor.  Against a formed ``Aᵀ`` it also takes the router's route
    and does its work.  Against the view ``A.T`` at ``(0, 0)`` the block is
    symmetric, and both are sized by the strict-upper products ESC would
    expand: the route is :func:`masked_route`'s at that count, and ESC's
    tally is exactly it.  The last case routes to the dot kernel by its
    full flops but to ESC by its triangle."""
    semiring = PositionsSemiring()
    rng = np.random.default_rng(35)
    paths = []
    for args in ((60, 600, 4000, 0.9), (1200, 150, 40000, 0.2),
                 (40, 60, 2000, 0.9), (400, 60, 6000, 0.9)):
        A, At, mask = _read_kmer_operands(rng, *args)
        want_tally, got_tally, sym_tally = {}, {}, {}
        want, want_path = spgemm_masked(A, At, semiring, mask, want_tally)
        got, got_path = spgemm_upper(A, At, semiring, (0, 0), got_tally)
        _assert_identical(got, want)
        assert (got_path, got_tally) == (want_path, want_tally)
        sym, sym_path = spgemm_upper(A, A.T, semiring, (0, 0), sym_tally)
        _assert_identical(sym, want)
        pairs = _strict_upper_pairs(A)
        if pairs >= 2 ** 15 and masked_route(A, At, mask, 2, pairs).dot:
            dot_tally = {}
            spgemm_dot_masked(A, At, semiring, mask, dot_tally)
            assert (sym_path, sym_tally) == ("masked_dot", dot_tally)
        else:
            assert (sym_path, sym_tally) == ("masked_esc",
                                             {"products": pairs})
        paths.append((got_path, sym_path))
    assert paths == [("masked_dot", "masked_dot"),
                     ("masked_esc", "masked_esc"),
                     ("masked_esc", "masked_esc"),
                     ("masked_dot", "masked_esc")]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 24), st.integers(1, 40),
       st.floats(0.0, 0.6), st.integers(0, 50), st.booleans(),
       st.booleans())
@example(seed=1, rows=1, cols=1, density=0.0, r=0, shared=False,
         holes=False)
@example(seed=2, rows=24, cols=40, density=0.0, r=7, shared=True,
         holes=False)
def test_property_symmetric_block_expands_each_pair_once(seed, rows, cols,
                                                         density, r, shared,
                                                         holes):
    """A block times its own transpose view at a diagonal origin
    ``(r, r)`` is symmetric: ESC pairs each column entry only with the
    entries after it.  Byte-identical to the unmasked ESC product over a
    formed ``Xᵀ`` cut to the strict upper triangle, and its ``products``
    tally is ``Σ c(c − 1)/2`` over the column lengths — exactly, so
    pairing an entry with itself as well fails.  ``shared`` puts column 0
    in every row; ``holes`` empties every third row and column; sparse
    draws leave single-entry and empty columns."""
    rng = np.random.default_rng(seed)
    X = _positions_operand(rng, rows, cols, density)
    if shared:
        X = X.select(X.col != 0)
        X = CooMat(X.shape, np.concatenate([X.row, np.arange(rows)]),
                   np.concatenate([X.col, np.zeros(rows, np.int64)]),
                   np.vstack([X.vals, rng.integers(0, 2, (rows, 2))]))
    if holes:
        X = X.select((X.row % 3 != 1) & (X.col % 3 != 1))
    semiring = PositionsSemiring()
    oracle = mask_select(spgemm_esc(X, X.transpose(), semiring),
                         _triangle((rows, rows), (r, r)))
    tally = {}
    out, path = spgemm_upper(X, X.T, semiring, (r, r), tally)
    _assert_identical(out, oracle)
    assert path == "masked_esc"
    assert tally.get("products", 0) == _strict_upper_pairs(X)


@pytest.mark.parametrize("P", [4, 9])
@pytest.mark.parametrize("make_executor",
                         [lambda: SERIAL, lambda: ProcessExecutor(2)],
                         ids=["serial", "process2"])
def test_summa_products_count_each_diagonal_pair_once(P, make_executor):
    """``A·Aᵀ`` under ``upper=0``: a diagonal block-stage expands only its
    strict-upper pairs, a block above the diagonal every product, one below
    none — on the serial and the process pool, where a block task and its
    transpose view cross a pickle together and must stay one block.  The
    kernel paths are ESC throughout (every block under the floor)."""
    rng = np.random.default_rng(50 + P)
    GA = _positions_operand(rng, 45, 120, 0.15)
    grid = ProcessGrid2D(P)
    A = DistMat.from_coo(GA.shape, grid, GA.row, GA.col, GA.vals)
    semiring = PositionsSemiring()
    timer = StageTimer()
    with make_executor() as executor:
        C = summa(A, A.T, semiring, SimComm(P, CommTracker(P)), "t", timer,
                  executor=executor, upper=0)
    n = GA.shape[0]
    _assert_identical(C.to_global(),
                      mask_select(spgemm_esc(GA, GA.transpose(), semiring),
                                  _triangle((n, n), (0, 0))))
    q = grid.q
    expect = 0
    for k in range(q):
        blocks = [A.blocks[i][k] for i in range(q)]
        lens = [np.bincount(b.col, minlength=b.shape[1]) for b in blocks]
        for i in range(q):
            expect += _strict_upper_pairs(blocks[i])
            expect += sum(int(lens[i] @ lens[j]) for j in range(i + 1, q))
    assert timer.work_counts()["t"] == {"products": expect}
    assert timer.kernel_counts()["t"] == {"masked_esc": q ** 3}


def test_summa_rejects_mask_and_upper_together():
    grid = ProcessGrid2D(4)
    rng = np.random.default_rng(36)
    A, _ = _rand_dist(rng, (10, 10), 0.2, grid)
    with pytest.raises(ValueError, match="not both"):
        summa(A, A, PlusTimes(), SimComm(4, CommTracker(4)), "t", mask=A,
              upper=0)


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
    """A run's candidate product, strip by strip, is the unmasked ESC
    product pruned to the triangle afterwards: composed by hand from the
    run's stages with that product in its place, nnz(C), R and S are the
    run's, and so is the SpGEMM traffic (both broadcast the same operand
    blocks once per SUMMA stage)."""
    n_strips = 3 if overlap_mode == "blocked" else 1
    result = run_pipeline(tiny_reads, PipelineConfig(
        nprocs=4, align_mode="chain", fuzz=20, depth_hint=9, error_hint=0.0,
        overlap_mode=overlap_mode,
        n_strips=n_strips if overlap_mode == "blocked" else None))
    P = 4
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    table = count_kmers(tiny_reads, 17, comm,
                        upper=reliable_upper_bound(9, 0.0, 17))
    A = build_a_matrix(tiny_reads, table, ProcessGrid2D(P), comm)
    bounds = block_bounds(A.shape[0], n_strips)
    parts, nnz_c = [], 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        At = A.T if n_strips == 1 else A.row_slice(lo, hi).T
        C = esc_upper(A, At, comm, col_offset=lo)
        nnz_c += C.nnz()
        parts.append(align_candidates(C, tiny_reads, 17, comm, mode="chain",
                                      fuzz=20, col_offset=lo).to_global())
    n = A.shape[0]
    R = DistMat.from_coo((n, n), A.grid,
                         np.concatenate([p.row for p in parts]),
                         np.concatenate([p.col for p in parts]),
                         np.vstack([p.vals for p in parts]))
    assert nnz_c == result.nnz_c
    _assert_identical(R.to_global(), result.R)
    assert tracker.summary()["SpGEMM"] == result.tracker.summary()["SpGEMM"]
    S = transitive_reduction(R, comm, fuzz=20).S.to_global()
    _assert_identical(S, result.S)


def test_pipeline_reports_engine_and_paths(tiny_reads):
    cfg = PipelineConfig(nprocs=4, align_mode="chain", fuzz=20,
                         depth_hint=9, error_hint=0.0, spgemm_impl="masked",
                         overlap_mode="monolithic")
    result = run_pipeline(tiny_reads, cfg)
    assert result.config.spgemm_impl == "masked"
    paths = result.kernel_counts
    # The overlap product is one SUMMA over q³ = 8 block products, the
    # triangle a coordinate predicate: error-free reads share hundreds of
    # k-mers per candidate pair, so every block above or across the
    # diagonal takes the dot kernel (the below-diagonal block is skipped
    # on ESC's early exit, 2 of the 8).  No count pass, so no `csr`.  The
    # MinPlus TR squaring has no truncation depth: masked ESC throughout.
    assert paths["SpGEMM"] == {"masked_dot": 6, "masked_esc": 2}
    assert set(paths["TrReduction"]) == {"masked_esc"}
    work = result.work_counts
    assert set(work["SpGEMM"]) == {"probes"} and work["SpGEMM"]["probes"] > 0
    assert set(work["TrReduction"]) == {"products"}


def test_candidate_overlaps_is_one_product(tiny_reads, monkeypatch):
    """C = A·Aᵀ is one SUMMA: q³ block products, with no count pass before
    it, and a pattern product (one pass of scipy's numeric kernel, never
    its symbolic one) exactly on the block-stages the dot kernel may take
    (≥ 2¹⁵ products ESC would expand, a diagonal block-stage's counted by
    its strict-upper pairs) — not one per block for a mask, and never a
    second one for the dot kernel's group sizes."""
    P = 4
    grid = ProcessGrid2D(P)
    comm = SimComm(P, CommTracker(P))
    table = count_kmers(tiny_reads, 17, comm, StageTimer(), upper=40)
    A = build_a_matrix(tiny_reads, table, grid, comm, StageTimer())
    At = A.T

    def expanded(i, j, k):
        """Products ESC would expand: a diagonal block-stage's are its
        strict-upper pairs."""
        if i == j:
            return _strict_upper_pairs(A.blocks[i][k])
        return int((_pattern_csr(A.blocks[i][k]) @
                    _pattern_csr(At.blocks[k][j])).sum())

    # Blocks wholly below the diagonal (i > j) are skipped uncomputed.
    big = sum(expanded(i, j, k) >= 2 ** 15
              for i in range(grid.q) for j in range(i, grid.q)
              for k in range(grid.q))
    matmuls = []
    real = sp._sparsetools.csr_matmat
    monkeypatch.setattr(masked_mod, "_csr_matmat",
                        lambda *args: matmuls.append(1) or real(*args))
    monkeypatch.delattr(sp._sparsetools, "csr_matmat_maxnnz")
    timer = StageTimer()
    C = candidate_overlaps(A, comm, timer, backend="auto",
                           spgemm_impl="masked")
    paths = timer.kernel_counts()["SpGEMM"]
    assert sum(paths.values()) == grid.q ** 3
    assert paths.get("masked_dot", 0) > 0 and big > 0
    assert 0 < len(matmuls) == big, (len(matmuls), big)
    monkeypatch.undo()
    oracle = esc_upper(A, A.T, SimComm(P, CommTracker(P)))
    _assert_identical(C.to_global(), oracle.to_global())


def test_candidate_overlaps_reads_one_copy_of_a(tiny_reads, monkeypatch):
    """C = A·Aᵀ on clean reads, where every computed block takes the dot
    kernel: nothing is transposed, no block runs the CSC counting pass, and
    every Aᵀ block SUMMA multiplies shares its arrays with its A block."""
    P = 4
    grid = ProcessGrid2D(P)
    comm = SimComm(P, CommTracker(P))
    table = count_kmers(tiny_reads, 17, comm, StageTimer(), upper=40)
    A = build_a_matrix(tiny_reads, table, grid, comm, StageTimer())
    calls = {"transpose": 0, "csc": 0}
    operands = []
    real_csc, real_transpose = CooMat._columns, CooMat.transpose
    real_summa = overlap_mod.summa

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def recording(A_, At_, *args, **kwargs):
        operands.append(At_)
        return real_summa(A_, At_, *args, **kwargs)

    monkeypatch.setattr(CooMat, "_columns", counting("csc", real_csc))
    monkeypatch.setattr(CooMat, "transpose",
                        counting("transpose", real_transpose))
    monkeypatch.setattr(overlap_mod, "summa", recording)
    timer = StageTimer()
    C = candidate_overlaps(A, comm, timer, spgemm_impl="masked")
    monkeypatch.undo()
    assert set(timer.kernel_counts()["SpGEMM"]) == {"masked_dot",
                                                    "masked_esc"}
    assert timer.work_counts()["SpGEMM"].keys() == {"probes"}
    assert calls == {"transpose": 0, "csc": 0}
    (At,) = operands
    for i in range(grid.q):
        for j in range(grid.q):
            t, a = At.blocks[i][j], A.blocks[j][i]
            assert t.transposed and t.T is a and a.nnz
            assert np.shares_memory(t.row, a.col)
            assert np.shares_memory(t.col, a.row)
            assert np.shares_memory(t.vals, a.vals)
    oracle = esc_upper(A, A.T, SimComm(P, CommTracker(P)))
    _assert_identical(C.to_global(), oracle.to_global())


def test_pattern_product_index_width(monkeypatch):
    """The pattern product's kernel receives 32-bit indices when a block
    fits and 64-bit ones otherwise — a block with more than 2³¹ − 1
    columns, or any block once the 32-bit bound is lowered under it — with
    the same product bytes either way."""
    widths = []

    def recording(*args):
        widths.append({a.dtype for a in args if isinstance(a, np.ndarray)})
        return kernel(*args)

    def no_product(*args):
        args[-3][:] = 0     # an empty product: no O(columns) kernel scratch

    monkeypatch.setattr(masked_mod, "_csr_matmat", recording)
    kernel = no_product
    huge = CooMat((4, 2 ** 31 + 5), [0, 2], [7, 2 ** 31 + 1], [[1], [2]])
    small = CooMat((3, 4), [0, 1], [0, 2], [[1], [1]])
    masked_mod.pattern_matmul(small.csr(), huge.csr(), huge.shape[1])
    assert widths == [{np.dtype(np.int64)}]
    kernel = sp._sparsetools.csr_matmat
    rng = np.random.default_rng(37)
    A, At, _mask = _read_kmer_operands(rng, 40, 300, 1500, 0.9)
    widths.clear()
    narrow = [masked_mod._pattern_product(A, B) for B in (At, A.T)]
    assert widths == [{np.dtype(np.int32)}] * 2
    monkeypatch.setattr(masked_mod, "_INDEX32_MAX", 10)
    widths.clear()
    wide = masked_mod._pattern_product(A, A.T)
    assert set().union(*widths) == {np.dtype(np.int64)}
    oracle = from_scipy(_pattern_csr(A) @ _pattern_csr(At))
    for C in narrow + [wide]:
        _assert_identical(C, oracle)


def test_pattern_product_is_one_sized_kernel_pass(monkeypatch):
    """The pattern product is scipy's numeric kernel ``csr_matmat`` alone —
    never the symbolic ``csr_matmat_maxnnz`` pass ``@`` runs first — with
    ``pattern(A) @ pattern(B)``'s coordinates and group sizes: on random
    operands with empty rows and columns, on formed and viewed ``Aᵀ``, on
    one range of rows and, where ``min(flops, rows × cols)`` exceeds
    ``nnz(A) + nnz(B)``, on many, each buffer within that budget; on 32-
    and 64-bit indices."""
    from scipy.sparse import _sparsetools
    # The kernel is bound on the first product: a scipy release that
    # renames it fails that import, one that rebinds the name elsewhere
    # fails here.
    monkeypatch.setattr(masked_mod, "_csr_matmat", None)
    pair = CooMat((2, 3), [0, 1], [0, 0], [[1], [1]])
    assert masked_mod._pattern_product(pair, pair.T).vals.tolist() == \
        [[1], [1], [1], [1]]
    assert masked_mod._csr_matmat is _sparsetools.csr_matmat
    rng = np.random.default_rng(39)
    holey = _positions_operand(rng, 30, 50, 0.3)
    holey = holey.select(~np.isin(holey.row, [0, 3, 29]) &
                         ~np.isin(holey.col, np.arange(10, 15)))
    thin = _positions_operand(rng, 120, 6, 0.8)      # flops ≫ nnz: split
    deep, _, _ = _read_kmer_operands(rng, 40, 300, 1500, 0.9)
    cases = {"holey_b": (holey, _positions_operand(rng, 50, 20, 0.2)),
             "holey_at": (holey, holey.T), "thin": (thin, thin.T),
             "thin_formed": (thin, thin.transpose()), "deep": (deep, deep.T)}
    oracles = {name: from_scipy(_pattern_csr(A) @ _pattern_csr(B))
               for name, (A, B) in cases.items()}
    calls = []
    real = _sparsetools.csr_matmat

    def counting(*args):
        calls.append(args[-2].shape[0])          # the column buffer's size
        return real(*args)

    def symbolic(*args):
        raise AssertionError("the symbolic pass ran")

    monkeypatch.setattr(masked_mod, "_csr_matmat", counting)
    monkeypatch.setattr(_sparsetools, "csr_matmat_maxnnz", symbolic)
    for wide in (False, True):
        if wide:
            monkeypatch.setattr(masked_mod, "_INDEX32_MAX", 10)
        ranges = {}
        for name, (A, B) in cases.items():
            calls.clear()
            _assert_identical(masked_mod._pattern_product(A, B),
                              oracles[name])
            assert max(calls) <= A.nnz + B.nnz, (name, calls)
            ranges[name] = len(calls)
        assert ranges["deep"] == ranges["holey_b"] == 1, ranges
        assert ranges["thin"] == ranges["thin_formed"] >= 10, ranges


def test_pattern_product_kernel_loads_from_its_extension(monkeypatch,
                                                         tmp_path):
    """Without ``scipy.sparse`` loaded, the kernel comes from the
    ``_sparsetools`` extension file, the same function the package binds,
    and ``sys.modules`` is left as it was.  A directory without that file,
    or an extension without ``csr_matmat``, is an ``ImportError`` naming
    what was searched, and leaves the handle unbound."""
    name = "scipy.sparse._sparsetools"
    pair = CooMat((2, 3), [0, 1], [0, 0], [[1], [1]])
    monkeypatch.setattr(masked_mod, "_csr_matmat", None)
    monkeypatch.delitem(sys.modules, name)
    assert masked_mod._load_csr_matmat() is sp._sparsetools.csr_matmat
    assert name not in sys.modules
    monkeypatch.setattr(masked_mod, "_scipy_sparse_dirs",
                        lambda: [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(
            f"no _sparsetools extension in {[str(tmp_path)]}")):
        masked_mod._pattern_product(pair, pair.T)
    assert masked_mod._csr_matmat is None and name not in sys.modules
    monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
    with pytest.raises(ImportError, match=f"{name} has no csr_matmat"):
        masked_mod._pattern_product(pair, pair.T)
    assert masked_mod._csr_matmat is None


@pytest.mark.parametrize("make_executor",
                         [lambda: SERIAL, lambda: ProcessExecutor(2)],
                         ids=["serial", "process2"])
def test_summa_upper_on_a_pickled_view(make_executor):
    """Aᵀ as a view crosses a process boundary with its block tasks and
    stays one: A·Aᵀ under the triangle predicate is the global oracle's
    bytes, with the dot kernel taken, on the serial and the process pool."""
    rng = np.random.default_rng(38)
    GA, GAt, _mask = _read_kmer_operands(rng, 72, 900, 3000, 0.9)
    grid = ProcessGrid2D(4)
    A = DistMat.from_coo(GA.shape, grid, GA.row, GA.col, GA.vals)
    view = pickle.loads(pickle.dumps(A.T.blocks[0][1]))
    assert view.transposed and view.vals is view.T.vals
    assert np.shares_memory(view.row, view.T.col)
    semiring = PositionsSemiring()
    timer = StageTimer()
    with make_executor() as executor:
        C = summa(A, A.T, semiring, SimComm(4, CommTracker(4)), "t", timer,
                  executor=executor, upper=0)
    n = GA.shape[0]
    _assert_identical(C.to_global(),
                      mask_select(spgemm_esc(GA, GAt, semiring),
                                  _triangle((n, n), (0, 0))))
    assert timer.kernel_counts()["t"].get("masked_dot", 0) > 0


def test_default_pipeline_paths_follow_resolved_engine(tiny_reads):
    """Whatever overlap mode and executor the environment resolves (the
    ``blocked`` and ``process-4`` CI legs), the reported paths and work
    counters are the default masked engine's and agree with each other."""
    result = run_pipeline(tiny_reads,
                          PipelineConfig(nprocs=4, align_mode="chain",
                                         fuzz=20, depth_hint=9,
                                         error_hint=0.0))
    paths, work = result.kernel_counts, result.work_counts
    assert result.config.spgemm_impl == "masked"
    # Which masked kernel depends on block size (strips fall under the
    # dot kernel's flops floor); the work counters name the one taken.
    seed_pass = set(paths["SpGEMM"])
    assert seed_pass and seed_pass <= {"masked_dot", "masked_esc"}
    assert ("masked_dot" in seed_pass) == ("probes" in work["SpGEMM"])
    assert sum(work["SpGEMM"].values()) > 0


def test_pipeline_rejects_unknown_engine(tiny_reads):
    cfg = PipelineConfig(nprocs=1, spgemm_impl="nope")
    with pytest.raises(ValueError, match="unknown spgemm_impl"):
        run_pipeline(tiny_reads, cfg)
