"""Property-based tests on pipeline-level invariants.

Hypothesis drives small random genomes/read sets through overlap detection
and checks the structural invariants that every downstream consumer relies
on: R's symmetry and suffix-pair consistency, C's superset relation to R,
determinism, and the monotone effect of the score threshold.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.overlap import (AlignmentFilter, align_candidates,
                                build_a_matrix, candidate_overlaps)
from repro.core.semirings import (R_CONTAINED, R_CONTAINS, R_END_I, R_END_J,
                                  R_SUFFIX)
from repro.core.string_graph import StringGraph
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs.dna import GenomeSpec
from repro.seqs.kmer_counter import count_kmers
from repro.seqs.simulator import ErrorModel, ReadSimSpec, simulate_reads

SETTINGS = settings(max_examples=8, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _small_reads(seed: int, err: float):
    _genome, reads, layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=6_000, seed=seed), depth=8,
                    mean_len=500, min_len=300, sigma_len=0.2,
                    error=ErrorModel(rate=err), seed=seed + 1))
    return reads, layout


def _build(reads, filt=None):
    comm = SimComm(1, CommTracker(1))
    timer = StageTimer()
    table = count_kmers(reads, 17, comm, timer, upper=40)
    A = build_a_matrix(reads, table, ProcessGrid2D(1), comm, timer)
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates(C, reads, 17, comm, timer, mode="chain", fuzz=30,
                         filt=filt)
    return C.to_global(), R.to_global()


@SETTINGS
@given(st.integers(0, 1000), st.sampled_from([0.0, 0.03]))
def test_r_symmetry_and_suffix_consistency(seed, err):
    reads, _layout = _small_reads(seed, err)
    _C, R = _build(reads)
    entries = {(int(r), int(c)): v for r, c, v in zip(R.row, R.col, R.vals)}
    for (i, j), v in entries.items():
        assert (j, i) in entries, "R must be structurally symmetric"
        w = entries[(j, i)]
        # The two directions of one physical overlap share swapped ends.
        assert v[R_END_I] == w[R_END_J]
        assert v[R_END_J] == w[R_END_I]
        # A dovetail's two overhangs, or a containment's two markers.
        assert (v[R_SUFFIX] >= 1 and w[R_SUFFIX] >= 1) or \
            {int(v[R_SUFFIX]), int(w[R_SUFFIX])} == {R_CONTAINED, R_CONTAINS}


@SETTINGS
@given(st.integers(0, 1000))
def test_r_pairs_subset_of_c_pairs(seed):
    reads, _layout = _small_reads(seed, 0.0)
    C, R = _build(reads)
    c_pairs = set(zip(C.row.tolist(), C.col.tolist()))
    r_pairs = {(min(int(a), int(b)), max(int(a), int(b)))
               for a, b in zip(R.row, R.col)}
    assert r_pairs <= c_pairs


@SETTINGS
@given(st.integers(0, 1000))
def test_determinism(seed):
    reads, _layout = _small_reads(seed, 0.03)
    _, R1 = _build(reads)
    _, R2 = _build(reads)
    assert np.array_equal(R1.row, R2.row)
    assert np.array_equal(R1.vals, R2.vals)


@SETTINGS
@given(st.integers(0, 1000))
def test_stricter_filter_monotone(seed):
    reads, _layout = _small_reads(seed, 0.0)
    _, loose = _build(reads, AlignmentFilter(min_score=10, min_overlap=100,
                                             ratio=0.2))
    _, strict = _build(reads, AlignmentFilter(min_score=10, min_overlap=300,
                                              ratio=0.2))
    loose_pairs = set(zip(loose.row.tolist(), loose.col.tolist()))
    strict_pairs = set(zip(strict.row.tolist(), strict.col.tolist()))
    assert strict_pairs <= loose_pairs
