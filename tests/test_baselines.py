"""Tests for the baselines (Myers, SORA-like, diBELLA 1D)."""

import numpy as np
import pytest

from repro.baselines import (myers_transitive_reduction, run_dibella1d,
                             sora_transitive_reduction)
from repro.core.string_graph import StringGraph


# -- Myers ------------------------------------------------------------------

def test_myers_removes_chain_transitive():
    src = np.array([0, 1, 1, 2, 0, 2])
    dst = np.array([1, 0, 2, 1, 2, 0])
    suffix = np.array([4, 6, 3, 5, 7, 11])
    end_src = np.array([1, 0, 1, 0, 1, 0])
    end_dst = np.array([0, 1, 0, 1, 0, 1])
    g = StringGraph(3, src, dst, suffix, end_src, end_dst)
    out = myers_transitive_reduction(g, fuzz=0)
    assert (0, 2) not in out.edge_set()
    assert (0, 1) in out.edge_set()


def test_myers_fixed_point(clean_overlap_graph):
    out = myers_transitive_reduction(clean_overlap_graph, fuzz=20)
    again = myers_transitive_reduction(out, fuzz=20)
    assert out.edge_set() == again.edge_set()


def test_myers_rowmax_at_least_as_aggressive(clean_overlap_graph):
    """rowmax bound (the paper's) removes a superset of Myers' per-edge
    bound removals."""
    g = clean_overlap_graph
    rowmax = myers_transitive_reduction(g, fuzz=20, use_rowmax=True)
    peredge = myers_transitive_reduction(g, fuzz=20, use_rowmax=False)
    assert rowmax.edge_set() <= peredge.edge_set()


# -- SORA ------------------------------------------------------------------

def test_sora_matches_myers(clean_overlap_graph):
    g = clean_overlap_graph
    sora = sora_transitive_reduction(g, nodes=2)
    myers = myers_transitive_reduction(g, fuzz=150)
    assert sora.graph.edge_set() == myers.edge_set()


def test_sora_runtime_flat_in_nodes(clean_overlap_graph):
    """Table VI's signature: SORA's modeled time is nearly constant in the
    node count (framework-overhead dominated)."""
    g = clean_overlap_graph
    t = [sora_transitive_reduction(g, nodes=n).modeled_seconds
         for n in (2, 8, 32)]
    assert max(t) / min(t) < 2.0


def test_sora_counts_supersteps_and_shuffle(clean_overlap_graph):
    res = sora_transitive_reduction(clean_overlap_graph, nodes=2)
    assert res.supersteps >= 2  # work + quiescence check
    assert res.shuffle_bytes > 0


# -- diBELLA 1D ----------------------------------------------------------------

@pytest.fixture(scope="module")
def oned_run(clean_dataset):
    _genome, reads, _layout = clean_dataset
    return run_dibella1d(reads, k=17, nprocs=4, align_mode="chain",
                         depth_hint=12, error_hint=0.0, kmer_upper=40)


def test_1d_finds_overlaps(clean_dataset, oned_run):
    _genome, reads, layout = clean_dataset
    assert oned_run.n_overlaps > 0
    assert oned_run.n_candidate_pairs >= oned_run.n_overlaps


def test_1d_counts_and_traffic_pinned(oned_run):
    """Exact outputs of the 1D run on the clean set: candidate pairs,
    dovetails that survive alignment, and each stage's traffic."""
    assert (oned_run.n_candidate_pairs, oned_run.n_overlaps) == (2015, 909)
    traffic = {stage: (rec.total_bytes, rec.total_messages)
               for stage, rec in oned_run.tracker.records.items()}
    assert traffic == {"CountKmer": (1641576, 36),
                       "Overlap1D": (20939600, 12),
                       "ExchangeRead1D": (181744, 6)}


def test_1d_candidates_match_2d(clean_dataset, oned_run):
    """1D and 2D compute the same candidate pair set (they are the same
    outer product, differently distributed)."""
    from overlap_helpers import build_overlap_graph
    from repro.core.overlap import build_a_matrix, candidate_overlaps
    from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
    from repro.seqs.kmer_counter import count_kmers

    _genome, reads, _layout = clean_dataset
    comm = SimComm(1, CommTracker(1))
    timer = StageTimer()
    table = count_kmers(reads, 17, comm, timer, upper=40)
    A = build_a_matrix(reads, table, ProcessGrid2D(1), comm, timer)
    C = candidate_overlaps(A, comm, timer)
    assert oned_run.n_candidate_pairs == C.nnz()


def test_1d_comm_exceeds_2d_at_moderate_p(clean_dataset):
    """Table I's point: at moderate P the 1D overlap exchange moves more
    words per rank than the 2D SpGEMM broadcasts (a²m/P vs am/√P with the
    duplicated-candidate constant)."""
    from repro.core.overlap import build_a_matrix, candidate_overlaps
    from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
    from repro.seqs.kmer_counter import count_kmers

    _genome, reads, _layout = clean_dataset
    P = 4
    oned = run_dibella1d(reads, k=17, nprocs=P, align_mode="chain",
                         depth_hint=12, error_hint=0.0, kmer_upper=40)
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    timer = StageTimer()
    table = count_kmers(reads, 17, comm, timer, upper=40)
    A = build_a_matrix(reads, table, ProcessGrid2D(P), comm, timer)
    candidate_overlaps(A, comm, timer)
    w_1d = oned.tracker.words("Overlap1D")
    w_2d = tracker.words("SpGEMM")
    assert w_1d > 0 and w_2d > 0
    assert w_1d > 0.5 * w_2d  # the duplicated-pair volume is substantial
