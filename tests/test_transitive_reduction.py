"""Tests for the distributed transitive reduction (Algorithm 2).

Correctness is pinned three ways:

* hand-built graphs with known transitive edges;
* equality with Myers' sequential reduction on pipeline-produced graphs
  (clean and noisy);
* equality with the brute-force two-hop enumeration, per round.
"""

import numpy as np
import pytest

from repro.baselines.myers import myers_transitive_reduction
from repro.core.string_graph import StringGraph
from repro.core.transitive_reduction import transitive_reduction
from repro.dsparse.distmat import DistMat
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm

from oracles.string_graph import transitive_edges_bruteforce
from overlap_helpers import build_overlap_graph


def _to_dist(graph: StringGraph, P: int) -> tuple[DistMat, SimComm]:
    grid = ProcessGrid2D(P)
    comm = SimComm(P, CommTracker(P))
    mat = graph.to_coomat()
    D = DistMat.from_coo(mat.shape, grid, mat.row, mat.col, mat.vals)
    return D, comm


def _chain_with_transitive():
    src = [0, 1, 1, 2, 0, 2]
    dst = [1, 0, 2, 1, 2, 0]
    suffix = [4, 6, 3, 5, 7, 11]
    end_src = [1, 0, 1, 0, 1, 0]
    end_dst = [0, 1, 0, 1, 0, 1]
    return StringGraph(3, np.array(src), np.array(dst), np.array(suffix),
                       np.array(end_src), np.array(end_dst))


@pytest.mark.parametrize("P", [1, 4])
def test_removes_transitive_edge_in_chain(P):
    g = _chain_with_transitive()
    D, comm = _to_dist(g, P)
    res = transitive_reduction(D, comm, fuzz=0)
    out = StringGraph.from_coomat(res.S.to_global())
    assert (0, 2) not in out.edge_set()
    assert (2, 0) not in out.edge_set()
    assert (0, 1) in out.edge_set() and (1, 2) in out.edge_set()
    assert res.removed == 2


def test_end_mismatch_protects_edge():
    g = _chain_with_transitive()
    idx = int(np.flatnonzero((g.src == 0) & (g.dst == 2))[0])
    g.end_src[idx] = 0  # direct edge's geometry no longer matches the path
    D, comm = _to_dist(g, 1)
    res = transitive_reduction(D, comm, fuzz=0)
    out = StringGraph.from_coomat(res.S.to_global())
    assert (0, 2) in out.edge_set()


def test_invalid_middle_walk_protects_edge():
    g = _chain_with_transitive()
    # Make both edges attach to the same end of read 1: path 0->1->2 is no
    # longer a valid walk, so 0->2 must survive.
    e12 = int(np.flatnonzero((g.src == 1) & (g.dst == 2))[0])
    e01 = int(np.flatnonzero((g.src == 0) & (g.dst == 1))[0])
    g.end_src[e12] = g.end_dst[e01]
    D, comm = _to_dist(g, 1)
    res = transitive_reduction(D, comm, fuzz=0)
    out = StringGraph.from_coomat(res.S.to_global())
    assert (0, 2) in out.edge_set()


@pytest.mark.parametrize("P", [1, 4])
def test_orientation_slots_protect_inverted_repeat_edge(P):
    """Read 1 bridges reads 0 and 2 through flipped attachments (the
    geometry an inverted repeat produces): the walk 0->1->2 is valid, but
    its end pair at (0, 2) is (B, B) while the direct overlap attaches
    (E, B).  A minimum blind to the end slots would take the 8-suffix path
    as a witness and drop the direct edge; slot (E, B) of N is empty, so
    the edge stays, as in Myers' reduction."""
    g = StringGraph(3, np.array([0, 1, 1, 2, 0, 2]),
                    np.array([1, 0, 2, 1, 2, 0]),
                    np.array([4, 6, 4, 5, 10, 9]),
                    np.array([0, 1, 0, 0, 1, 0]),
                    np.array([1, 0, 0, 0, 0, 1]))
    D, comm = _to_dist(g, P)
    res = transitive_reduction(D, comm, fuzz=0)
    out = StringGraph.from_coomat(res.S.to_global()).edge_set()
    assert out == myers_transitive_reduction(g, fuzz=0).edge_set()
    assert (0, 2) in out


def test_multi_hop_needs_multiple_rounds():
    """A 5-chain with a 0->4 long edge: removing it requires the
    intermediate transitive edges to be handled across rounds (the paper's
    'several rounds' observation)."""
    # Chain 0-1-2-3-4 plus skip edges (0,2),(0,3),(0,4) and reverses.
    edges = []
    for i in range(4):
        edges.append((i, i + 1, 10))
        edges.append((i + 1, i, 10))
    for j, s in [(2, 20), (3, 30), (4, 40)]:
        edges.append((0, j, s))
        edges.append((j, 0, 10))
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    suf = np.array([e[2] for e in edges])
    # Collinear forward reads: ends E->B in ascending direction.
    end_src = np.where(src < dst, 1, 0)
    end_dst = np.where(src < dst, 0, 1)
    g = StringGraph(5, src, dst, suf, end_src, end_dst)
    D, comm = _to_dist(g, 1)
    res = transitive_reduction(D, comm, fuzz=0)
    out = StringGraph.from_coomat(res.S.to_global())
    for j in (2, 3, 4):
        assert (0, j) not in out.edge_set()
    assert res.rounds >= 2


@pytest.mark.parametrize("P", [1, 4])
def test_matches_myers_on_clean_pipeline_graph(clean_overlap_graph, P):
    g = clean_overlap_graph
    D, comm = _to_dist(g, P)
    res = transitive_reduction(D, comm, fuzz=20)
    ours = StringGraph.from_coomat(res.S.to_global()).edge_set()
    myers = myers_transitive_reduction(g, fuzz=20).edge_set()
    assert ours == myers


def test_matches_myers_on_noisy_pipeline_graph(noisy_overlap_graph):
    g = noisy_overlap_graph
    D, comm = _to_dist(g, 4)
    res = transitive_reduction(D, comm, fuzz=150)
    ours = StringGraph.from_coomat(res.S.to_global()).edge_set()
    myers = myers_transitive_reduction(g, fuzz=150).edge_set()
    assert ours == myers


def test_single_round_matches_bruteforce(clean_overlap_graph):
    """One loop iteration removes exactly the brute-force two-hop set (over
    the non-contained reads: the loop runs after they leave)."""
    g = clean_overlap_graph
    D, comm = _to_dist(g, 1)
    res = transitive_reduction(D, comm, fuzz=20, max_rounds=1)
    out = StringGraph.from_coomat(res.S.to_global()).edge_set()
    kept = g.without_contained()
    expected = kept.edge_set() - transitive_edges_bruteforce(
        kept, fuzz=20, use_rowmax=True)
    assert out == expected


def test_p_invariance(clean_overlap_graph):
    """The reduction result is independent of the process grid size."""
    g = clean_overlap_graph
    results = []
    for P in (1, 4, 9):
        D, comm = _to_dist(g, P)
        res = transitive_reduction(D, comm, fuzz=20)
        results.append(StringGraph.from_coomat(res.S.to_global()).edge_set())
    assert results[0] == results[1] == results[2]


def test_empty_graph():
    g = StringGraph(4, np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, np.int64))
    D, comm = _to_dist(g, 1)
    res = transitive_reduction(D, comm)
    assert res.S.nnz() == 0 and res.removed == 0


def test_charges_communication():
    g = _chain_with_transitive()
    D, comm = _to_dist(g, 4)
    transitive_reduction(D, comm, fuzz=0)
    assert comm.tracker.records["TrReduction"].total_messages > 0
