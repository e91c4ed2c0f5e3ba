"""Ablation — design choices of the transitive-reduction semiring.

Two ablations the paper's design motivates (DESIGN.md §5):

1. **Orientation slots.**  ``N = R²`` must keep the minimum path suffix per
   (end_i, end_j) combination.  A single-slot min (ignoring path-end
   orientations in the comparison) either over-removes (marks edges whose
   matching-orientation path is actually longer) or, with the validity check
   also dropped, removes genome-inconsistent edges.  We count the divergence
   against Myers' reduction.
2. **Fuzz x.**  Sweeping the endpoint tolerance on noisy data shows the
   robustness trade-off: tiny fuzz leaves error-shifted transitive edges in
   the graph; huge fuzz starts removing real alternatives.
"""

import numpy as np

from repro.baselines.myers import myers_transitive_reduction
from repro.core.string_graph import StringGraph
from repro.core.semirings import R_END_I, R_END_J, R_SUFFIX, n_slot
from repro.core.transitive_reduction import transitive_reduction
from repro.dsparse.coomat import CooMat
from repro.dsparse.distmat import DistMat
from repro.dsparse.elementwise import prune_mask, reduce_rows
from repro.dsparse.semiring import INF, Semiring
from repro.dsparse.spgemm import spgemm_esc
from repro.eval.report import format_table
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads


class _SingleSlotMinPlus(Semiring):
    """Ablated MinPlus: one min per coordinate, no per-orientation slots.

    Keeps the middle-node validity check but collapses the four end
    combinations into a single minimum — the straightforward-but-wrong
    formulation the 4-slot design guards against.
    """

    out_nfields = 1

    def multiply(self, avals, bvals):
        valid = avals[:, R_END_J] != bvals[:, R_END_I]
        out = (avals[:, R_SUFFIX] + bvals[:, R_SUFFIX])[:, None]
        return out, valid

    def reduce(self, vals, starts, counts):
        return np.minimum.reduceat(vals[:, 0], starts)[:, None]


def _ablated_reduction(graph: StringGraph, fuzz: int) -> StringGraph:
    """Algorithm 2 with the single-slot semiring (no end-orientation match
    in the comparison step), over the non-contained reads' dovetails."""
    mat = graph.to_coomat()
    R = mat.select(mat.vals[:, R_SUFFIX] >= 0)
    while True:
        prev = R.nnz
        if prev == 0:
            break
        N = spgemm_esc(R, R, _SingleSlotMinPlus())
        # Row max + fuzz.
        v = np.zeros(R.shape[0], dtype=np.int64)
        for t in range(R.nnz):
            r = int(R.row[t])
            v[r] = max(v[r], int(R.vals[t, R_SUFFIX]))
        v += fuzz
        rk, nk = R.keys(), N.keys()
        common = np.intersect1d(rk, nk, assume_unique=True)
        ir = np.searchsorted(rk, common)
        im = np.searchsorted(nk, common)
        transitive = N.vals[im, 0] <= v[R.row[ir]]
        drop = set(zip(R.row[ir[transitive]].tolist(),
                       R.col[ir[transitive]].tolist()))
        keep = np.array([(int(r), int(c)) not in drop
                         for r, c in zip(R.row, R.col)], dtype=bool)
        R = R.select(keep)
        if R.nnz == prev:
            break
    return StringGraph.from_coomat(R)


def _noisy_graph():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=12_000, seed=21), depth=12,
                    mean_len=700, min_len=400, sigma_len=0.25,
                    error=ErrorModel(rate=0.05), seed=23))
    from repro.core.overlap import (align_candidates, build_a_matrix,
                                    candidate_overlaps)
    from repro.mpisim import StageTimer
    from repro.seqs.kmer_counter import count_kmers
    comm = SimComm(1, CommTracker(1))
    timer = StageTimer()
    table = count_kmers(reads, 17, comm, timer, upper=40)
    A = build_a_matrix(reads, table, ProcessGrid2D(1), comm, timer)
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates(C, reads, 17, comm, timer, mode="chain", fuzz=100)
    return StringGraph.from_coomat(R.to_global())


def _reduce(graph: StringGraph, fuzz: int) -> StringGraph:
    mat = graph.to_coomat()
    D = DistMat.from_coo(mat.shape, ProcessGrid2D(1), mat.row, mat.col,
                         mat.vals)
    res = transitive_reduction(D, SimComm(1, CommTracker(1)), fuzz=fuzz)
    return StringGraph.from_coomat(res.S.to_global())


def _inverted_repeat_graph() -> StringGraph:
    """A graph where orientation slots decide correctness.

    Read 1 bridges reads 0 and 2 through *flipped* attachments (the geometry
    an inverted repeat produces): the walk 0→1→2 is valid but its end pair
    at (0, 2) is (B, B), while the direct overlap 0–2 attaches (E, B).  A
    slot-blind minimum treats the 8-suffix path as a witness and wrongly
    removes the direct edge; the 4-slot semiring sees slot (E, B) = ∞ and
    keeps it.
    """
    src = np.array([0, 1, 1, 2, 0, 2])
    dst = np.array([1, 0, 2, 1, 2, 0])
    suffix = np.array([4, 6, 4, 5, 10, 9])
    end_src = np.array([0, 1, 0, 0, 1, 0])   # (0,1) attaches B at 0
    end_dst = np.array([1, 0, 0, 0, 0, 1])   # (1,2) attaches B at 2
    return StringGraph(3, src, dst, suffix, end_src, end_dst)


def test_ablation_orientation_slots(benchmark):
    noisy = _noisy_graph()
    synth = _inverted_repeat_graph()
    myers_noisy = myers_transitive_reduction(noisy, fuzz=150).edge_set()
    myers_synth = myers_transitive_reduction(synth, fuzz=0).edge_set()

    def run():
        return (
            _reduce(noisy, fuzz=150).edge_set(),
            _ablated_reduction(noisy, fuzz=150).edge_set(),
            _reduce(synth, fuzz=0).edge_set(),
            _ablated_reduction(synth, fuzz=0).edge_set(),
        )

    full_n, abl_n, full_s, abl_s = benchmark.pedantic(run, rounds=1,
                                                      iterations=1)
    rows = [
        {"graph": "noisy pipeline", "variant": "4-slot (paper)",
         "edges": len(full_n), "divergence_vs_myers": len(full_n ^ myers_noisy)},
        {"graph": "noisy pipeline", "variant": "single-slot (ablated)",
         "edges": len(abl_n), "divergence_vs_myers": len(abl_n ^ myers_noisy)},
        {"graph": "inverted repeat", "variant": "4-slot (paper)",
         "edges": len(full_s), "divergence_vs_myers": len(full_s ^ myers_synth)},
        {"graph": "inverted repeat", "variant": "single-slot (ablated)",
         "edges": len(abl_s), "divergence_vs_myers": len(abl_s ^ myers_synth)},
    ]
    print()
    print(format_table(rows, title="Ablation: N-value orientation slots"))
    # The paper's semiring always matches Myers.
    assert full_n == myers_noisy
    assert full_s == myers_synth
    # The slot-blind ablation wrongly removes the inverted-repeat edge.
    assert abl_s != myers_synth
    assert (0, 2) in full_s and (0, 2) not in abl_s


def test_ablation_fuzz_sweep(benchmark):
    graph = _noisy_graph()

    def run():
        return [(x, _reduce(graph, fuzz=x).n_edges)
                for x in (0, 50, 150, 500, 2000)]

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [{"fuzz_x": x, "string_graph_edges": e} for x, e in series]
    print()
    print(format_table(rows, title="Ablation: fuzz scalar x (Alg. 2 line 6)"))
    edges = [e for _, e in series]
    # More fuzz removes (weakly) more edges, and the extremes differ.
    assert all(b <= a for a, b in zip(edges, edges[1:]))
    assert edges[-1] < edges[0]
