"""Integration tests for overlap detection (A, C = A·Aᵀ, alignment, R)."""

import numpy as np
import pytest

import repro.dsparse.distmat as distmat_mod
import repro.mpisim.grid as grid_mod
from repro.core.overlap import (AlignmentFilter, align_candidates,
                                build_a_matrix, candidate_overlaps,
                                charge_a_routing, exchange_reads)
from repro.core.semirings import C_COUNT, R_CONTAINED, R_CONTAINS, R_SUFFIX
from repro.core.string_graph import StringGraph
from repro.dsparse.distmat import DistMat
from repro.eval.metrics import overlap_recall_precision
from repro.mpisim import (CommTracker, ProcessGrid2D, SimComm, StageTimer,
                          block_bounds)
from repro.seqs.kmer_counter import count_kmers

from oracles.kmer_loop import build_a_matrix_loop


def _stack(reads, k=17, P=1, upper=40):
    comm = SimComm(P, CommTracker(P))
    timer = StageTimer()
    grid = ProcessGrid2D(P)
    table = count_kmers(reads, k, comm, timer, upper=upper)
    A = build_a_matrix(reads, table, grid, comm, timer)
    return table, A, grid, comm, timer


def test_a_matrix_entries_are_kmer_positions(clean_dataset):
    from oracles.kmers import pack_kmers
    from repro.seqs.kmers import canonical_kmers
    _genome, reads, _layout = clean_dataset
    table, A, grid, comm, timer = _stack(reads)
    G = A.to_global()
    # Spot-check 50 entries: the k-mer at the stored position must hash to
    # the stored column.
    rng = np.random.default_rng(0)
    for t in rng.integers(0, G.nnz, size=50):
        read_id, col, pos = int(G.row[t]), int(G.col[t]), int(G.vals[t, 0])
        fwd = pack_kmers(reads[read_id][pos:pos + 17], 17)
        can = canonical_kmers(fwd, 17)
        assert int(table.kmers[col]) == int(can[0])


def test_a_matrix_dims(clean_dataset):
    _genome, reads, _layout = clean_dataset
    table, A, grid, comm, timer = _stack(reads)
    assert A.shape == (len(reads), len(table))


class _RecordingTracker:
    """Keeps the ``record`` calls themselves, in order."""

    def __init__(self):
        self.calls = []

    def record(self, stage, rank, n_bytes, n_messages):
        self.calls.append((stage, rank, n_bytes, n_messages))


def _routing_by_rank_masks(row, col, n, m, grid, P):
    """``charge_a_routing`` as it was: a mask and a ``unique`` per rank."""
    bi = np.searchsorted(grid.row_bounds(n), row, side="right") - 1
    bj = np.searchsorted(grid.col_bounds(m), col, side="right") - 1
    dest = bi * grid.q + bj
    src = np.searchsorted(block_bounds(n, P), row, side="right") - 1
    calls = []
    for p in range(P):
        off = dest[src == p] != p
        if off.sum():
            calls.append(("CreateSpMat", p, int(off.sum()) * 32,
                          int(np.unique(dest[src == p][off]).shape[0])))
    return calls


@pytest.mark.parametrize("impl", ["batch", "loop"])
@pytest.mark.parametrize("P", [1, 4, 16])
def test_build_a_matrix_routes_at_the_source(clean_dataset, monkeypatch, P,
                                             impl):
    """A's blocks leave the scan already routed: no global owner pass, and
    the blocks and ``CreateSpMat`` records are exactly what distributing
    the global entries and charging their routing would give.  Leading
    reads too short to hold a k-mer leave the first 1D ranks with nothing
    to send and the first block row empty."""
    from repro.seqs.fasta import ReadSet
    _genome, reads, _layout = clean_dataset
    rng = np.random.default_rng(P)
    n_short = len(reads) + 10
    short = ReadSet([f"s{i}" for i in range(n_short)],
                    [rng.integers(0, 4, 12).astype(np.uint8)
                     for _ in range(n_short)])
    reads = short.concat(reads)
    n, grid = len(reads), ProcessGrid2D(P)
    table = count_kmers(reads, 17, SimComm(P, CommTracker(P)), StageTimer(),
                        upper=40)

    def refuse(*args, **kwargs):
        raise AssertionError("A routed by a global owner pass")

    monkeypatch.setattr(ProcessGrid2D, "owners_of", refuse)
    monkeypatch.setattr(grid_mod, "partition_by_owner", refuse)
    monkeypatch.setattr(distmat_mod, "partition_by_owner", refuse)
    tracker = _RecordingTracker()
    build = build_a_matrix if impl == "batch" else build_a_matrix_loop
    A = build(reads, table, grid, SimComm(P, tracker), StageTimer())
    monkeypatch.undo()
    g = A.to_global()
    assert A.shape == (n, len(table)) and A.nfields == 2 and g.nnz
    want = DistMat.from_coo(A.shape, grid, g.row, g.col, g.vals)
    oracle = _RecordingTracker()
    counts = charge_a_routing(g.row, g.col, n, len(table), grid,
                              SimComm(P, oracle))
    assert tracker.calls == oracle.calls
    for i in range(grid.q):
        for j in range(grid.q):
            got, ref = A.blocks[i][j], want.blocks[i][j]
            assert got.shape == ref.shape and got.nnz == counts[i, j]
            assert np.array_equal(got.row, ref.row)
            assert np.array_equal(got.col, ref.col)
            assert np.array_equal(got.vals, ref.vals)
    if P > 1:
        assert all(b.nnz == 0 for b in A.blocks[0])
        assert 0 not in [call[1] for call in tracker.calls]


@pytest.mark.parametrize("P", [1, 4, 16])
def test_charge_a_routing_matches_per_rank_masks(P):
    """Same ``record`` calls in the same rank order; ranks that own no
    read, or whose entries all stay home, are skipped — not charged 0."""
    rng = np.random.default_rng(P)
    n, m = 41, 300
    grid = ProcessGrid2D(P)
    row = np.sort(rng.integers(0, n, 500))
    row = row[row != 7]                     # a read with no entries
    col = rng.integers(0, m, row.shape[0])
    # Rank 0's reads sit in block row 0; keep their columns in block (0, 0).
    home = row < block_bounds(n, P)[1]
    col[home] = rng.integers(0, grid.col_bounds(m)[1], int(home.sum()))
    tracker = _RecordingTracker()
    charge_a_routing(row, col, n, m, grid, SimComm(P, tracker))
    assert tracker.calls == _routing_by_rank_masks(row, col, n, m, grid, P)
    assert all(type(x) is int for call in tracker.calls for x in call[1:])
    assert [call[1] for call in tracker.calls] == list(range(1, P))
    nothing = _RecordingTracker()
    charge_a_routing(row[:0], col[:0], n, m, grid, SimComm(P, nothing))
    assert nothing.calls == []


@pytest.mark.parametrize("P", [1, 4])
def test_candidate_overlaps_upper_triangle(clean_dataset, P):
    _genome, reads, _layout = clean_dataset
    table, A, grid, comm, timer = _stack(reads, P=P)
    C = candidate_overlaps(A, comm, timer)
    G = C.to_global()
    assert (G.row < G.col).all()
    assert (G.vals[:, C_COUNT] >= 1).all()


def test_candidate_overlaps_p_invariant(clean_dataset):
    _genome, reads, _layout = clean_dataset
    pats = []
    for P in (1, 4):
        table, A, grid, comm, timer = _stack(reads, P=P)
        C = candidate_overlaps(A, comm, timer)
        G = C.to_global()
        pats.append(set(zip(G.row.tolist(), G.col.tolist())))
    assert pats[0] == pats[1]


def test_overlap_recall_on_clean_reads(clean_dataset):
    """Candidate detection must find nearly all true overlaps ≥ 500 bp on
    error-free reads (every shared 17-mer is exact)."""
    _genome, reads, layout = clean_dataset
    table, A, grid, comm, timer = _stack(reads)
    C = candidate_overlaps(A, comm, timer)
    G = C.to_global()
    found = set(zip(G.row.tolist(), G.col.tolist()))
    recall, _prec = overlap_recall_precision(found, layout, min_overlap=500)
    assert recall > 0.98


def test_r_matrix_symmetric_pattern(clean_dataset):
    _genome, reads, _layout = clean_dataset
    table, A, grid, comm, timer = _stack(reads)
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates(C, reads, 17, comm, timer, mode="chain", fuzz=20)
    G = R.to_global()
    entries = set(zip(G.row.tolist(), G.col.tolist()))
    assert all((j, i) in entries for i, j in entries)
    assert all(i != j for i, j in entries)


def test_r_suffixes_positive(clean_dataset):
    _genome, reads, _layout = clean_dataset
    table, A, grid, comm, timer = _stack(reads)
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates(C, reads, 17, comm, timer, mode="chain", fuzz=20)
    G = R.to_global()
    suffix = G.vals[:, R_SUFFIX]
    # Dovetails carry an overhang; containment entries carry a marker.
    assert ((suffix >= 1) | np.isin(suffix, [R_CONTAINED, R_CONTAINS])).all()
    assert (suffix == R_CONTAINED).sum() == (suffix == R_CONTAINS).sum() > 0


def test_r_graph_recall_vs_truth(clean_dataset):
    _genome, reads, layout = clean_dataset
    table, A, grid, comm, timer = _stack(reads)
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates(C, reads, 17, comm, timer, mode="chain", fuzz=20)
    g = StringGraph.from_coomat(R.to_global())
    # The graph's edges are R's dovetails only (containments, near ones
    # within the fuzz margin included, go to ``container``), so measure
    # recall over true *proper* pairs: overlap >= 500 and each read
    # extends beyond the other by more than the fuzz.
    fuzz = 20
    truth = layout.overlap_pairs(500)

    def containedish(i, j):
        return (layout.start[i] >= layout.start[j] - fuzz
                and layout.end[i] <= layout.end[j] + fuzz)

    proper = {(i, j) for i, j in truth
              if not containedish(i, j) and not containedish(j, i)}
    found = {(min(int(s), int(d)), max(int(s), int(d)))
             for s, d in zip(g.src, g.dst)}
    recall = len(found & proper) / len(proper)
    assert recall > 0.9


def test_xdrop_mode_on_small_subset(noisy_dataset):
    """x-drop alignment agrees with chain mode on which pairs are real
    (sampled subset to keep DP time bounded)."""
    _genome, reads, _layout = noisy_dataset
    sub = reads.subset(np.arange(40))
    table, A, grid, comm, timer = _stack(sub, upper=40)
    C = candidate_overlaps(A, comm, timer)
    R_chain = align_candidates(C, sub, 17, comm, timer, mode="chain",
                               fuzz=100)
    R_xdrop = align_candidates(C, sub, 17, comm, timer, mode="xdrop",
                               fuzz=100)
    pc = set(zip(*(a.tolist() for a in
                   (R_chain.to_global().row, R_chain.to_global().col))))
    px = set(zip(*(a.tolist() for a in
                   (R_xdrop.to_global().row, R_xdrop.to_global().col))))
    # x-drop is stricter (real alignment scores); it should be a subset of
    # the optimistic chain estimate, modulo boundary effects.
    if px:
        assert len(px & pc) / len(px) > 0.9


def test_alignment_filter():
    f = AlignmentFilter(min_score=50, min_overlap=200, ratio=0.4)
    assert not f.passes(100, 150)      # too short
    assert not f.passes(40, 300)       # below min score
    assert not f.passes(100, 300)      # below ratio (0.4*300=120)
    assert f.passes(130, 300)


def test_exchange_reads_volume(clean_dataset):
    """2D read exchange: each rank needs its block-row plus block-column
    range (2nl/√P bytes); rank-local reads are not charged.

    For P=4 (q=2) the gross demand is P · 2nl/√P = 4nl; ranks on the grid
    diagonal own a 1D block inside *both* their ranges (2·nl/4 skipped
    each) and off-diagonal ranks skip one (nl/4), so the charged total is
    4nl − 1.5nl = 2.5nl.
    """
    _genome, reads, _layout = clean_dataset
    P = 4
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    grid = ProcessGrid2D(P)
    exchange_reads(reads, grid, comm)
    rec = tracker.records["ExchangeRead"]
    nl = reads.total_bases()
    assert rec.total_bytes == pytest.approx(2.5 * nl, rel=0.05)
    # Per-rank received volume bound: 2nl/√P.
    assert rec.max_bytes <= 2 * nl / np.sqrt(P) * 1.1


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_matrix_from_a_store_backed_stream(clean_dataset, tmp_path,
                                             executor):
    """CountKmer's kept seed stream is bound to the ReadSet object it was
    cut from, store-backed ones included: A built from a memmap'd store's
    stream — scanned in the parent or shipped to process workers — equals
    the in-memory scan's, records and lookup counters too."""
    from repro.exec import get_executor
    _genome, reads, _layout = clean_dataset
    reads = reads.subset(np.arange(48))
    stored = reads.to_store(str(tmp_path / "store"))

    def build(rs, ex):
        P = 4
        tracker, timer = CommTracker(P), StageTimer()
        comm = SimComm(P, tracker)
        table = count_kmers(rs, 17, comm, timer, upper=40, executor=ex)
        assert table._stream is not None
        A = build_a_matrix(rs, table, ProcessGrid2D(P), comm, timer,
                           executor=ex)
        assert table._stream is None
        return A.to_global(), tracker.summary(), timer.work_counts()

    with get_executor(executor, 2) as ex:
        got = build(stored, ex)
    want = build(reads, None)
    for name in ("row", "col", "vals"):
        assert np.array_equal(getattr(got[0], name), getattr(want[0], name))
    assert got[1:] == want[1:]
