"""Unit tests for the simulated MPI runtime (comm, grid, tracker, machine)."""

import numpy as np
import pytest

from repro.mpisim import (CORI_HASWELL, SUMMIT_CPU, CommTracker,
                          MachineModel, ProcessGrid2D, SimComm, StageTimer,
                          block_bounds, nbytes_of)


# -- nbytes_of --------------------------------------------------------------

def test_nbytes_of_arrays_and_containers():
    a = np.zeros(10, dtype=np.int64)
    assert nbytes_of(a) == 80
    assert nbytes_of([a, a]) == 160
    assert nbytes_of(None) == 0
    assert nbytes_of({"x": a}) == 80
    assert nbytes_of(b"abc") == 3


def test_nbytes_of_bytes_and_str_true_payload():
    # bytes/str are charged their encoded length, not the 8-byte catch-all.
    assert nbytes_of(b"x" * 1000) == 1000
    assert nbytes_of(bytearray(17)) == 17
    assert nbytes_of("hello") == 5
    assert nbytes_of("né") == 3           # UTF-8 multi-byte characters count
    assert nbytes_of("") == 0
    assert nbytes_of(memoryview(np.zeros(4, dtype=np.int32))) == 16
    assert nbytes_of(["ab", b"cd"]) == 4  # containers recurse into them
    assert nbytes_of(object()) == 8       # catch-all is unchanged


def test_nbytes_of_scipy():
    import scipy.sparse as sp
    m = sp.random(50, 50, density=0.1, format="csr")
    expected = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert nbytes_of(m) == expected


# -- SimComm ------------------------------------------------------------------

def test_alltoallv_moves_data_and_charges_offrank_only():
    tracker = CommTracker(3)
    comm = SimComm(3, tracker)
    send = [[np.full(2, 10 * p + q, dtype=np.int64) for q in range(3)]
            for p in range(3)]
    recv = comm.alltoallv(send, stage="x")
    # recv[q][p] is what p sent to q.
    for p in range(3):
        for q in range(3):
            assert np.array_equal(recv[q][p], send[p][q])
    rec = tracker.records["x"]
    # Each rank sends 2 off-rank payloads of 16 bytes each.
    assert np.allclose(rec.bytes_per_rank, 32.0)
    assert np.allclose(rec.messages_per_rank, 2.0)


def test_alltoallv_empty_payloads_no_messages():
    tracker = CommTracker(2)
    comm = SimComm(2, tracker)
    send = [[np.empty(0, dtype=np.int64) for _ in range(2)] for _ in range(2)]
    comm.alltoallv(send, stage="x")
    assert tracker.records["x"].total_messages == 0


def test_bcast_charges_root():
    tracker = CommTracker(4)
    comm = SimComm(4, tracker)
    out = comm.bcast(np.zeros(4, dtype=np.int64), root=1, stage="b")
    assert len(out) == 4
    rec = tracker.records["b"]
    assert rec.bytes_per_rank[1] == 32 * 3
    assert rec.bytes_per_rank[0] == 0
    assert rec.messages_per_rank[1] == 3


def test_allreduce_reduces_and_charges():
    tracker = CommTracker(4)
    comm = SimComm(4, tracker)
    total = comm.allreduce([1, 2, 3, 4], lambda a, b: a + b, stage="r",
                           item_bytes=8)
    assert total == 10
    assert tracker.records["r"].messages_per_rank.sum() == 4


def test_single_rank_collectives_charge_nothing():
    tracker = CommTracker(1)
    comm = SimComm(1, tracker)
    comm.bcast(np.zeros(10), root=0, stage="s")
    comm.allreduce([5], lambda a, b: a + b, stage="s")
    assert "s" not in tracker.records or \
        tracker.records["s"].total_bytes == 0


def test_sub_communicator_accounting_lands_on_global_ranks():
    tracker = CommTracker(4)
    comm = SimComm(4, tracker)
    sub = comm.sub([2, 3])
    sub.bcast(np.zeros(2, dtype=np.int64), root=0, stage="s")
    rec = tracker.records["s"]
    assert rec.bytes_per_rank[2] == 16  # sub-root = global rank 2
    assert rec.bytes_per_rank[0] == 0


def test_gather_and_allgather():
    tracker = CommTracker(3)
    comm = SimComm(3, tracker)
    vals = [np.full(1, p, dtype=np.int64) for p in range(3)]
    g = comm.gather(vals, root=0, stage="g")
    assert [int(v[0]) for v in g] == [0, 1, 2]
    ag = comm.allgather(vals, stage="ag")
    assert len(ag) == 3 and len(ag[0]) == 3


# -- grid -------------------------------------------------------------------

def test_grid_requires_square():
    with pytest.raises(ValueError):
        ProcessGrid2D(6)


def test_grid_rank_coords_roundtrip():
    g = ProcessGrid2D(9)
    for r in range(9):
        i, j = g.coords_of(r)
        assert g.rank_of(i, j) == r


def test_grid_row_col_ranks():
    g = ProcessGrid2D(4)
    assert g.row_ranks(0) == [0, 1]
    assert g.col_ranks(1) == [1, 3]


def test_block_bounds_balanced():
    b = block_bounds(10, 3)
    assert list(b) == [0, 4, 7, 10]
    assert list(block_bounds(4, 4)) == [0, 1, 2, 3, 4]


def test_owner_of():
    g = ProcessGrid2D(4)
    assert g.owner_of(0, 0, 10, 10) == 0
    assert g.owner_of(9, 9, 10, 10) == 3


@pytest.mark.parametrize("P", [1, 4, 9])
def test_owners_of_is_owner_of_per_entry(P):
    """Uneven dimensions (7 x 11 over up to 3 x 3 blocks), every cell, and
    read-only inputs: the array form agrees with the scalar one."""
    g = ProcessGrid2D(P)
    row, col = np.divmod(np.arange(7 * 11), 11)
    row.setflags(write=False)
    col.setflags(write=False)
    got = g.owners_of(row, col, 7, 11)
    assert got.dtype == np.int64
    assert got.tolist() == [g.owner_of(i, j, 7, 11) for i, j in zip(row, col)]
    assert g.owners_of(row[:0], col[:0], 7, 11).shape == (0,)


# -- tracker / timer -----------------------------------------------------------

def test_tracker_words_and_messages():
    t = CommTracker(2)
    t.record("s", 0, 80, 3)
    t.record("s", 1, 160, 1)
    assert t.words("s") == 20.0  # max bytes per rank / 8
    assert t.messages("s") == 3.0
    assert t.stage_comm_time("s", CORI_HASWELL) == pytest.approx(
        CORI_HASWELL.alpha * 3 + 160 / CORI_HASWELL.beta)


def test_stage_timer_max_over_ranks():
    import time
    timer = StageTimer()
    with timer.superstep("s") as step:
        with step.rank(0):
            time.sleep(0.01)
        with step.rank(1):
            pass
    assert 0.005 < timer.stage_seconds["s"] < 0.5
    assert timer.stage_supersteps["s"] == 1


def test_stage_timer_charge():
    timer = StageTimer()
    with timer.superstep("s") as step:
        step.charge(0, 1.0)
        step.charge(1, 2.0)
    assert timer.stage_seconds["s"] == 2.0


def test_machine_models():
    assert CORI_HASWELL.comm_time(1e9, 0) == pytest.approx(0.1)
    assert SUMMIT_CPU.cores_per_node == 42
    assert CORI_HASWELL.nodes_for(64, ranks_per_node=32) == 2.0
    assert CORI_HASWELL.nodes_for(1) == 1.0


# -- peak-byte accounting and merge (the blocked mode's accounting seam) ----

def test_stage_timer_peak_bytes_max_wins():
    t = StageTimer()
    assert t.peak_bytes() == {}
    t.record_peak_bytes("SpGEMM", 100)
    t.record_peak_bytes("SpGEMM", 40)       # smaller: ignored
    t.record_peak_bytes("SpGEMM", 250)
    t.record_peak_bytes("Alignment", 7)
    assert t.peak_bytes() == {"SpGEMM": 250, "Alignment": 7}


def test_stage_timer_merge():
    a, b = StageTimer(), StageTimer()
    a.add("SpGEMM", 1.0)
    a.record_peak_bytes("SpGEMM", 100)
    a.stage_supersteps["SpGEMM"] += 2
    b.add("SpGEMM", 0.5)
    b.add("Alignment", 2.0)
    b.record_peak_bytes("SpGEMM", 300)
    b.stage_supersteps["SpGEMM"] += 1
    a.merge(b)
    assert a.stage_seconds["SpGEMM"] == pytest.approx(1.5)
    assert a.stage_seconds["Alignment"] == pytest.approx(2.0)
    assert a.stage_supersteps["SpGEMM"] == 3
    assert a.peak_bytes()["SpGEMM"] == 300  # max, not sum


def test_comm_tracker_merge_sums_per_rank():
    a, b = CommTracker(4), CommTracker(4)
    a.record("S", 0, 100, 2)
    b.record("S", 0, 50, 1)
    b.record("S", 3, 10, 1)
    b.record("T", 1, 7, 1)
    a.merge(b)
    assert a.records["S"].bytes_per_rank[0] == 150
    assert a.records["S"].messages_per_rank[0] == 3
    assert a.records["S"].bytes_per_rank[3] == 10
    assert a.records["T"].bytes_per_rank[1] == 7


def test_comm_tracker_merge_rejects_size_mismatch():
    with pytest.raises(ValueError):
        CommTracker(4).merge(CommTracker(9))
