"""Contained reads leave before the transitive reduction: floors and layout.

Myers' string-graph construction removes contained reads before reducing;
:func:`~repro.core.transitive_reduction.transitive_reduction` does the same
on entry, from the containment pairs the aligner keeps in R.  This module
pins what that buys and what must hold for it to be right:

* assembly floors against simulator ground truth — a small HiFi set
  assembles into one contig with no misjoin and exactly the dovetails a
  path needs, a small CLR set reaches an N50 of twice the read length;
* every read is placed exactly once (walk or ``contained``), in the
  library, in ``repro assemble``'s TSV and in ``GET /contigs``;
* S is the same bytes under every strip count and executor, and the
  service equals the from-scratch oracle at every version — including a
  batch whose one long read newly contains a resident read;
* the containment roots (longest overlap, then lowest index, followed to
  a non-contained read; cycles released at their lowest index) and the
  baselines' drop-then-reduce order.
"""

import hashlib
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.baselines import myers_transitive_reduction, \
    sora_transitive_reduction
from repro.cli import main
from repro.core.contigs import extract_contigs
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.semirings import (R_CONTAINED, R_CONTAINS, R_NO_END, R_OLEN,
                                  R_SUFFIX)
from repro.core.string_graph import StringGraph, containment_roots
from repro.core.transitive_reduction import transitive_reduction
from repro.dsparse.coomat import CooMat
from repro.dsparse.distmat import DistMat
from repro.eval.assembly_metrics import (contig_spans, genome_coverage,
                                         misjoin_count, n50)
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.dna import decode
from repro.seqs.fasta import ReadSet, write_fasta
from repro.service import (AssemblyService, AssemblyState, ServiceConfig,
                           make_server, refresh)

HIFI_GENOME = 10_000


def _hifi_config(**overrides) -> PipelineConfig:
    return PipelineConfig(**{"nprocs": 4, "align_mode": "chain",
                             "depth_hint": 20, "error_hint": 0.01,
                             **overrides})


@pytest.fixture(scope="module")
def hifi():
    """~10 kb genome, depth 20, 1 % error: ``(genome, reads, layout)``."""
    return simulate_reads(
        ReadSimSpec(GenomeSpec(length=HIFI_GENOME, seed=3), depth=20,
                    mean_len=1500, error=ErrorModel(rate=0.01), seed=103))


@pytest.fixture(scope="module")
def hifi_run(hifi):
    """The reference run: monolithic, serial."""
    return run_pipeline(hifi[1], _hifi_config(
        overlap_mode="monolithic", executor="serial", workers=1))


def _placements(contigs) -> list[int]:
    return sorted(r for c in contigs for r in [*c.reads, *c.contained])


# -- floors ---------------------------------------------------------------------

def test_hifi_assembles_into_one_contig(hifi, hifi_run):
    _genome, reads, layout = hifi
    graph = hifi_run.string_graph
    contigs = extract_contigs(graph)
    assert len(contigs) == 1
    assert genome_coverage(contigs, layout, HIFI_GENOME) >= 0.95
    assert misjoin_count(contigs, layout) == 0
    kept = int((graph.container < 0).sum())
    assert 1 < kept < len(reads)
    # A path over the kept reads, both directed entries per overlap.
    assert graph.n_edges == 2 * (kept - 1)


def test_clr_n50_is_at_least_twice_the_read_length():
    _genome, reads, layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=5_000, seed=2), depth=10,
                    mean_len=800, error=ErrorModel(rate=0.12), seed=102))
    result = run_pipeline(reads, PipelineConfig(
        nprocs=4, align_mode="xdrop", depth_hint=10, error_hint=0.12))
    contigs = extract_contigs(result.string_graph)
    spans = contig_spans(contigs, layout)
    assert n50([hi - lo for lo, hi in spans]) >= 2 * reads.lengths.mean()


# -- every read placed once -------------------------------------------------------

def test_every_read_placed_once(hifi, hifi_run):
    graph = hifi_run.string_graph
    contigs = extract_contigs(graph)
    assert _placements(contigs) == list(range(len(hifi[1])))
    for c in contigs:
        for r in c.contained:
            assert graph.container[r] in c.reads   # rides with its root
    assert sum(len(c.contained) for c in contigs) == \
        int((graph.container >= 0).sum()) > 0


def test_assemble_tsv_places_every_read_once(hifi, tmp_path):
    reads = hifi[1]
    fasta, layout = tmp_path / "reads.fa", tmp_path / "layout.tsv"
    write_fasta(fasta, reads)
    assert main(["assemble", str(fasta), "--nprocs", "4", "--align-mode",
                 "chain", "--depth-hint", "20", "--error-hint", "0.01",
                 "--layout", str(layout)]) == 0
    rows = [line.split("\t") for line in layout.read_text().splitlines()]
    assert rows[0] == ["contig", "position", "read", "orientation"]
    assert sorted(int(r[2]) for r in rows[1:]) == list(range(len(reads)))
    contained = [r for r in rows[1:] if r[1] == "-"]
    assert contained and all(r[3] == "." for r in contained)


def _payload(reads: ReadSet) -> bytes:
    return json.dumps({"reads": [{"name": n, "seq": decode(s)}
                                 for n, s in zip(reads.names, reads.seqs)]
                       }).encode()


def test_get_contigs_places_every_read_once(hifi):
    reads = hifi[1]
    service = AssemblyService(ServiceConfig(refresh_mode="incremental",
                                            pipeline=_hifi_config()))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        half = len(reads) // 2
        for lo, hi in ((0, half), (half, len(reads))):
            req = urllib.request.Request(
                f"http://{host}:{port}/reads",
                data=_payload(reads.subset(np.arange(lo, hi))),
                headers={"Content-Type": "application/json"}, method="POST")
            with urllib.request.urlopen(req) as resp:
                assert resp.status == 200
        with urllib.request.urlopen(f"http://{host}:{port}/contigs") as resp:
            body = json.loads(resp.read())
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert body["version"] == 2
    placed = sorted(r for c in body["contigs"]
                    for r in c["reads"] + c["contained"])
    assert placed == list(range(len(reads)))


# -- the same S everywhere ----------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    {"overlap_mode": "blocked", "n_strips": 1},
    {"overlap_mode": "blocked", "n_strips": 2},
    {"overlap_mode": "blocked", "n_strips": 4},
    {"overlap_mode": "monolithic", "executor": "process", "workers": 2},
], ids=["strips1", "strips2", "strips4", "process"])
def test_s_is_identical_across_strips_and_executors(hifi, hifi_run,
                                                    overrides):
    result = run_pipeline(hifi[1], _hifi_config(**overrides))
    for mine, ref in ((result.S, hifi_run.S), (result.R, hifi_run.R)):
        assert np.array_equal(mine.row, ref.row)
        assert np.array_equal(mine.col, ref.col)
        assert np.array_equal(mine.vals, ref.vals)


# -- the service under churn --------------------------------------------------------

def _digest(state: AssemblyState) -> dict:
    h = hashlib.sha256()
    for mat in (state.S, state.R):
        for a in (mat.row, mat.col, mat.vals):
            h.update(np.ascontiguousarray(a).tobytes())
    return {"matrices": h.hexdigest(), "counts": state.counts,
            "contigs": [(c.reads, c.orientations, c.contained)
                        for c in state.contigs],
            "comm": sorted(state.tracker.summary().items())}


def test_service_matches_recompute_when_a_long_read_contains_a_resident(
        hifi):
    genome, reads, layout = hifi
    config = ServiceConfig(refresh_mode="incremental",
                           pipeline=_hifi_config())
    batches = [reads.subset(np.arange(0, 80)),
               reads.subset(np.arange(80, len(reads)))]
    inc = rec = AssemblyState.initial()
    for batch in batches:
        inc = refresh(inc, batch, config)
        rec = refresh(rec, batch, config, mode="recompute")
        assert _digest(inc) == _digest(rec)
    # A resident read nothing contains yet, well inside the genome; one
    # long read covering it with 300 bp to spare on each side.
    container = inc.graph.container
    victim = next(r for r in np.argsort(layout.start).tolist()
                  if container[r] < 0 and layout.start[r] >= 300
                  and layout.end[r] + 300 <= HIFI_GENOME)
    lo, hi = int(layout.start[victim]) - 300, int(layout.end[victim]) + 300
    long_read = ReadSet(["long"], [genome[lo:hi].copy()])
    inc = refresh(inc, long_read, config)
    rec = refresh(rec, long_read, config, mode="recompute")
    assert inc.refresh_mode == "incremental"
    assert _digest(inc) == _digest(rec)
    assert inc.graph.container[victim] >= 0    # newly contained
    assert _placements(inc.contigs) == list(range(len(reads) + 1))


# -- containment roots and the drop-then-reduce order -------------------------------

def test_containment_roots_follow_chains_and_release_cycles():
    # 0 ⊂ 1 ⊂ 2 (a chain), 3 stands alone, 4 → 5 → 6 → 4 is a cycle and 7
    # hangs off it: the cycle's lowest read (4) is released and roots it.
    parent = np.array([1, 2, -1, -1, 5, 6, 4, 6])
    assert containment_roots(parent).tolist() == [2, 2, -1, -1, -1, 4, 4, 4]
    assert containment_roots(np.array([], np.int64)).tolist() == []


def _r_matrix(n, dovetails, containments):
    """An R-layout matrix: ``dovetails`` as ``(i, j, suffix_ij, suffix_ji,
    end_i, end_j)``, ``containments`` as ``(inner, outer, overlap_len)``."""
    rows, cols, vals = [], [], []
    for i, j, sij, sji, ei, ej in dovetails:
        rows += [i, j]
        cols += [j, i]
        vals += [[sij, ei, ej, 100], [sji, ej, ei, 100]]
    for inner, outer, olen in containments:
        rows += [inner, outer]
        cols += [outer, inner]
        vals += [[R_CONTAINED, R_NO_END, R_NO_END, olen],
                 [R_CONTAINS, R_NO_END, R_NO_END, olen]]
    return CooMat((n, n), np.array(rows), np.array(cols), np.array(vals))


@pytest.mark.parametrize("P", [1, 4])
def test_tr_points_each_contained_read_at_its_root(P):
    # 0 - 1 - 2 a dovetail path; read 3 lies in 1 and in 4 (overlap 400
    # both: the lower index wins, 3 → 1), 4 lies in 2, and 5 lies in 3
    # only: its root is 3's, 1.  Read 4's dovetail to 0 leaves with it.
    R = _r_matrix(6, [(0, 1, 50, 50, 1, 0), (1, 2, 50, 50, 1, 0),
                      (0, 4, 60, 60, 1, 0)],
                  [(3, 4, 400), (3, 1, 400), (4, 2, 300), (5, 3, 200)])
    grid = ProcessGrid2D(P)
    comm = SimComm(P, CommTracker(P))
    res = transitive_reduction(
        DistMat.from_coo(R.shape, grid, R.row, R.col, R.vals), comm, fuzz=0)
    S = res.S.to_global()
    marks = S.vals[:, R_SUFFIX] == R_CONTAINED
    assert dict(zip(S.row[marks].tolist(), S.col[marks].tolist())) == \
        {3: 1, 4: 2, 5: 1}
    # The entry carries the overlap of the read's own best container.
    assert S.vals[marks, R_OLEN].tolist() == [400, 300, 200]
    assert not (S.vals[:, R_SUFFIX] == R_CONTAINS).any()
    graph = StringGraph.from_coomat(S)
    assert graph.edge_set() == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert graph.container.tolist() == [-1, -1, -1, 1, 2, 1]
    assert res.removed == R.nnz - S.nnz
    if P > 1:   # the row reduce and the allgather are charged
        assert comm.tracker.records["TrReduction"].total_bytes > 0


def test_dropping_a_contained_read_removes_its_witness():
    """Myers' order: 0 → 2 is transitive only through read 1; once 1 is
    contained (in 0) the edge stays — in the matrix reduction, in Myers'
    and in the SORA model alike."""
    src = np.array([0, 1, 1, 2, 0, 2])
    dst = np.array([1, 0, 2, 1, 2, 0])
    suffix = np.array([4, 6, 3, 5, 7, 11])
    end_src = np.array([1, 0, 1, 0, 1, 0])
    end_dst = np.array([0, 1, 0, 1, 0, 1])
    free = StringGraph(3, src, dst, suffix, end_src, end_dst)
    held = StringGraph(3, src, dst, suffix, end_src, end_dst,
                       container=np.array([-1, 0, -1]))
    assert (0, 2) not in myers_transitive_reduction(free, fuzz=0).edge_set()
    expect = {(0, 2), (2, 0)}
    assert myers_transitive_reduction(held, fuzz=0).edge_set() == expect
    assert sora_transitive_reduction(held, nodes=2,
                                     fuzz=0).graph.edge_set() == expect
    mat = held.to_coomat()
    res = transitive_reduction(
        DistMat.from_coo(mat.shape, ProcessGrid2D(1), mat.row, mat.col,
                         mat.vals), SimComm(1, CommTracker(1)), fuzz=0)
    out = StringGraph.from_coomat(res.S.to_global())
    assert out.edge_set() == expect
    assert out.container.tolist() == [-1, 0, -1]
