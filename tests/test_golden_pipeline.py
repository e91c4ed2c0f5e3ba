"""Golden end-to-end snapshot suite.

Every PR so far has *claimed* "byte-identical output" along some axis —
backends (PR 1), executors (PR 2), blocked overlap (PR 3), alignment
engines (PR 4), k-mer engines (PR 5).  This suite finally pins the claim
globally: one fixed-seed dataset runs through the full pipeline across the
``executor × overlap-mode`` cross-product, and the digests of S, R, the
contig layout, the communication records, and the peak-memory marks — and
the batched alignment sweep's work counters — must all equal the stored
golden values.  The reference engines (``tests/oracles``: the
Bloom-filtered counter, the read-by-read A scan, the per-pair aligner) are
composed into the same run once and must reach the same R and S.

If a future PR *intentionally* changes pipeline output, it must update the
``GOLDEN`` constants below (the assertion message prints the new digests) —
making every silent behavioral drift a test failure instead of a footnote.

Everything digested is integer-valued and RNG-stream-stable (fixed PCG64
seeds, integer alignment scores, explicit ``kmer_upper`` so no float model
sits on the critical path), so the digests are platform-independent.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.contigs import extract_contigs
from repro.core.overlap import (align_candidates, build_a_matrix,
                                candidate_overlaps)
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.transitive_reduction import transitive_reduction
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.kmer_counter import count_kmers

from oracles.align_loop import align_candidates_loop
from oracles.kmer_loop import build_a_matrix_loop, count_kmers_loop

K = 17
NPROCS = 4
KMER_UPPER = 24

EXECUTORS = [("serial", 1), ("thread", 3), ("process", 2)]
OVERLAP_MODES = ["monolithic", "blocked"]
#: Overlap leg -> (overlap_mode, n_strips, GOLDEN tracker/peaks key).  One
#: blocked strip is the unsplit product, so it carries monolithic's digests.
OVERLAP_LEGS = {"monolithic": ("monolithic", None, "monolithic"),
                "blocked": ("blocked", 3, "blocked"),
                "blocked1": ("blocked", 1, "monolithic")}
#: The engines every leg pins, as the benchmark does (each axis has one
#: choice; the ids keep naming them).
ENGINES = dict(align_impl="batch", kmer_impl="batch", spgemm_impl="masked")

#: Golden digests of the fixed-seed run.  S and the contig layout are
#: invariant across *every* axis; the communication records and peak marks
#: are invariant across executors and engines but legitimately differ
#: between monolithic and blocked candidate formation (blocked runs one
#: SUMMA per strip and holds smaller candidate peaks — that is its point).
#:
#: PR 6 (masked SpGEMM engine) updated only the two ``peaks`` digests:
#: the transitive reduction squares R within R's own pattern, so the
#: recorded ``TrReduction`` live set (R + N) genuinely shrinks (180288 →
#: 93600 bytes here).  Every other digest — S, R, contigs, counts, both
#: trackers, and the ``SpGEMM`` peak inside the peaks dicts — is
#: byte-identical to the PR 5 values.
#:
#: Contained-read removal moved every digest once: R keeps the containment
#: pairs (nnz 1338 → 1926), the transitive reduction drops the contained
#: reads before squaring (S: 726 → 169 entries — 66 dovetails over the 34
#: kept reads plus 103 containment pointers), and TrReduction's traffic
#: and live set follow.
GOLDEN = {
    "S": "03662da72cbdcd8d30c57aa904f3056a07847c86b38bbfec5229faa7a7a2a324",
    "R": "6cb0ab0a53e35a24d100b8e7dcbf8dd74e9ee27bfe9672231297b9a545b09122",
    "contigs": "9ccab1f5aae97a86548ad4445efd47418f3568e176f3f9f08f389014218ac32a",
    "counts": (88231, 1334, 1926, 169),  # nnz A, C, R, S
    "tracker": {
        "monolithic":
            "05d8894184f6d0c4af3e15c4b80e76ff07edbf002c3ae8652f5c296573457b00",
        "blocked":
            "e012671909b8070c38134498756057a8b3abaf7cc11ca38637a25e6721a65861",
    },
    "peaks": {
        "monolithic":
            "7f02a5cb587d64dde35526a073d08ae9a9423ee9db7ed38d6a39e71e8fceac82",
        "blocked":
            "01d7f7f68a2620cdd580224b13286134df698a4cd68977b77d693407a444f8e2",
    },
    # The batched x-drop sweep's exact work (``kernel_counts["Alignment"]``,
    # sums over problems, so the same under every executor, overlap mode
    # and chunking).  These reads are error-free, so every extension ends
    # on its seed diagonal: no edit round runs, and the word compares are
    # the whole of the work.
    "alignment": {"rounds": 0, "cells": 0, "words": 110777},
}


@pytest.fixture(scope="module")
def golden_reads():
    """Fixed-seed error-free dataset (PCG64 streams are version-stable)."""
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=9_000, seed=21), depth=10,
                    mean_len=650, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=22))
    return reads


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _contig_digest(graph) -> str:
    contigs = extract_contigs(graph)
    # Canonical form: every maximal walk as (reads, orientations) tuples,
    # sorted — independent of extraction order.
    canon = sorted((tuple(c.reads), tuple(c.orientations)) for c in contigs)
    return _sha_text(repr(canon))


def _tracker_digest(tracker) -> str:
    summary = tracker.summary()
    lines = [f"{stage}:{rec['total_bytes']:.0f}:{rec['max_bytes']:.0f}:"
             f"{rec['total_messages']}:{rec['max_messages']}"
             for stage, rec in sorted(summary.items())]
    return _sha_text("|".join(lines))


def _peaks_digest(timer) -> str:
    peaks = timer.peak_bytes()
    return _sha_text(repr(sorted(peaks.items())))


def _config(executor, workers, leg):
    overlap_mode, n_strips, _key = OVERLAP_LEGS[leg]
    return PipelineConfig(
        k=K, nprocs=NPROCS, align_mode="xdrop", fuzz=60,
        kmer_upper=KMER_UPPER, executor=executor, workers=workers,
        overlap_mode=overlap_mode, n_strips=n_strips, **ENGINES)


COMBOS = list(itertools.product(EXECUTORS, OVERLAP_MODES)) + \
    [(("serial", 1), "blocked1")]


@pytest.mark.parametrize(
    "executor_workers,overlap_mode", COMBOS,
    ids=[f"{e[0]}{e[1]}-{o}-abatch-kbatch" for e, o in COMBOS])
def test_golden_pipeline(golden_reads, executor_workers, overlap_mode):
    executor, workers = executor_workers
    result = run_pipeline(golden_reads,
                          _config(executor, workers, overlap_mode))
    got = {
        "S": _sha(result.S.row, result.S.col, result.S.vals),
        "contigs": _contig_digest(result.string_graph),
        "counts": (result.nnz_a, result.nnz_c, result.nnz_r, result.nnz_s),
        "tracker": _tracker_digest(result.tracker),
        "peaks": _peaks_digest(result.timer),
        "alignment": result.kernel_counts.get("Alignment"),
    }
    expect = {
        "S": GOLDEN["S"],
        "contigs": GOLDEN["contigs"],
        "counts": GOLDEN["counts"],
        "tracker": GOLDEN["tracker"][OVERLAP_LEGS[overlap_mode][2]],
        "peaks": GOLDEN["peaks"][OVERLAP_LEGS[overlap_mode][2]],
        "alignment": GOLDEN["alignment"],
    }
    assert got == expect, (
        f"golden pipeline drift under executor={executor}/{workers} "
        f"overlap={overlap_mode}.\n"
        f"If this change is intentional, update GOLDEN to:\n{got!r}")


def test_golden_overlap_r(golden_reads):
    """R itself (not just its cardinality) matches the stored digest."""
    comm = SimComm(NPROCS, CommTracker(NPROCS))
    timer = StageTimer()
    table = count_kmers(golden_reads, K, comm, timer, upper=KMER_UPPER)
    A = build_a_matrix(golden_reads, table, ProcessGrid2D(NPROCS), comm,
                       timer)
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates(C, golden_reads, K, comm, timer, mode="xdrop",
                         fuzz=60)
    g = R.to_global()
    got = _sha(g.row, g.col, g.vals)
    assert got == GOLDEN["R"], f"golden R drift; new digest {got}"


def test_golden_reference_engines(golden_reads):
    """The reference engines composed around the runtime's candidate
    product — the Bloom-filtered two-pass count, the read-by-read A scan,
    then the per-pair aligner — reach the golden R, and the runtime
    transitive reduction of that R the golden S and counts."""
    comm = SimComm(NPROCS, CommTracker(NPROCS))
    timer = StageTimer()
    table = count_kmers_loop(golden_reads, K, comm, timer, upper=KMER_UPPER)
    A = build_a_matrix_loop(golden_reads, table, ProcessGrid2D(NPROCS),
                            comm, timer)
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates_loop(C, golden_reads, K, comm, timer, mode="xdrop",
                              fuzz=60)
    g = R.to_global()
    assert _sha(g.row, g.col, g.vals) == GOLDEN["R"]
    S = transitive_reduction(R, comm, timer, fuzz=60).S.to_global()
    assert _sha(S.row, S.col, S.vals) == GOLDEN["S"]
    assert (A.nnz(), C.nnz(), R.nnz(), S.nnz) == GOLDEN["counts"]
