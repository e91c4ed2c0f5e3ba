"""Incremental-refresh equivalence: delta updates vs from-scratch runs.

The service's contract is byte-identity: after any sequence of ingested
batches, the state produced by ``refresh_mode="incremental"`` must match a
from-scratch :func:`~repro.core.pipeline.run_pipeline` on the concatenated
reads — same S, same R, same contig layout, same sparsity counts, and the
same per-stage communication records — for every executor.  The dataset
uses a deliberately low ``kmer_upper`` so that later batches push k-mer
multiplicities *past* the reliable ceiling: the hard case where columns
leave the reliable set and previously-aligned pairs must be re-examined
(guarded by an explicit churn assertion below).
"""

import hashlib

import numpy as np
import pytest

from repro.core.contigs import extract_contigs
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.service import AssemblyState, ServiceConfig, refresh

K = 17
NPROCS = 4
#: Low ceiling on purpose: as coverage accumulates across batches, k-mer
#: counts cross it and reliable columns get *removed* between versions.
KMER_UPPER = 12
FUZZ = 60

EXECUTORS = [("serial", 1), ("thread", 3), ("process", 2)]

#: Uneven batch boundaries (as fractions of the read count): a bulk load,
#: a mid-sized follow-up, and a small trailing batch.
SPLIT_FRACTIONS = (0.0, 0.4, 0.8, 1.0)


@pytest.fixture(scope="module")
def service_reads():
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


def _contig_digest(contigs) -> str:
    canon = sorted((tuple(c.reads), tuple(c.orientations)) for c in contigs)
    return _sha_text(repr(canon))


def _tracker_digest(tracker) -> str:
    summary = tracker.summary()
    lines = [f"{stage}:{rec['total_bytes']:.0f}:{rec['max_bytes']:.0f}:"
             f"{rec['total_messages']}:{rec['max_messages']}"
             for stage, rec in sorted(summary.items())]
    return _sha_text("|".join(lines))


def _pipeline_config(executor="serial", workers=1) -> PipelineConfig:
    return PipelineConfig(k=K, nprocs=NPROCS, fuzz=FUZZ,
                          kmer_upper=KMER_UPPER,
                          overlap_mode="monolithic",
                          executor=executor, workers=workers)


def _splits(n: int) -> list[int]:
    return [int(round(f * n)) for f in SPLIT_FRACTIONS]


def _scratch_digests(result) -> dict:
    return {
        "S": _sha(result.S.row, result.S.col, result.S.vals),
        "R": _sha(result.R.row, result.R.col, result.R.vals),
        "contigs": _contig_digest(extract_contigs(result.string_graph)),
        "counts": (result.n_reads, result.n_kmers, result.nnz_a,
                   result.nnz_c, result.nnz_r, result.nnz_s,
                   result.tr_rounds),
        "tracker": _tracker_digest(result.tracker),
    }


def _state_digests(state: AssemblyState) -> dict:
    c = state.counts
    return {
        "S": _sha(state.S.row, state.S.col, state.S.vals),
        "R": _sha(state.R.row, state.R.col, state.R.vals),
        "contigs": _contig_digest(state.contigs),
        "counts": (c["n_reads"], c["n_kmers"], c["nnz_a"], c["nnz_c"],
                   c["nnz_r"], c["nnz_s"], c["tr_rounds"]),
        "tracker": _tracker_digest(state.tracker),
    }


@pytest.fixture(scope="module")
def scratch_refs(service_reads):
    """From-scratch digests at every batch boundary (the oracle runs)."""
    splits = _splits(len(service_reads))
    refs = []
    for hi in splits[1:]:
        prefix = service_reads.subset(np.arange(hi))
        refs.append(_scratch_digests(run_pipeline(prefix,
                                                  _pipeline_config())))
    return refs


def _run_batches(reads, config, mode=None) -> list[AssemblyState]:
    splits = _splits(len(reads))
    state = AssemblyState.initial()
    states = []
    for lo, hi in zip(splits[:-1], splits[1:]):
        batch = reads.subset(np.arange(lo, hi))
        state = refresh(state, batch, config, mode=mode)
        states.append(state)
    return states


@pytest.mark.parametrize("executor,workers", EXECUTORS)
def test_incremental_matches_scratch(service_reads, scratch_refs, executor,
                                     workers):
    """Every version's S, R, contigs, counts, and comm records match the
    from-scratch pipeline on the concatenated prefix — for every executor."""
    config = ServiceConfig(refresh_mode="incremental",
                           pipeline=_pipeline_config(executor, workers))
    states = _run_batches(service_reads, config)
    assert [s.version for s in states] == [1, 2, 3]
    assert states[0].refresh_mode == "recompute"  # bootstrap
    assert all(s.refresh_mode == "incremental" for s in states[1:])
    for state, ref in zip(states, scratch_refs):
        assert _state_digests(state) == ref


def test_recompute_mode_matches_incremental(service_reads, scratch_refs):
    """The oracle engine produces the identical versioned states."""
    config = ServiceConfig(refresh_mode="recompute",
                           pipeline=_pipeline_config())
    states = _run_batches(service_reads, config)
    assert all(s.refresh_mode == "recompute" for s in states)
    for state, ref in zip(states, scratch_refs):
        assert _state_digests(state) == ref


def test_reliability_churn_actually_exercised(service_reads):
    """The dataset must remove reliable columns between versions — else the
    suite isn't covering the admission-churn path (P2) at all."""
    config = ServiceConfig(refresh_mode="incremental",
                           pipeline=_pipeline_config())
    states = _run_batches(service_reads, config)
    removed_any = False
    for prev, cur in zip(states[:-1], states[1:]):
        removed = prev.table.kmers[cur.table.lookup(prev.table.kmers) < 0]
        removed_any = removed_any or removed.shape[0] > 0
    assert removed_any, (
        "no reliable k-mer ever crossed the upper bound; lower KMER_UPPER "
        "so the removed-column delta path is actually tested")


def test_empty_batch_bumps_version_only(service_reads):
    """An empty batch is a no-op refresh: new version, identical products."""
    config = ServiceConfig(refresh_mode="incremental",
                           pipeline=_pipeline_config())
    state = refresh(AssemblyState.initial(),
                    service_reads.subset(np.arange(40)), config)
    bumped = refresh(state, service_reads.subset(np.arange(0)), config)
    assert bumped.version == state.version + 1
    assert _state_digests(bumped) == _state_digests(state)
