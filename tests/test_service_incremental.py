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
from dataclasses import replace

import numpy as np
import pytest

from repro.core.contigs import extract_contigs
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.dsparse.coomat import CooMat
from repro.dsparse.distmat import DistMat
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.seeding import FullKScheme
from repro.service import AssemblyState, ServiceConfig, refresh
from repro.service import incremental

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


@pytest.fixture(scope="module")
def regime_batches():
    """The benchmark's regime in miniature: 1 % error, many small deltas.

    Reads are grouped by where they lie: the bootstrap holds reads ending
    before 55 % of the genome, ``far`` reads start past 65 % (so no read
    ingested before them covers their region), ``bridge`` reads are the
    rest.  After the bootstrap: four covered-region reads, one single read,
    the first far reads, the bridge, then the remaining far reads in two
    batches — six deltas.
    """
    _genome, reads, layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=8_000, seed=31), depth=10,
                    mean_len=650, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.01), seed=32))
    g = int(layout.end.max())
    by_start = np.argsort(layout.start, kind="stable")
    resident = by_start[layout.end[by_start] <= 0.55 * g]
    far = by_start[layout.start[by_start] >= 0.65 * g]
    bridge = np.setdiff1d(by_start, np.concatenate([resident, far]))
    third = far.shape[0] // 3
    groups = [resident[:-5], resident[-5:-1], resident[-1:], far[:third],
              bridge, far[third:2 * third], far[2 * third:]]
    assert all(gr.shape[0] for gr in groups)
    assert layout.end[np.concatenate(groups[:3])].max() < \
        layout.start[groups[3]].min()
    return [reads.subset(gr) for gr in groups]


@pytest.fixture(scope="module")
def regime_refs(regime_batches):
    """From-scratch digests per version, per seed mode (computed lazily)."""
    refs = {}

    def get(seed_mode: str) -> list[dict]:
        if seed_mode not in refs:
            prefix, out = regime_batches[0], []
            for i, batch in enumerate(regime_batches):
                prefix = prefix if i == 0 else prefix.concat(batch)
                out.append(_scratch_digests(run_pipeline(
                    prefix, _regime_config(seed_mode))))
            refs[seed_mode] = out
        return refs[seed_mode]
    return get


def _regime_config(seed_mode, executor="serial", workers=1):
    return replace(_pipeline_config(executor, workers), align_mode="chain",
                   seed_mode=seed_mode)


@pytest.mark.parametrize("executor,workers", [("serial", 1), ("process", 2)])
@pytest.mark.parametrize("seed_mode", ["full", "minimizer"])
def test_incremental_matches_scratch_in_chain_regime(regime_batches,
                                                     regime_refs, seed_mode,
                                                     executor, workers):
    """Chain alignment over 1 % error reads, full-k and minimizer seeds, six
    small deltas (one a single read, one in a region nothing resident
    covers): every version equals the scratch run on its prefix."""
    config = ServiceConfig(refresh_mode="incremental",
                           pipeline=_regime_config(seed_mode, executor,
                                                   workers))
    state = AssemblyState.initial()
    for batch, ref in zip(regime_batches, regime_refs(seed_mode)):
        state = refresh(state, batch, config)
        assert _state_digests(state) == ref, f"version {state.version}"
    assert state.refresh_mode == "incremental"


def test_refresh_stays_delta_sized(service_reads, monkeypatch):
    """One incremental refresh extracts seeds once (the batch's), transposes
    nothing — the delta product's column operand is a view of A's rows —
    and distributes nothing as large as A."""
    config = ServiceConfig(refresh_mode="incremental",
                           pipeline=replace(_pipeline_config(),
                                            seed_mode="full",
                                            kmer_batches=1))
    n = len(service_reads)
    state = refresh(AssemblyState.initial(),
                    service_reads.subset(np.arange(n - 12)), config)
    calls = {"seeds": 0, "transpose": 0}
    sizes, operands = [], []
    seeds_of_block = FullKScheme.seeds_of_block
    transpose = CooMat.transpose
    from_coo = DistMat.from_coo.__func__
    summa = incremental.summa

    def counting_seeds(self, *args):
        calls["seeds"] += 1
        return seeds_of_block(self, *args)

    def counting_transpose(self):
        calls["transpose"] += 1
        return transpose(self)

    def recording_summa(A, B, *args, **kwargs):
        operands.append((A, B))
        return summa(A, B, *args, **kwargs)

    def sized_from_coo(cls, shape, grid, row, col, vals):
        sizes.append(len(row))
        return from_coo(cls, shape, grid, row, col, vals)

    monkeypatch.setattr(FullKScheme, "seeds_of_block", counting_seeds)
    monkeypatch.setattr(CooMat, "transpose", counting_transpose)
    monkeypatch.setattr(DistMat, "from_coo", classmethod(sized_from_coo))
    monkeypatch.setattr(incremental, "summa", recording_summa)
    new = refresh(state, service_reads.subset(np.arange(n - 12, n)), config)
    assert new.refresh_mode == "incremental"
    assert calls == {"seeds": 1, "transpose": 0}
    assert sizes and max(sizes) < new.counts["nnz_a"]
    (A_aff, At_aff), = operands
    assert At_aff.shape == A_aff.shape[::-1]
    assert all(b.transposed and b.T.transposed is False
               for brow in At_aff.blocks for b in brow)


def test_empty_batch_bumps_version_only(service_reads):
    """An empty batch is a no-op refresh: new version, identical products."""
    config = ServiceConfig(refresh_mode="incremental",
                           pipeline=_pipeline_config())
    state = refresh(AssemblyState.initial(),
                    service_reads.subset(np.arange(40)), config)
    bumped = refresh(state, service_reads.subset(np.arange(0)), config)
    assert bumped.version == state.version + 1
    assert _state_digests(bumped) == _state_digests(state)
