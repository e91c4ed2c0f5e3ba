"""Incremental-refresh equivalence: delta updates vs from-scratch runs.

The service's contract is byte-identity: after any sequence of ingested
batches, the state :func:`~repro.service.refresh` produces must match a
from-scratch :func:`~repro.core.pipeline.run_pipeline` on the concatenated
reads — same S, same R, same contig layout, same sparsity counts, and the
same per-stage communication records — for every executor, and every
cached intermediate must match the oracle that derives it from the whole
read set (``tests/oracles/service.py``).  The dataset
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
from repro.seqs import (ErrorModel, GenomeSpec, ReadSet, ReadSimSpec,
                        simulate_reads)
from repro.seqs.kmer_counter import KmerTable
from repro.seqs.seeding import FullKScheme
from repro.service import AssemblyState, ServiceConfig, refresh
from repro.service import incremental

from oracles.service import differing_fields, recompute

K = 17
NPROCS = 4
#: Low ceiling on purpose: as coverage accumulates across batches, k-mer
#: counts cross it and reliable columns get *removed* between versions.
KMER_UPPER = 12
FUZZ = 60

EXECUTORS = [("serial", 1), ("process", 2)]

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


def _batches(reads) -> list[ReadSet]:
    splits = _splits(len(reads))
    return [reads.subset(np.arange(lo, hi))
            for lo, hi in zip(splits[:-1], splits[1:])]


def _run_batches(reads, config) -> list[AssemblyState]:
    state = AssemblyState.initial()
    states = []
    for batch in _batches(reads):
        state = refresh(state, batch, config)
        states.append(state)
    return states


@pytest.mark.parametrize("executor,workers", EXECUTORS)
def test_incremental_matches_scratch(service_reads, scratch_refs, executor,
                                     workers):
    """Every version's S, R, contigs, counts, and comm records match the
    from-scratch pipeline on the concatenated prefix — for every executor."""
    config = ServiceConfig(pipeline=_pipeline_config(executor, workers))
    states = _run_batches(service_reads, config)
    assert [s.version for s in states] == [1, 2, 3]
    for state, ref in zip(states, scratch_refs):
        assert _state_digests(state) == ref


def test_recompute_mode_matches_incremental(service_reads, scratch_refs):
    """The oracle (``recompute``: a scratch run, every cached intermediate
    derived from the whole read set) produces the scratch digests, and
    the states refreshed on the process executor equal it on every field:
    the bootstrap (a delta from the empty state) and both later deltas."""
    config = ServiceConfig(pipeline=_pipeline_config("process", 2))
    state = oracle = AssemblyState.initial()
    for batch, ref in zip(_batches(service_reads), scratch_refs):
        state = refresh(state, batch, config)
        oracle = recompute(oracle, batch, config)
        assert _state_digests(oracle) == ref
        assert differing_fields(state, oracle) == [], state.version


@pytest.mark.parametrize("align_mode", ["chain", "xdrop"])
@pytest.mark.parametrize("seed_mode", ["full", "minimizer"])
@pytest.mark.parametrize("nprocs", [1, 4, 16])
def test_every_field_matches_oracle(service_reads, nprocs, seed_mode,
                                    align_mode):
    """Histogram, occurrence table, key-major index, candidate pairs,
    census, table, R, S, graph, contigs, counts and comm records all
    equal the oracle's, at the bootstrap and each version of a 3-batch
    chain, on every grid, seed scheme and alignment mode."""
    config = ServiceConfig(pipeline=replace(
        _pipeline_config(), nprocs=nprocs, seed_mode=seed_mode,
        align_mode=align_mode))
    state = oracle = AssemblyState.initial()
    for batch in _batches(service_reads):
        state = refresh(state, batch, config)
        oracle = recompute(oracle, batch, config)
        assert differing_fields(state, oracle) == [], state.version


def test_reliability_churn_actually_exercised(service_reads):
    """The dataset must remove reliable columns between versions — else the
    suite isn't covering the admission-churn path (P2) at all."""
    config = ServiceConfig(pipeline=_pipeline_config())
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
    the first far reads, the bridge, the remaining far reads in two
    batches, then three copies of a dozen bootstrap reads — seven deltas.
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
    batches = [reads.subset(gr) for gr in groups]
    # Three more copies of a dozen resident reads: their k-mers' counts
    # climb past kmer_upper, so reliable columns leave A (P₂).
    copies = reads.subset(np.tile(resident[:12], 3))
    return batches + [ReadSet([f"copy{i}" for i in range(len(copies))],
                              list(copies.seqs))]


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
    """Chain alignment over 1 % error reads, full-k and minimizer seeds,
    seven small deltas (one a single read, one in a region nothing resident
    covers, one re-ingesting resident reads so reliable columns leave A):
    every version equals the scratch run on its prefix."""
    config = ServiceConfig(pipeline=_regime_config(seed_mode, executor,
                                                   workers))
    state = AssemblyState.initial()
    for batch, ref in zip(regime_batches, regime_refs(seed_mode)):
        prev, state = state, refresh(state, batch, config)
        assert _state_digests(state) == ref, f"version {state.version}"
    removed = state.table.lookup(prev.table.kmers) < 0
    assert removed.any(), "the re-ingest removed no reliable column"


def test_refresh_stays_delta_sized(service_reads, monkeypatch):
    """One incremental refresh extracts seeds once (the batch's), transposes
    nothing, runs no SUMMA and forms the delta C in one masked product on
    global operands (one kernel call, where SUMMA made q³): A's affected
    rows against A's partner rows viewed transposed, neither as large as
    A, and nothing as large as A is distributed."""
    config = ServiceConfig(pipeline=replace(_pipeline_config(),
                                            seed_mode="full",
                                            kmer_batches=1, fault_plan=""))
    n = len(service_reads)
    state = refresh(AssemblyState.initial(),
                    service_reads.subset(np.arange(n - 12)), config)
    calls = {"seeds": 0, "transpose": 0}
    sizes, products = [], []
    seeds_of_block = FullKScheme.seeds_of_block
    transpose = CooMat.transpose
    from_coo = DistMat.from_coo.__func__
    spgemm_masked = incremental.spgemm_masked

    def counting_seeds(self, *args):
        calls["seeds"] += 1
        return seeds_of_block(self, *args)

    def counting_transpose(self):
        calls["transpose"] += 1
        return transpose(self)

    def recording_spgemm(A, B, semiring, mask, tally=None):
        products.append((A, B, mask))
        return spgemm_masked(A, B, semiring, mask, tally)

    def sized_from_coo(cls, shape, grid, row, col, vals):
        sizes.append(len(row))
        return from_coo(cls, shape, grid, row, col, vals)

    monkeypatch.setattr(FullKScheme, "seeds_of_block", counting_seeds)
    monkeypatch.setattr(CooMat, "transpose", counting_transpose)
    monkeypatch.setattr(DistMat, "from_coo", classmethod(sized_from_coo))
    monkeypatch.setattr(incremental, "spgemm_masked", recording_spgemm)
    new = refresh(state, service_reads.subset(np.arange(n - 12, n)), config)
    assert calls == {"seeds": 1, "transpose": 0}
    assert sizes and max(sizes) < new.counts["nnz_a"]
    assert sum(new.timer.kernel_counts()["SpGEMM"].values()) == 1
    (A_aff, At_aff, mask), = products
    nnz_a = new.counts["nnz_a"]
    assert A_aff.shape == (n, len(new.table)) and A_aff.nnz < nnz_a
    assert At_aff.transposed and At_aff.T.transposed is False
    assert At_aff.shape == A_aff.shape[::-1] and At_aff.nnz < nnz_a
    assert mask.shape == (n, n) and bool((mask.row < mask.col).all())
    # Every new read's pairs are in the mask.
    assert set(range(n - 12, n)) <= set(mask.row) | set(mask.col)


def _lookup_queries(monkeypatch, state, delta, config) -> int:
    """Queries one incremental refresh sends to ``KmerTable.lookup`` and to
    membership tests on an array at least half as long as A."""
    big = state.counts["nnz_a"] // 2
    queries = [0]
    lookup = KmerTable.lookup
    in_sorted = incremental.in_sorted

    def counting_lookup(self, kmers, tally=None):
        queries[0] += len(kmers)
        return lookup(self, kmers, tally)

    def counting_in_sorted(hay, q):
        if max(len(hay), len(q)) >= big:
            queries[0] += len(q)
        return in_sorted(hay, q)

    with monkeypatch.context() as patch:
        patch.setattr(KmerTable, "lookup", counting_lookup)
        patch.setattr(incremental, "in_sorted", counting_in_sorted)
        refresh(state, delta, config)
    return queries[0]


def test_refresh_lookups_stay_delta_sized(monkeypatch):
    """The same 20-read delta against a resident set four times larger:
    the k-mer lookups and the membership tests on occurrence-table- or
    A-sized arrays that one refresh makes grow well under 1.5× — the
    refresh finds added and removed keys, A's new entries and the affected
    pairs from the batch and the key-major index, not by scanning what is
    resident (a resident-sized pass would grow them about 4×)."""
    _genome, pool, layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=24_000, seed=41), depth=12,
                    mean_len=600, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=42))
    config = ServiceConfig(pipeline=replace(
        _pipeline_config(), kmer_upper=200, fault_plan=""))
    # The delta lies in the genome's first quarter, and so does the small
    # resident set; the large one spans all of it, so it holds about 4×
    # the reads, occurrences and reliable k-mers.
    picked = np.flatnonzero(layout.end <= 6_000)[::2][:20]
    delta = pool.subset(picked)
    rest = np.setdiff1d(np.arange(len(pool)), picked)
    counts, sizes = [], []
    for resident in (rest[layout.start[rest] < 6_000], rest):
        state = refresh(AssemblyState.initial(), pool.subset(resident),
                        config)
        sizes.append(state.counts["nnz_a"])
        counts.append(_lookup_queries(monkeypatch, state, delta, config))
    assert sizes[1] > 3.5 * sizes[0]
    assert counts[0] > 0
    assert counts[1] < 1.5 * counts[0], (counts, sizes)


@pytest.mark.parametrize("change", [
    {"seed_mode": "minimizer"}, {"kmer_upper": KMER_UPPER + 1},
    {"align_mode": "xdrop"}, {"fuzz": FUZZ + 20}, {"nprocs": 16},
], ids=["scheme", "bounds", "align_mode", "fuzz", "nprocs"])
def test_basis_change_rebuilds(regime_batches, change):
    """A refresh under settings the state was not built on (its basis)
    rebuilds: the result equals the scratch run on all reads under the new
    settings, on every field.  A delta spliced into the old state would
    mix seed streams, miss keys that change reliability under the new
    bounds, or keep R rows found under the old alignment settings (on
    these 1 % error reads, chain and x-drop keep different R values)."""
    config = ServiceConfig(pipeline=_regime_config("full"))
    first = regime_batches[0]
    batch = regime_batches[1]
    for more in regime_batches[2:7]:
        batch = batch.concat(more)
    state = refresh(AssemblyState.initial(), first, config)
    changed = replace(config, pipeline=replace(config.pipeline, **change))
    rebuilt = refresh(state, batch, changed)
    assert rebuilt.version == state.version + 1
    assert rebuilt.basis != state.basis
    assert differing_fields(rebuilt, recompute(state, batch, changed)) == []
    assert _state_digests(rebuilt) == _scratch_digests(run_pipeline(
        first.concat(batch), changed.pipeline))


def test_zero_length_read_refused_by_both_modes(service_reads):
    """A batch holding a zero-length read is refused by name before
    anything runs, whether the refresh would be a delta or a rebuild."""
    config = ServiceConfig(pipeline=_pipeline_config())
    state = refresh(AssemblyState.initial(),
                    service_reads.subset(np.arange(40)), config)
    batch = ReadSet(["r40", "e"], [service_reads[40],
                                   np.empty(0, np.uint8)])
    wider = replace(config, pipeline=replace(config.pipeline,
                                             kmer_upper=KMER_UPPER + 1))
    for cfg in (config, wider):
        with pytest.raises(ValueError, match="'e'.*length 0"):
            refresh(state, batch, cfg)


def test_empty_batch_bumps_version_only(service_reads):
    """An empty batch is a no-op refresh: new version, identical products,
    on the empty state as on a live one."""
    config = ServiceConfig(pipeline=_pipeline_config())
    empty = service_reads.subset(np.arange(0))
    bumped = refresh(AssemblyState.initial(), empty, config)
    assert bumped.version == 1
    assert differing_fields(bumped, AssemblyState.initial()) == ["version"]
    state = refresh(bumped, service_reads.subset(np.arange(40)), config)
    bumped = refresh(state, empty, config)
    assert bumped.version == state.version + 1
    assert _state_digests(bumped) == _state_digests(state)
