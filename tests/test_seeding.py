"""Pluggable seeding layer: scheme parity, determinism, and service guards.

The :mod:`repro.seqs.seeding` contract has three legs:

* **Full-k is a passthrough** — ``FullKScheme`` must reproduce
  ``read_kmers_batch`` byte-for-byte (the golden digests of
  ``test_golden_pipeline.py`` enforce the end-to-end version of this).
* **Sketches are pure per-read functions** — minimizer and syncmer seeds
  depend only on each read's bases, so any partition of a block (executor
  workers, strips, service batches) yields identical seeds, and a read and
  its reverse complement select the same canonical seeds (strand
  symmetry, including hash ties on homopolymers).
* **Schemes are session state** — a batch whose config resolves to a
  different scheme than the one the cached occurrence table was built
  with makes the incremental service rebuild its state under the new
  scheme and re-tag it (also through the server, which answers 200 and
  reports the new scheme in ``/stats``).

This file is also the tier-1 payload of the ``seed-minimizer`` /
``seed-syncmer`` CI legs (``REPRO_SEED_MODE``), so one test runs the full
pipeline with ``seed_mode="auto"`` and asserts the env-resolved mode took
effect end to end.
"""

import hashlib
import os
import pickle

import numpy as np
import pytest

from repro.core.overlap import _dedup_second_seeds
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.semirings import (C_COUNT, C_NFIELDS, C_PA1, C_PA2, C_PB1,
                                  C_PB2, C_STRAND1, C_STRAND2)
from repro.options import SEED_MODE
from repro.seqs import (ErrorModel, GenomeSpec, ReadSet, ReadSimSpec,
                        simulate_reads)
from repro.seqs.dna import revcomp_codes
from repro.seqs.kmers import read_kmers_batch
from repro.seqs import minimizers as minimizers_mod
from repro.seqs.minimizers import minimizers_batch
from repro.seqs.seeding import (DEFAULT_SEED_W, FullKScheme, MinimizerScheme,
                                SyncmerScheme, make_scheme)
from repro.service import AssemblyState, ServiceConfig, refresh

from oracles.kmers import minimizers, seeds_of_read
from oracles.service import differing_fields, recompute

K = 17
W = 8

SCHEMES = [
    FullKScheme(K),
    MinimizerScheme(K, W),
    SyncmerScheme(K, W),
]


def _random_reads(rng, n_reads, max_len=120, min_len=1) -> ReadSet:
    lengths = rng.integers(min_len, max_len + 1, size=n_reads)
    seqs = [rng.integers(0, 4, size=int(L)).astype(np.uint8)
            for L in lengths]
    return ReadSet([f"r{i}" for i in range(n_reads)], seqs)


def _seed_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_make_scheme_ids_and_validation():
    assert make_scheme("full", K, W).scheme_id == f"full:k={K}"
    assert make_scheme("minimizer", K, W).scheme_id == \
        f"minimizer:k={K},w={W}"
    s = make_scheme("syncmer", K, W)
    assert s.scheme_id == f"syncmer:k={K},s={K - W + 1}"
    with pytest.raises(ValueError):
        MinimizerScheme(K, 0)
    with pytest.raises(ValueError):
        SyncmerScheme(K, K + 1)


def test_schemes_pickle_roundtrip():
    for scheme in SCHEMES:
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone == scheme
        assert clone.scheme_id == scheme.scheme_id


def test_expected_seed_fraction_ordering():
    full, mini, sync = SCHEMES
    assert full.expected_seed_fraction == 1.0
    assert 0.0 < sync.expected_seed_fraction \
        < mini.expected_seed_fraction < 1.0


# ---------------------------------------------------------------------------
# Full-k passthrough + batched-minimizer parity
# ---------------------------------------------------------------------------

def test_fullk_block_is_read_kmers_batch():
    rng = np.random.default_rng(101)
    scheme = FullKScheme(K)
    for trial in range(10):
        reads = _random_reads(rng, int(rng.integers(1, 30)))
        got = scheme.seeds_of_block(*reads.soa())
        want = read_kmers_batch(*reads.soa(), K)
        for g, w_ in zip(got, want):
            np.testing.assert_array_equal(g, w_)


def test_minimizers_batch_matches_per_read():
    rng = np.random.default_rng(202)
    for trial in range(25):
        k = int(rng.integers(3, 21))
        w = int(rng.integers(1, 12))
        reads = _random_reads(rng, int(rng.integers(1, 25)), max_len=90)
        km, ridx, pos, _flip = minimizers_batch(*reads.soa(), k, w)
        exp_km, exp_ridx, exp_pos = [], [], []
        for i in range(len(reads)):
            kv, pv = minimizers(reads[i], k, w)
            exp_km.append(kv)
            exp_pos.append(pv)
            exp_ridx.append(np.full(kv.shape[0], i, dtype=np.int64))
        np.testing.assert_array_equal(km, np.concatenate(exp_km))
        np.testing.assert_array_equal(ridx, np.concatenate(exp_ridx))
        np.testing.assert_array_equal(pos, np.concatenate(exp_pos))


def test_minimizers_batch_matches_per_read_on_ties():
    """Tie-heavy hash streams: poly-A, short tandem repeats and their
    mixes make many windows hold several equal minima, where the batch
    argmin must keep the first, as the per-read reference does.  The block
    spans more windows than one argmin chunk, so chunk seams are crossed
    mid-read."""
    rng = np.random.default_rng(404)
    units = [[0], [3], [0, 1], [2, 3, 1], [0, 0, 1, 3], [1, 2, 2, 0, 3]]
    seqs = []
    for i in range(48):
        unit = np.array(units[i % len(units)], dtype=np.uint8)
        length = int(rng.integers(20, 900))
        seq = np.resize(unit, length)
        if i % 3 == 0:      # a random island inside the repeat
            at = int(rng.integers(0, length))
            seq[at:at + 30] = rng.integers(0, 4, seq[at:at + 30].shape[0])
        seqs.append(seq.astype(np.uint8))
    reads = ReadSet([f"t{i}" for i in range(len(seqs))], seqs)
    assert int(np.maximum(reads.lengths - 8, 0).sum()) > \
        minimizers_mod._ARGMIN_CHUNK
    for k, w in ((9, 8), (5, 3), (11, 12), (3, 1)):
        km, ridx, pos, _flip = minimizers_batch(*reads.soa(), k, w)
        want = [minimizers(reads[i], k, w) for i in range(len(reads))]
        np.testing.assert_array_equal(km, np.concatenate([kv for kv, _ in
                                                          want]))
        np.testing.assert_array_equal(pos, np.concatenate([pv for _, pv in
                                                           want]))
        np.testing.assert_array_equal(ridx, np.concatenate(
            [np.full(kv.shape[0], i) for i, (kv, _) in enumerate(want)]))


def test_seeds_of_read_matches_block():
    rng = np.random.default_rng(303)
    for scheme in SCHEMES:
        reads = _random_reads(rng, 20, max_len=100)
        keys, ridx, pos, flip = scheme.seeds_of_block(*reads.soa())
        for i in range(len(reads)):
            sel = ridx == i
            k_i, p_i, f_i = seeds_of_read(scheme, reads[i])
            np.testing.assert_array_equal(k_i, keys[sel])
            np.testing.assert_array_equal(p_i, pos[sel])
            np.testing.assert_array_equal(f_i, flip[sel])


def test_block_partition_independence():
    """Seeds are per-read functions: any block split concatenates back."""
    rng = np.random.default_rng(404)
    for scheme in SCHEMES:
        reads = _random_reads(rng, 23, max_len=100)
        whole = scheme.seeds_of_block(*reads.soa())
        cuts = sorted(rng.choice(len(reads), size=3, replace=False).tolist())
        bounds = [0, *cuts, len(reads)]
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            keys, ridx, pos, flip = scheme.seeds_of_block(
                *reads.soa_block(lo, hi))
            parts.append((keys, ridx + lo, pos, flip))
        for got, want in zip((np.concatenate([p[i] for p in parts])
                              for i in range(4)), whole):
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# Strand symmetry (sketches must pick the same canonical seeds on either
# strand, including under hash ties)
# ---------------------------------------------------------------------------

def _strand_seed_multisets(scheme, codes):
    fwd = seeds_of_read(scheme, codes)
    rev = seeds_of_read(scheme, revcomp_codes(codes))
    k = scheme.k
    # A seed at position p on the forward read sits at L - k - p on the
    # reverse complement.
    mirror = codes.shape[0] - k - rev[1]
    fwd_set = sorted(zip(fwd[0].tolist(), fwd[1].tolist()))
    rev_set = sorted(zip(rev[0].tolist(), mirror.tolist()))
    return fwd_set, rev_set


@pytest.mark.parametrize("scheme", SCHEMES[1:],
                         ids=["minimizer", "syncmer"])
def test_sketch_strand_symmetry(scheme):
    rng = np.random.default_rng(505)
    for trial in range(40):
        codes = rng.integers(
            0, 4, size=int(rng.integers(K, 120))).astype(np.uint8)
        fwd_set, rev_set = _strand_seed_multisets(scheme, codes)
        assert fwd_set == rev_set


@pytest.mark.parametrize("scheme,positional",
                         [(SCHEMES[1], False), (SCHEMES[2], True)],
                         ids=["minimizer", "syncmer"])
def test_sketch_strand_symmetry_homopolymer_ties(scheme, positional):
    """All-equal hashes are the worst tie case.  Syncmer selection is
    value-based (a window keeps a k-mer when its end s-mer *attains* the
    window minimum), so even seed positions mirror exactly; minimizer
    argmin tie-breaking is direction-dependent, so only the selected key
    multiset is strand-stable under total ties."""
    for base in (0, 3):
        for length in (K, K + 3, K + W - 1, 60):
            codes = np.full(length, base, dtype=np.uint8)
            fwd_set, rev_set = _strand_seed_multisets(scheme, codes)
            if positional:
                assert fwd_set == rev_set
            else:
                assert sorted(k for k, _ in fwd_set) == \
                    sorted(k for k, _ in rev_set)
            assert fwd_set  # a homopolymer read still yields seeds


def test_sketch_densities_near_expectation():
    rng = np.random.default_rng(606)
    codes = rng.integers(0, 4, size=200_000).astype(np.uint8)
    reads = ReadSet(["g"], [codes])
    windows = codes.shape[0] - K + 1
    for scheme in SCHEMES[1:]:
        keys = scheme.seeds_of_block(*reads.soa())[0]
        measured = keys.shape[0] / windows
        expected = scheme.expected_seed_fraction
        assert abs(measured - expected) < 0.25 * expected


# ---------------------------------------------------------------------------
# Seed dedup on sparse positions
# ---------------------------------------------------------------------------

def _cvals(rows):
    out = np.full((len(rows), C_NFIELDS), -1, dtype=np.int64)
    out[:, C_COUNT] = 2
    for i, (pa1, pb1, s1, pa2, pb2, s2) in enumerate(rows):
        out[i, [C_PA1, C_PB1, C_STRAND1]] = (pa1, pb1, s1)
        out[i, [C_PA2, C_PB2, C_STRAND2]] = (pa2, pb2, s2)
    return out


def test_dedup_second_seeds_sparse_positions():
    """Sketched seeds land on arbitrary offsets; the dedup rules must key
    on values, not on dense-window assumptions."""
    b_len = np.array([500, 500, 500, 500], dtype=np.int64)
    cvals = _cvals([
        (37, 141, 0, 37, 141, 0),     # identical seeds -> redundant
        (37, 141, 0, 98, 202, 0),     # same diagonal (chain) -> redundant
        (37, 141, 0, 98, 210, 0),     # different diagonal -> kept
        (37, 141, 0, 98, 202, 1),     # different strand -> kept
    ])
    chain = _dedup_second_seeds(cvals, b_len, K, "chain")
    assert chain[0, C_PA2] == -1
    assert chain[1, C_PA2] == -1
    assert chain[2, C_PA2] == 98 and chain[3, C_PA2] == 98
    # X-drop may only drop the exact duplicate: extensions from different
    # positions on one diagonal can differ.
    xdrop = _dedup_second_seeds(cvals, b_len, K, "xdrop")
    assert xdrop[0, C_PA2] == -1
    assert xdrop[1, C_PA2] == 98


def test_dedup_second_seeds_flipped_diagonal():
    # Strand-1 seeds compare on the oriented diagonal pa - (b_len - k - pb):
    # pb2 chosen so both seeds share it.
    b_len = np.array([300], dtype=np.int64)
    pb1, pa1, pa2 = 40, 10, 60
    pb2 = pb1 - (pa2 - pa1)
    cvals = _cvals([(pa1, pb1, 1, pa2, pb2, 1)])
    chain = _dedup_second_seeds(cvals, b_len, K, "chain")
    assert chain[0, C_PA2] == -1


# ---------------------------------------------------------------------------
# Pipeline integration: auto resolution, full-mode identity, determinism
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def seeding_dataset():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=8_000, seed=31), depth=10,
                    mean_len=600, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=32))
    return reads


def _result_digest(res) -> str:
    h = hashlib.sha256()
    for a in (res.S.row, res.S.col, res.S.vals,
              res.R.row, res.R.col, res.R.vals):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    h.update(f"{res.nnz_a}:{res.nnz_c}:{res.n_kmers}".encode())
    return h.hexdigest()


def test_pipeline_auto_follows_environment(seeding_dataset):
    """The CI seed-mode legs run exactly this: ``auto`` must resolve
    through ``REPRO_SEED_MODE`` and drive the whole pipeline."""
    expected = SEED_MODE.resolve("auto")
    res = run_pipeline(seeding_dataset,
                       PipelineConfig(k=K, nprocs=4, seed_mode="auto"))
    assert res.config.seed_mode == expected
    assert res.config.seed_w == DEFAULT_SEED_W
    assert res.nnz_a > 0 and res.nnz_c > 0 and res.nnz_s > 0
    if expected != "full":
        full = run_pipeline(seeding_dataset,
                            PipelineConfig(k=K, nprocs=4, seed_mode="full"))
        assert res.nnz_a < full.nnz_a


def test_pipeline_full_equals_auto_without_env(seeding_dataset,
                                               monkeypatch):
    monkeypatch.delenv(SEED_MODE.env, raising=False)
    auto = run_pipeline(seeding_dataset,
                        PipelineConfig(k=K, nprocs=4, seed_mode="auto"))
    full = run_pipeline(seeding_dataset,
                        PipelineConfig(k=K, nprocs=4, seed_mode="full"))
    assert auto.config.seed_mode == "full"
    assert _result_digest(auto) == _result_digest(full)


@pytest.mark.parametrize("mode", ["minimizer", "syncmer"])
def test_sketch_pipeline_deterministic_across_executors(seeding_dataset,
                                                        mode):
    digests = set()
    for executor, workers in (("serial", 1), ("process", 2)):
        res = run_pipeline(seeding_dataset, PipelineConfig(
            k=K, nprocs=4, seed_mode=mode, seed_w=W,
            executor=executor, workers=workers))
        assert res.config.seed_mode == mode
        digests.add(_result_digest(res))
    assert len(digests) == 1
    # What the sketch buys and costs at w = 8 (fixed seeds, so exact):
    # nnz(A) shrinks at least 3x and at least 0.95 of full-k's overlaps
    # survive.
    full = run_pipeline(seeding_dataset,
                        PipelineConfig(k=K, nprocs=4, seed_mode="full"))
    assert full.nnz_a >= 3 * res.nnz_a
    full_pairs = set(zip(full.R.row.tolist(), full.R.col.tolist()))
    kept = full_pairs & set(zip(res.R.row.tolist(), res.R.col.tolist()))
    assert len(kept) >= 0.95 * len(full_pairs) > 0


# ---------------------------------------------------------------------------
# Service: scheme_id tagging and cross-scheme rebuilds
# ---------------------------------------------------------------------------

def _service_config(seed_mode: str) -> ServiceConfig:
    return ServiceConfig(pipeline=PipelineConfig(
        k=K, nprocs=4, kmer_upper=12, fuzz=60, seed_mode=seed_mode,
        seed_w=W))


def test_service_tags_and_rebuilds_cross_scheme(seeding_dataset):
    half = len(seeding_dataset) // 2
    first = seeding_dataset.subset(np.arange(half))
    second = seeding_dataset.subset(np.arange(half, len(seeding_dataset)))

    state = refresh(AssemblyState.initial(), first,
                    _service_config("minimizer"))
    assert state.scheme_id == f"minimizer:k={K},w={W}"

    # Same scheme: a delta.
    state2 = refresh(state, second, _service_config("minimizer"))
    assert state2.version == state.version + 1
    assert state2.scheme_id == state.scheme_id

    # Another scheme: splicing would mix seed streams, so the refresh
    # rebuilds from the empty state under the new scheme and re-tags —
    # the scratch run's state, field for field.
    for mode, tag in (("syncmer", f"syncmer:k={K},s={K - W + 1}"),
                      ("full", f"full:k={K}")):
        rebuilt = refresh(state, second, _service_config(mode))
        assert rebuilt.scheme_id == tag
        assert rebuilt.version == state.version + 1
        assert differing_fields(rebuilt, recompute(
            state, second, _service_config(mode))) == []


def test_server_rebuilds_cross_scheme(seeding_dataset):
    """A batch under a new scheme answers 200 and re-tags ``/stats``."""
    import json
    import threading
    import urllib.request

    from repro.seqs.dna import decode
    from repro.service import AssemblyService, make_server

    service = AssemblyService(ServiceConfig(
        pipeline=PipelineConfig(k=K, nprocs=4, kmer_upper=12, fuzz=60,
                                seed_mode="minimizer", seed_w=W)))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"

    def post_batch(lo, hi):
        sub = seeding_dataset.subset(np.arange(lo, hi))
        payload = {"reads": [{"name": n, "seq": decode(s)}
                             for n, s in zip(sub.names, sub.seqs)]}
        req = urllib.request.Request(
            f"{url}/reads", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())

    try:
        half = len(seeding_dataset) // 2
        status, body = post_batch(0, half)
        assert status == 200 and body["version"] == 1

        with urllib.request.urlopen(f"{url}/stats") as resp:
            stats = json.loads(resp.read())
        assert stats["scheme"] == f"minimizer:k={K},w={W}"

        # Flip the service's scheme under the live session: the next
        # ingest rebuilds the whole session under it.
        service.config = ServiceConfig(
            pipeline=PipelineConfig(k=K, nprocs=4, kmer_upper=12, fuzz=60,
                                    seed_mode="syncmer", seed_w=W))
        status, body = post_batch(half, len(seeding_dataset))
        assert status == 200 and body["version"] == 2
        assert body["counts"]["n_reads"] == len(seeding_dataset)

        with urllib.request.urlopen(f"{url}/stats") as resp:
            stats = json.loads(resp.read())
        assert stats["scheme"] == f"syncmer:k={K},s={K - W + 1}"
        assert stats["version"] == 2
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
