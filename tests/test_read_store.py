"""Out-of-core read store: mmap backend ≡ in-memory ReadSet, everywhere.

The contract: ``read_store="mmap"`` is a pure memory axis.  SoA views,
block slices, per-read access, pickling across process workers, strip
checkpointing, and the full pipeline must be byte-identical to the
in-memory backend — only the residency of the bases changes.
"""

import os
import pickle

import numpy as np
import pytest

from repro import PipelineConfig, run_pipeline
from repro.exec.executor import ProcessExecutor
from repro.seqs import (MmapReadStore, ReadSet, StoreMismatch,
                        content_digest, read_fasta, read_fasta_to_store,
                        write_fasta)
from repro.seqs.dna import encode


def _toy_reads():
    return ReadSet(["r0", "r1", "r2", "r3"],
                   [encode("ACGTACGTAATTGGCC"), encode("TTTTGGGGCCCCAAAA"),
                    encode("ACGT"), encode("GGGGGGGGGGGGGGGGGGGGGGGG")])


@pytest.fixture()
def stored(tmp_path):
    inmem = _toy_reads()
    return inmem, inmem.to_store(str(tmp_path / "store"))


# -- equivalence with the in-memory backend ---------------------------------

def test_store_soa_matches_inmem(stored):
    inmem, rs = stored
    for a, b in zip(inmem.soa(), rs.soa()):
        assert np.array_equal(a, b)
    assert rs.names == inmem.names
    assert len(rs) == len(inmem)
    assert rs.total_bases() == inmem.total_bases()


def test_store_soa_block_rebases_like_inmem(stored):
    inmem, rs = stored
    for lo, hi in ((0, 4), (1, 3), (2, 2), (0, 1), (3, 4)):
        got = rs.soa_block(lo, hi)
        want = inmem.soa_block(lo, hi)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        if hi > lo:
            assert got[1][0] == 0  # offsets rebased to the block


def test_store_per_read_views(stored):
    inmem, rs = stored
    assert len(rs.seqs) == len(inmem.seqs)
    for a, b in zip(rs.seqs, inmem.seqs):
        assert np.array_equal(np.asarray(a), b)
    assert np.array_equal(np.asarray(rs.seqs[2]), inmem.seqs[2])
    # The set is the store's maps: the same arrays on every call, and each
    # read a view into the mapped code buffer.
    assert all(x is y for x, y in zip(rs.soa(), rs.soa()))
    assert all(x is y for x, y in zip(rs.soa(), rs.store.arrays()))
    assert np.shares_memory(rs[1], rs.soa()[0])


def test_store_fingerprint_matches_inmem(stored):
    inmem, rs = stored
    assert rs.content_fingerprint() == inmem.content_fingerprint()
    codes, _offsets, lengths = inmem.soa()
    assert rs.store.fingerprint == content_digest(codes, lengths)


def test_empty_store_roundtrip(tmp_path):
    empty = ReadSet([], [])
    rs = empty.to_store(str(tmp_path / "empty"))
    assert len(rs) == 0
    codes, offsets, lengths = rs.soa()
    assert codes.shape == (0,) and offsets.shape == (0,)
    rs.store.verify()


def test_read_fasta_to_store_matches_read_fasta(tmp_path):
    inmem = _toy_reads()
    fa = tmp_path / "reads.fa"
    write_fasta(fa, inmem, width=7)
    direct = read_fasta(fa)
    stored = read_fasta_to_store(fa, str(tmp_path / "store"))
    assert stored.names == direct.names
    for a, b in zip(stored.soa(), direct.soa()):
        assert np.array_equal(a, b)
    assert stored.content_fingerprint() == direct.content_fingerprint()


# -- pickling / process fan-out ----------------------------------------------

def _block_checksum(ctx, span):
    reads = ctx
    lo, hi = span
    codes, offsets, lengths = reads.soa_block(lo, hi)
    return int(codes.sum()) + int(lengths.sum())


def test_store_pickle_roundtrip(stored):
    inmem, rs = stored
    back = pickle.loads(pickle.dumps(rs))
    assert back.names == inmem.names
    for a, b in zip(back.soa(), inmem.soa()):
        assert np.array_equal(a, b)
    assert back.store is not None
    # The pickle payload carries the names and the path, not the bases.
    assert len(pickle.dumps(rs)) < 4096


def test_store_pickles_across_process_workers(stored):
    inmem, rs = stored
    spans = [(0, 2), (2, 4)]
    with ProcessExecutor(2) as ex:
        got = ex.run(_block_checksum, spans, context=rs)
        want = [_block_checksum(inmem, s) for s in spans]
    assert got == want


def test_stale_store_unpickle_refused(tmp_path):
    rs = _toy_reads().to_store(str(tmp_path / "store"))
    payload = pickle.dumps(rs.store)
    # Rewrite the directory with different content after pickling.
    other = ReadSet(["z"], [encode("TTTT")])
    MmapReadStore.create(str(tmp_path / "store"), other.seqs)
    with pytest.raises(StoreMismatch, match="rewritten"):
        pickle.loads(payload)


def test_verify_detects_tampering(tmp_path):
    rs = _toy_reads().to_store(str(tmp_path / "store"))
    rs.store.verify()  # pristine store passes
    path = os.path.join(rs.store.directory, "codes.bin")
    data = bytearray(open(path, "rb").read())
    data[0] ^= 1
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(StoreMismatch, match="content hash"):
        MmapReadStore(rs.store.directory).verify()


def test_torn_store_refused(tmp_path):
    rs = _toy_reads().to_store(str(tmp_path / "store"))
    path = os.path.join(rs.store.directory, "codes.bin")
    with open(path, "ab") as fh:
        fh.write(b"\0")  # size no longer matches the manifest
    with pytest.raises(StoreMismatch, match="stale or torn"):
        MmapReadStore(rs.store.directory)
    with pytest.raises(StoreMismatch, match="missing"):
        MmapReadStore(str(tmp_path / "nowhere"))


# -- pipeline parity ----------------------------------------------------------

def _cfg(**kw):
    base = dict(k=17, nprocs=4, align_mode="chain", depth_hint=12,
                error_hint=0.0, fuzz=20)
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def inmem_reference(clean_dataset):
    _genome, reads, _layout = clean_dataset
    return run_pipeline(reads, _cfg())


def _assert_identical(res, ref):
    assert np.array_equal(res.S.row, ref.S.row)
    assert np.array_equal(res.S.col, ref.S.col)
    assert np.array_equal(res.S.vals, ref.S.vals)
    assert res.n_kmers == ref.n_kmers
    assert res.tracker.summary() == ref.tracker.summary()


@pytest.mark.parametrize("executor,workers",
                         [("serial", 1), ("process", 2)])
def test_pipeline_mmap_store_byte_identical(clean_dataset, inmem_reference,
                                            tmp_path, executor, workers):
    _genome, reads, _layout = clean_dataset
    res = run_pipeline(reads, _cfg(read_store="mmap",
                                   store_dir=str(tmp_path),
                                   executor=executor, workers=workers))
    assert res.config.read_store == "mmap"
    _assert_identical(res, inmem_reference)
    # The store was built where we asked.
    assert os.path.exists(tmp_path / "reads" / "store.json")


def test_pipeline_mmap_with_memory_budget(clean_dataset, inmem_reference):
    """mmap store + budget (spillable tables + strip-mining) together
    still reproduce the unconstrained run byte-for-byte."""
    _genome, reads, _layout = clean_dataset
    res = run_pipeline(reads, _cfg(read_store="mmap",
                                   overlap_mode="blocked",
                                   memory_budget=1 << 20))
    assert res.config.read_store == "mmap"
    assert np.array_equal(res.S.vals, inmem_reference.S.vals)
    assert np.array_equal(res.S.row, inmem_reference.S.row)
    assert res.n_kmers == inmem_reference.n_kmers


def test_pipeline_auto_uses_env(clean_dataset, monkeypatch, tmp_path):
    _genome, reads, _layout = clean_dataset
    monkeypatch.setenv("REPRO_READ_STORE", "mmap")
    res = run_pipeline(reads, _cfg(store_dir=str(tmp_path)))
    assert res.config.read_store == "mmap"
    assert os.path.exists(tmp_path / "reads" / "store.json")
