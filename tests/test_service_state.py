"""Session-store semantics: copy-on-write versions, commit discipline,
and the version-keyed query cache.
"""

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.service import (AssemblyState, QueryCache, ServiceConfig,
                           SessionStore, refresh)

K = 17
NPROCS = 4


@pytest.fixture(scope="module")
def small_reads():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=5_000, seed=3), depth=8,
                    mean_len=600, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=4))
    return reads


def _config() -> ServiceConfig:
    return ServiceConfig(pipeline=PipelineConfig(k=K, nprocs=NPROCS,
                                                 kmer_upper=12, fuzz=60))


def test_refresh_is_copy_on_write(small_reads):
    """A refresh never mutates the prior version's snapshot."""
    config = _config()
    half = len(small_reads) // 2
    v1 = refresh(AssemblyState.initial(),
                 small_reads.subset(np.arange(half)), config)
    held = {
        "n_reads": len(v1.reads),
        "hist_keys": v1.hist_keys.copy(),
        "hist_counts": v1.hist_counts.copy(),
        "occ_col": v1.occ_col.copy(),
        "key_ptr": v1.key_ptr.copy(),
        "key_occ": v1.key_occ.copy(),
        "R": (v1.R.row.copy(), v1.R.col.copy(), v1.R.vals.copy()),
        "S": (v1.S.row.copy(), v1.S.col.copy(), v1.S.vals.copy()),
        "contigs": [(tuple(c.reads), tuple(c.orientations))
                    for c in v1.contigs],
    }
    v2 = refresh(v1, small_reads.subset(np.arange(half, len(small_reads))),
                 config)
    assert v2.version == v1.version + 1
    assert len(v2.reads) == len(small_reads)
    # v1 is untouched: same read count, same arrays, same products.
    assert len(v1.reads) == held["n_reads"]
    assert np.array_equal(v1.hist_keys, held["hist_keys"])
    assert np.array_equal(v1.hist_counts, held["hist_counts"])
    for name in ("occ_col", "key_ptr", "key_occ"):
        assert np.array_equal(getattr(v1, name), held[name])
    for got, want in zip((v1.R.row, v1.R.col, v1.R.vals), held["R"]):
        assert np.array_equal(got, want)
    for got, want in zip((v1.S.row, v1.S.col, v1.S.vals), held["S"]):
        assert np.array_equal(got, want)
    assert [(tuple(c.reads), tuple(c.orientations))
            for c in v1.contigs] == held["contigs"]


def test_store_commit_discipline():
    store = SessionStore()
    assert store.current().version == 0
    from dataclasses import replace
    v1 = replace(AssemblyState.initial(), version=1)
    store.commit(v1)
    assert store.current() is v1
    # Committing the same version again (a racing refresh that started from
    # version 0) is rejected instead of silently dropping a batch.
    with pytest.raises(ValueError, match="stale commit"):
        store.commit(replace(AssemblyState.initial(), version=1))
    with pytest.raises(ValueError, match="stale commit"):
        store.commit(replace(AssemblyState.initial(), version=5))


def test_query_cache_lru_and_stats():
    cache = QueryCache(max_entries=2)
    k1 = cache.key("overlaps", {"read": 1}, version=1)
    k2 = cache.key("overlaps", {"read": 2}, version=1)
    k3 = cache.key("contigs", {}, version=1)
    assert cache.get(k1) is None          # miss
    cache.put(k1, "a")
    assert cache.get(k1) == "a"           # hit
    cache.put(k2, "b")
    cache.put(k3, "c")                    # evicts k1 (LRU)
    assert cache.get(k1) is None
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert stats["evictions"] == 1


def test_query_cache_version_invalidation():
    cache = QueryCache()
    old = cache.key("contigs", {}, version=3)
    new = cache.key("contigs", {}, version=4)
    cache.put(old, "stale")
    cache.put(new, "fresh")
    # The stale entry is unreachable under version-4 keys even before the
    # sweep; the sweep just frees its slot.
    assert cache.invalidate_stale(current_version=4) == 1
    assert cache.get(new) == "fresh"
    assert cache.stats()["invalidations"] == 1
    assert cache.stats()["entries"] == 1


def test_query_cache_key_param_order_independent():
    a = QueryCache.key("x", {"p": 1, "q": 2}, 7)
    b = QueryCache.key("x", {"q": 2, "p": 1}, 7)
    assert a == b
