"""Unit tests for packed k-mer extraction, revcomp and hashing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.seqs.dna import encode
from repro.seqs.kmers import splitmix64

from oracles.kmers import (canonical_kmers, kmer_to_string, pack_kmers,
                           read_kmers, revcomp, revcomp_kmers, string_to_kmer)

dna_strings = st.text(alphabet="ACGT", min_size=1, max_size=120)
ks = st.integers(min_value=1, max_value=31)


def test_pack_kmers_simple():
    codes = encode("ACGT")
    km = pack_kmers(codes, 2)
    assert [kmer_to_string(v, 2) for v in km] == ["AC", "CG", "GT"]


def test_pack_kmers_short_read():
    assert pack_kmers(encode("ACG"), 5).shape == (0,)


def test_pack_matches_string_to_kmer():
    s = "ACGTTGCAAC"
    km = pack_kmers(encode(s), 4)
    for i in range(len(s) - 3):
        assert int(km[i]) == string_to_kmer(s[i:i + 4])


@given(dna_strings, ks)
def test_pack_window_count(s, k):
    km = pack_kmers(encode(s), k)
    assert km.shape[0] == max(0, len(s) - k + 1)


@given(st.text(alphabet="ACGT", min_size=5, max_size=31))
def test_revcomp_kmers_matches_string_revcomp(s):
    k = len(s)
    km = np.array([string_to_kmer(s)], dtype=np.uint64)
    rc = revcomp_kmers(km, k)
    assert kmer_to_string(int(rc[0]), k) == revcomp(s)


@given(st.text(alphabet="ACGT", min_size=3, max_size=31))
def test_revcomp_kmers_involution(s):
    k = len(s)
    km = np.array([string_to_kmer(s)], dtype=np.uint64)
    assert int(revcomp_kmers(revcomp_kmers(km, k), k)[0]) == int(km[0])


@given(st.text(alphabet="ACGT", min_size=3, max_size=31))
def test_canonical_packed_matches_string_canonical(s):
    from oracles.kmers import canonical as str_canonical
    k = len(s)
    km = np.array([string_to_kmer(s)], dtype=np.uint64)
    can = canonical_kmers(km, k)
    assert kmer_to_string(int(can[0]), k) == str_canonical(s)


def test_read_kmers_positions():
    km, pos = read_kmers(encode("ACGTAC"), 3, canonical=False)
    assert np.array_equal(pos, np.arange(4))
    assert kmer_to_string(int(km[0]), 3) == "ACG"


def test_read_kmers_canonical_invariant_under_revcomp():
    """A read and its reverse complement share the same canonical k-mer set."""
    s = "ACGTTGCAACCGGTATAT"
    k = 5
    km_f, _ = read_kmers(encode(s), k)
    km_r, _ = read_kmers(encode(revcomp(s)), k)
    assert set(km_f.tolist()) == set(km_r.tolist())


def test_k_bounds():
    with pytest.raises(ValueError):
        pack_kmers(encode("ACGT"), 0)
    with pytest.raises(ValueError):
        pack_kmers(encode("ACGT"), 32)


def test_splitmix64_deterministic_and_spread():
    x = np.arange(1000, dtype=np.uint64)
    h1, h2 = splitmix64(x), splitmix64(x)
    assert np.array_equal(h1, h2)
    assert np.unique(h1).shape[0] == 1000
    # Rough uniformity: destination buckets over 8 ranks all populated.
    buckets = np.bincount((h1 % np.uint64(8)).astype(int), minlength=8)
    assert buckets.min() > 0
