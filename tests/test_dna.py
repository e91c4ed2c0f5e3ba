"""Unit tests for DNA primitives (encode/decode, revcomp, genomes)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.seqs.dna import (GenomeSpec, decode, encode, random_genome,
                            revcomp_codes)

from oracles.kmers import canonical, revcomp

dna_strings = st.text(alphabet="ACGT", min_size=0, max_size=200)


def test_encode_decode_roundtrip():
    s = "ACGTACGTTTGGCA"
    assert decode(encode(s)) == s


def test_encode_lowercase():
    assert decode(encode("acgt")) == "ACGT"


def test_encode_n_replacement_deterministic_without_rng():
    codes = encode("ANNA")
    assert decode(codes) == "AAAA"


def test_encode_n_replacement_with_rng():
    rng = np.random.default_rng(0)
    codes = encode("N" * 100, rng)
    # Random fill should produce a mix of bases, not all A.
    assert len(set(codes.tolist())) > 1


def test_revcomp_known():
    assert revcomp("ATTCG") == "CGAAT"  # the paper's Section II example


def test_revcomp_codes_matches_string():
    s = "ACGGTTAC"
    assert decode(revcomp_codes(encode(s))) == revcomp(s)


@given(dna_strings)
def test_revcomp_involution(s):
    assert revcomp(revcomp(s)) == s


@given(dna_strings)
def test_canonical_idempotent_and_minimal(s):
    c = canonical(s)
    assert c == canonical(c)
    assert c <= s and c <= revcomp(s)
    assert c in (s, revcomp(s))


def test_canonical_example():
    # v = ATTCG with revcomp CGAAT: canonical is ATTCG (paper Section II).
    assert canonical("ATTCG") == "ATTCG"


def test_random_genome_length_and_alphabet():
    g = random_genome(GenomeSpec(length=1000, seed=1))
    assert g.shape == (1000,)
    assert g.min() >= 0 and g.max() <= 3


def test_random_genome_deterministic():
    a = random_genome(GenomeSpec(length=500, seed=7))
    b = random_genome(GenomeSpec(length=500, seed=7))
    assert np.array_equal(a, b)


def test_random_genome_repeats_increase_duplicate_kmers():
    from oracles.kmers import canonical_kmers, pack_kmers
    plain = random_genome(GenomeSpec(length=20_000, seed=2))
    repeated = random_genome(GenomeSpec(length=20_000, n_repeats=10,
                                        repeat_len=2_000, seed=2))
    k = 21

    def dup_fraction(g):
        km = canonical_kmers(pack_kmers(g, k), k)
        _, counts = np.unique(km, return_counts=True)
        return (counts > 1).sum() / counts.shape[0]

    assert dup_fraction(repeated) > dup_fraction(plain)


def test_genome_spec_validation():
    with pytest.raises(ValueError):
        GenomeSpec(length=0)
    with pytest.raises(ValueError):
        GenomeSpec(length=100, n_repeats=1, repeat_len=0)
    with pytest.raises(ValueError):
        GenomeSpec(length=100, n_repeats=1, repeat_len=101)
