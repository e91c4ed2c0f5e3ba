"""Tests for the per-pair x-drop reference (greedy LV engine vs the exact
DP), the engine the batched sweep is pinned against."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.xdrop import Scoring
from repro.seqs.dna import encode

from oracles.align_loop import chain_extend, seed_extend_align, xdrop_extend
from oracles.kmers import revcomp
from oracles.xdrop_dp import xdrop_extend_dp

SC = Scoring()


@pytest.mark.parametrize("field,value", [("match", -1), ("mismatch", 1),
                                         ("gap", 2), ("xdrop", -1)])
def test_scoring_refuses_a_scheme_outside_the_greedy_domain(field, value):
    """The greedy engines need match >= 0 >= mismatch, gap and xdrop >= 0;
    a scheme outside that is refused by the field's name and value."""
    with pytest.raises(ValueError, match=rf"Scoring\.{field} = {value} "):
        Scoring(**{field: value})


def test_identical_sequences_full_extension():
    s = encode("ACGTACGTACGTACGT")
    score, ei, ej = xdrop_extend(s, s, SC)
    assert (score, ei, ej) == (16, 16, 16)


def test_empty_inputs():
    s = encode("ACGT")
    assert xdrop_extend(s, encode(""), SC) == (0, 0, 0)
    assert xdrop_extend(encode(""), s, SC) == (0, 0, 0)


def test_single_mismatch_mid():
    s = encode("AAAAAAAAAA")
    t = encode("AAAAACAAAA")
    score, ei, ej = xdrop_extend(s, t, SC)
    assert score == 8  # 9 matches - 1 mismatch
    assert ei == 10 and ej == 10


def test_single_insertion():
    s = encode("AAAATTTT")
    t = encode("AAAAGTTTT")  # one inserted G
    score, ei, ej = xdrop_extend(s, t, SC)
    assert score == 7  # 8 matches - 1 gap
    assert (ei, ej) == (8, 9)


def test_xdrop_stops_on_divergence():
    # After a matching prefix the sequences become unrelated: the reported
    # best must be (approximately) the prefix score.  With the permissive
    # 1/-1/-1 scheme, 25%-identity random DNA sits near the x-drop
    # percolation threshold, so use the stricter penalties (as BLAST does)
    # to assert early termination of the scan.
    rng = np.random.default_rng(0)
    prefix = rng.integers(0, 4, 40).astype(np.uint8)
    s = np.concatenate([prefix, rng.integers(0, 4, 200).astype(np.uint8)])
    t = np.concatenate([prefix, rng.integers(0, 4, 200).astype(np.uint8)])
    sc = Scoring(mismatch=-2, gap=-2, xdrop=20)
    score, ei, ej = xdrop_extend(s, t, sc)
    assert 30 <= score <= 60
    score_dp, ei_dp, _ = xdrop_extend_dp(s, t, sc)
    assert 30 <= score_dp <= 60
    assert ei_dp < 150  # the exact DP band dies in the random tail
    assert ei < 150     # so does the greedy engine


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 6))
def test_property_lv_close_to_exact_dp(seed, n_mut):
    """The greedy engine's score is within a small additive gap of exact DP
    and never exceeds it by more than the gap (both are admissible
    heuristics of the same objective)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=50).astype(np.uint8)
    b = a.copy()
    for _ in range(n_mut):
        p = int(rng.integers(0, 50))
        b[p] = (b[p] + int(rng.integers(1, 4))) % 4
    f = xdrop_extend(a, b, SC)
    d = xdrop_extend_dp(a, b, SC)
    assert abs(f[0] - d[0]) <= 2


def test_seed_extend_align_forward():
    genome = np.random.default_rng(1).integers(0, 4, 500).astype(np.uint8)
    a = genome[0:300]
    b = genome[200:500]
    # Shared k-mer at a[210], which is b[10].
    res = seed_extend_align(a, b, 210, 10, 17, strand=0)
    assert res.score >= 95
    assert res.ba <= 205 and res.ea >= 295
    assert res.bb <= 5 and res.eb >= 95


def test_seed_extend_align_revcomp():
    from repro.seqs.dna import revcomp_codes
    genome = np.random.default_rng(2).integers(0, 4, 400).astype(np.uint8)
    a = genome[0:250]
    b = revcomp_codes(genome[150:400])  # b is the reverse strand
    # Shared 17-mer: a[200:217] == genome[200:217]; within b (forward form)
    # it sits at revcomp position: b_fwd = revcomp(b) = genome[150:400], so
    # the k-mer's position on the *forward* b is 200-150 = 50.
    res = seed_extend_align(a, b, 200, b.shape[0] - 17 - 50, 17, strand=1)
    assert res.strand == 1
    assert res.score >= 90


def test_chain_extend_projects_to_ends():
    res = chain_extend(a_len=300, b_len=300, seed_a=210, seed_b=10, k=17,
                       strand=0)
    assert res.ba == 200 and res.bb == 0
    assert res.ea == 300 and res.eb == 100
    assert res.score > 0


def test_chain_extend_strand_mapping():
    res = chain_extend(a_len=100, b_len=100, seed_a=50,
                       seed_b=100 - 17 - 50, k=17, strand=1)
    # After mapping, the oriented-b seed is at 50 = seed_a: full co-linear.
    assert res.ba == 0 and res.bb == 0
    assert res.ea == 100 and res.eb == 100
