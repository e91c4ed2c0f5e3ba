"""Tests for overlap classification (dovetail/contained, ends, suffixes)."""

import pytest

from repro.align.overlapper import B_END, E_END

from oracles.align_loop import AlignmentResult, classify_overlap


def _aln(ba, ea, bb, eb, strand=0, score=100):
    return AlignmentResult(score=score, ba=ba, ea=ea, bb=bb, eb=eb,
                           strand=strand)


def test_forward_forward_i_first():
    # i: [0, 100), j: [60, 180) on the genome; overlap 40.
    # On i: aligned [60, 100); on j: [0, 40).
    oc = classify_overlap(100, 120, _aln(60, 100, 0, 40), fuzz=5)
    assert oc.kind == "dovetail"
    assert oc.end_i == E_END and oc.end_j == B_END
    assert oc.suffix_ij == 80   # part of j beyond the overlap
    assert oc.suffix_ji == 60   # prefix of i before the overlap


def test_forward_forward_j_first():
    # j: [0, 120), i: [80, 180): aligned on i [0, 40), on j [80, 120).
    oc = classify_overlap(100, 120, _aln(0, 40, 80, 120), fuzz=5)
    assert oc.kind == "dovetail"
    assert oc.end_i == B_END and oc.end_j == E_END
    assert oc.suffix_ij == 80
    assert oc.suffix_ji == 60


def test_reverse_complement_i_first():
    # Same geometry as i-first but j aligned in reverse orientation.
    oc = classify_overlap(100, 120, _aln(60, 100, 0, 40, strand=1), fuzz=5)
    assert oc.kind == "dovetail"
    assert oc.end_i == E_END and oc.end_j == E_END


def test_reverse_complement_j_first():
    oc = classify_overlap(100, 120, _aln(0, 40, 80, 120, strand=1), fuzz=5)
    assert oc.kind == "dovetail"
    assert oc.end_i == B_END and oc.end_j == B_END


def test_contained_i():
    # i fully aligned inside j.
    oc = classify_overlap(100, 300, _aln(0, 100, 50, 150), fuzz=5)
    assert oc.kind == "contained_i"


def test_contained_j():
    oc = classify_overlap(300, 100, _aln(50, 150, 0, 100), fuzz=5)
    assert oc.kind == "contained_j"


def test_near_equal_reads_shorter_contained():
    oc = classify_overlap(100, 102, _aln(0, 100, 1, 101), fuzz=5)
    assert oc.kind == "contained_i"


def test_internal_alignment_rejected():
    # Alignment stops mid-read on both i's right and j's left: not a
    # dovetail (likely a repeat-induced false overlap).
    oc = classify_overlap(300, 300, _aln(50, 150, 120, 220), fuzz=5)
    assert oc.kind == "internal"


def test_fuzz_tolerates_ragged_tips():
    # i-first dovetail but with 3 unaligned bases at the joint tips.
    oc = classify_overlap(100, 120, _aln(60, 97, 3, 40), fuzz=5)
    assert oc.kind == "dovetail"
    assert oc.end_i == E_END and oc.end_j == B_END


def test_suffix_never_below_one():
    # Degenerate near-equal spans still yield positive suffixes.
    oc = classify_overlap(100, 100, _aln(1, 100, 0, 99), fuzz=5)
    if oc.kind == "dovetail":
        assert oc.suffix_ij >= 1 and oc.suffix_ji >= 1


def test_suffix_additivity_three_collinear_reads():
    """suffix(i→k) + suffix(k→j) == suffix(i→j) for error-free collinear
    reads — the invariant the MinPlus transitivity test relies on."""
    # Reads i=[0,100), k=[40,140), j=[80,180); all forward, length 100.
    def dovetail(si, sj):
        # overlap [max(si,sj), min(si,sj)+100)
        lo = max(si, sj)
        hi = min(si, sj) + 100
        return _aln(lo - si, hi - si, lo - sj, hi - sj)

    ik = classify_overlap(100, 100, dovetail(0, 40), fuzz=5)
    kj = classify_overlap(100, 100, dovetail(40, 80), fuzz=5)
    ij = classify_overlap(100, 100, dovetail(0, 80), fuzz=5)
    assert ik.suffix_ij + kj.suffix_ij == ij.suffix_ij
    assert kj.suffix_ji + ik.suffix_ji == ij.suffix_ji
