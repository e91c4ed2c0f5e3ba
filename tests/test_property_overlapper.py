"""Property-based tests for overlap classification geometry.

Hypothesis places reads on a virtual genome with random positions, lengths
and strands; for every overlapping pair the classifier's output must be
consistent with the geometry: correct containment calls, end attachments
matching the strand/order table, suffix values equal to the coordinate
differences, and — for collinear triples — walk validity through the middle
read.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.overlapper import (B_END, E_END, classify_overlap,
                                    classify_overlap_batch)
from repro.align.xdrop import AlignmentResult


def _true_alignment(si, li, fi, sj, lj, fj):
    """Exact alignment coordinates for genome-placed reads i and j.

    Read i spans [si, si+li) with strand fi; similarly j.  Returns an
    AlignmentResult in the classifier's convention (coordinates on i and on
    the *oriented* j) or None if they don't overlap.
    """
    lo = max(si, sj)
    hi = min(si + li, sj + lj)
    if hi <= lo:
        return None
    strand = fi ^ fj
    # Region on read i (in i's stored orientation).
    if fi == 0:
        ba, ea = lo - si, hi - si
    else:
        ba, ea = si + li - hi, si + li - lo
    # The aligner orients j to match i's stored orientation, so j* is the
    # genome-forward segment iff fi == 0 — regardless of how j was stored.
    if fi == 0:
        bb, eb = lo - sj, hi - sj
    else:
        bb, eb = sj + lj - hi, sj + lj - lo
    return AlignmentResult(score=hi - lo, ba=ba, ea=ea, bb=bb, eb=eb,
                           strand=strand)


reads_strategy = st.tuples(
    st.integers(0, 500),      # start i
    st.integers(100, 400),    # len i
    st.integers(0, 1),        # strand i
    st.integers(0, 500),      # start j
    st.integers(100, 400),    # len j
    st.integers(0, 1),        # strand j
)


@settings(max_examples=300, deadline=None)
@given(reads_strategy)
def test_classification_matches_geometry(params):
    """Clean geometries (distinct endpoints, gap > fuzz) classify exactly.

    Reverse-strand pairs with tied endpoints leave unalignable 1-bp tips on
    both sides of the joint; those are legitimately 'internal' at small
    fuzz, so the property restricts itself to unambiguous placements.
    """
    si, li, fi, sj, lj, fj = params
    fuzz = 2
    # Require clearly distinct interval endpoints.
    if abs(si - sj) <= fuzz or abs((si + li) - (sj + lj)) <= fuzz:
        return
    aln = _true_alignment(si, li, fi, sj, lj, fj)
    if aln is None:
        return
    oc = classify_overlap(li, lj, aln, fuzz=fuzz)
    i_in_j = si >= sj and si + li <= sj + lj
    j_in_i = sj >= si and sj + lj <= si + li
    if i_in_j:
        assert oc.kind == "contained_i"
    elif j_in_i:
        assert oc.kind == "contained_j"
    else:
        assert oc.kind == "dovetail"
        # The two suffixes are the interval-endpoint differences (one per
        # walk direction), in some order.
        diffs = {abs((sj + lj) - (si + li)), abs(sj - si)}
        assert {int(oc.suffix_ij), int(oc.suffix_ji)} <= diffs


@settings(max_examples=300, deadline=None)
@given(reads_strategy)
def test_dovetail_end_attachments_follow_strand_table(params):
    si, li, fi, sj, lj, fj = params
    aln = _true_alignment(si, li, fi, sj, lj, fj)
    if aln is None:
        return
    oc = classify_overlap(li, lj, aln, fuzz=0)
    if oc.kind != "dovetail":
        return
    # In read i's oriented frame (i is "forward"), "i first" means i's
    # oriented start precedes j*'s: equivalently ba > bb.
    i_first = aln.ba >= aln.bb
    if i_first:
        assert oc.end_i == (E_END if fi == 0 else B_END) or fi == 1
    # Strand relation: same-strand pairs attach opposite end *types* at the
    # two reads; reverse-strand pairs attach the same end type.
    if aln.strand == 0:
        assert oc.end_i != oc.end_j
    else:
        assert oc.end_i == oc.end_j


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 200), st.integers(60, 150), st.integers(0, 1),
       st.integers(30, 90), st.integers(0, 1), st.integers(30, 90),
       st.integers(0, 1))
def test_collinear_triple_walkable(s0, length, f0, gap1, f1, gap2, f2):
    """Three overlapping collinear reads: the classified edges (0,1) and
    (1,2) must form a valid walk through read 1 (opposite attachments)."""
    li = length * 2
    s1 = s0 + gap1
    s2 = s1 + gap2
    # Ensure pairwise overlap.
    if s2 + 10 >= s0 + li:
        return
    placements = [(s0, li, f0), (s1, li, f1), (s2, li, f2)]

    def edge(a, b):
        sa, la, fa = placements[a]
        sb, lb, fb = placements[b]
        aln = _true_alignment(sa, la, fa, sb, lb, fb)
        oc = classify_overlap(la, lb, aln, fuzz=0)
        return oc

    e01 = edge(0, 1)
    e12 = edge(1, 2)
    if e01.kind != "dovetail" or e12.kind != "dovetail":
        return
    # end of edge (0,1) at read 1 is e01.end_j; edge (1,2) leaves read 1
    # via e12.end_i: a genome-collinear chain must attach at opposite ends.
    assert e01.end_j != e12.end_i


# -- batch classifier parity --------------------------------------------------

def _batch_kinds(rows, fuzz):
    """``classify_overlap_batch`` over ``(len_i, len_j, ba, ea, bb, eb,
    strand)`` rows: per-row kind names plus the raw output columns."""
    cols = [np.array(c, dtype=np.int64) for c in zip(*rows)]
    out = classify_overlap_batch(*cols, fuzz)
    dove, in_i, in_j = out[:3]
    assert not ((dove & in_i) | (dove & in_j) | (in_i & in_j)).any()
    kinds = np.where(dove, "dovetail", np.where(
        in_i, "contained_i", np.where(in_j, "contained_j", "internal")))
    return kinds.tolist(), out


def _assert_batch_matches_scalar(rows, fuzz):
    kinds, (_d, _i, _j, suffix_ij, suffix_ji, end_i, end_j, olen) = \
        _batch_kinds(rows, fuzz)
    for t, (li, lj, ba, ea, bb, eb, strand) in enumerate(rows):
        oc = classify_overlap(li, lj, AlignmentResult(0, ba, ea, bb, eb,
                                                      strand), fuzz)
        assert kinds[t] == oc.kind
        assert olen[t] == oc.overlap_len
        if oc.kind == "dovetail":
            assert (suffix_ij[t], suffix_ji[t], end_i[t], end_j[t]) == \
                (oc.suffix_ij, oc.suffix_ji, oc.end_i, oc.end_j)


#: One row per kind, and the two mutual-containment tie-breaks: equal
#: lengths make read i the contained one, otherwise the shorter read is.
KIND_CASES = [
    ((100, 120, 60, 100, 0, 40, 0), "dovetail"),
    ((100, 300, 0, 100, 50, 150, 1), "contained_i"),
    ((300, 100, 50, 150, 0, 100, 0), "contained_j"),
    ((300, 300, 50, 150, 120, 220, 0), "internal"),
    ((100, 100, 0, 100, 0, 100, 0), "contained_i"),
    ((100, 100, 2, 99, 1, 100, 1), "contained_i"),
    ((102, 100, 1, 101, 0, 100, 0), "contained_j"),
    ((100, 102, 0, 100, 1, 101, 1), "contained_i"),
]


@pytest.mark.parametrize("row,kind", KIND_CASES)
def test_batch_classifier_kinds_pinned(row, kind):
    assert _batch_kinds([row], fuzz=5)[0] == [kind]
    _assert_batch_matches_scalar([row], fuzz=5)


alignment_rows = st.tuples(
    st.integers(60, 200),     # len_i
    st.booleans(),            # equal lengths (mutual containment ties)
    st.integers(60, 200),     # len_j otherwise
    st.integers(0, 30), st.integers(0, 30),   # unaligned tips of i
    st.integers(0, 30), st.integers(0, 30),   # unaligned tips of oriented j
    st.integers(0, 1),        # strand
).map(lambda r: (r[0], r[0] if r[1] else r[2], r[3], r[0] - r[4], r[5],
                 (r[0] if r[1] else r[2]) - r[6], r[7]))


@settings(max_examples=300, deadline=None)
@given(st.lists(alignment_rows, min_size=1, max_size=24),
       st.integers(0, 20))
def test_batch_classifier_matches_scalar(rows, fuzz):
    """Every kind — dovetail, contained_i, contained_j, internal — and
    every dovetail payload column agree with the scalar rule, row by row.
    Tips up to 30 against fuzz up to 20 reach all four kinds, and half the
    rows have equal lengths, where mutual containment picks read i."""
    _assert_batch_matches_scalar(rows, fuzz)
