"""Overlap classification: alignments → bidirected string-graph edges.

Given a pairwise alignment of reads *i* and *j* (coordinates on *i* and on
the *oriented* *j*), this module derives everything the transitive reduction
needs (paper Sections II and IV-E):

* the **overlap class** — dovetail (one of the four types of Fig. 1) or
  contained (one read's aligned region spans the whole read);
* the **overhang (suffix) lengths** in both walk directions;
* the **end attachments**: which end (Begin=0 / End=1) of each read the edge
  attaches to.  This encodes the bidirected heads of Fig. 1: a walk may pass
  through a read only by entering at one attachment end and leaving via an
  edge attached at the *other* end, which is exactly the paper's
  "heads next to the middle node have opposite orientation" rule.

End-attachment map (derived in DESIGN.md §5):

=========================  =========  =========
overlap                    end_i      end_j
=========================  =========  =========
fwd-fwd, i first           E (1)      B (0)
fwd-fwd, j first           B (0)      E (1)
fwd-rc,  i first           E (1)      E (1)
fwd-rc,  j first (rc-fwd)  B (0)      B (0)
=========================  =========  =========
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .xdrop import AlignmentResult

__all__ = ["OverlapClass", "classify_overlap", "classify_overlap_batch"]

B_END = 0
E_END = 1


@dataclass
class OverlapClass:
    """Classified overlap between reads *i* and *j*.

    Attributes
    ----------
    kind:
        ``"dovetail"``, ``"contained_i"``, ``"contained_j"`` or ``"internal"``
        (an alignment that stops mid-read on both sides — a false or broken
        overlap that the pipeline discards).
    suffix_ij / suffix_ji:
        Overhang length walking i→j and j→i (valid for dovetails).
    end_i / end_j:
        End attachments (0 = Begin, 1 = End) of the edge at *i* and *j*.
    overlap_len:
        Aligned span on read *i* (proxy for overlap length).
    """

    kind: str
    suffix_ij: int = 0
    suffix_ji: int = 0
    end_i: int = 0
    end_j: int = 0
    overlap_len: int = 0


def classify_overlap(len_i: int, len_j: int, aln: AlignmentResult,
                     fuzz: int = 100) -> OverlapClass:
    """Classify an alignment into a dovetail/contained/internal overlap.

    ``aln`` coordinates refer to read *i* (``ba..ea``) and the *oriented*
    read *j* (``bb..eb``; already reverse-complemented when
    ``aln.strand == 1``).  ``fuzz`` tolerates unaligned read tips caused by
    sequencing errors (same role as the paper's scalar ``x``).
    """
    left_i = aln.ba
    right_i = len_i - aln.ea
    left_j = aln.bb
    right_j = len_j - aln.eb
    overlap_len = aln.ea - aln.ba

    i_contained = left_i <= fuzz and right_i <= fuzz
    j_contained = left_j <= fuzz and right_j <= fuzz
    if i_contained and j_contained:
        # Near-equal reads: call the shorter one contained.
        if len_i <= len_j:
            return OverlapClass("contained_i", overlap_len=overlap_len)
        return OverlapClass("contained_j", overlap_len=overlap_len)
    if i_contained:
        return OverlapClass("contained_i", overlap_len=overlap_len)
    if j_contained:
        return OverlapClass("contained_j", overlap_len=overlap_len)

    if left_i >= left_j and right_j >= right_i:
        # i sticks out left, oriented-j sticks out right: i comes first.
        if left_j > fuzz or right_i > fuzz:
            return OverlapClass("internal", overlap_len=overlap_len)
        suffix_ij = max(1, right_j - right_i)
        suffix_ji = max(1, left_i - left_j)
        end_i = E_END
        end_j = B_END if aln.strand == 0 else E_END
        return OverlapClass("dovetail", suffix_ij, suffix_ji, end_i, end_j,
                            overlap_len)
    if left_j >= left_i and right_i >= right_j:
        # Oriented-j comes first.
        if left_i > fuzz or right_j > fuzz:
            return OverlapClass("internal", overlap_len=overlap_len)
        suffix_ij = max(1, left_j - left_i)
        suffix_ji = max(1, right_i - right_j)
        end_i = B_END
        end_j = E_END if aln.strand == 0 else B_END
        return OverlapClass("dovetail", suffix_ij, suffix_ji, end_i, end_j,
                            overlap_len)
    return OverlapClass("internal", overlap_len=overlap_len)


def classify_overlap_batch(len_i: np.ndarray, len_j: np.ndarray,
                           ba: np.ndarray, ea: np.ndarray, bb: np.ndarray,
                           eb: np.ndarray, strand: np.ndarray, fuzz: int
                           ) -> tuple[np.ndarray, ...]:
    """Vectorized :func:`classify_overlap` over alignment-coordinate columns.

    Same decision tree as the scalar version — containment first (the
    shorter read is the contained one when each covers the other, ``i`` on
    equal lengths), then the two dovetail orderings with the ``i sticks out
    left`` branch taking precedence on ties — evaluated as pure column
    operations.  Returns ``(dovetail, contained_i, contained_j, suffix_ij,
    suffix_ji, end_i, end_j, overlap_len)`` arrays: the three kind columns
    are disjoint (a row in none of them is ``"internal"``), and the
    suffix/end columns are only meaningful where ``dovetail`` is true.
    """
    left_i = ba
    right_i = len_i - ea
    left_j = bb
    right_j = len_j - eb
    overlap_len = ea - ba

    i_covered = (left_i <= fuzz) & (right_i <= fuzz)
    j_covered = (left_j <= fuzz) & (right_j <= fuzz)
    contained_i = i_covered & (~j_covered | (len_i <= len_j))
    contained_j = j_covered & ~contained_i
    contained = i_covered | j_covered
    first_i = ~contained & (left_i >= left_j) & (right_j >= right_i)
    dove_i = first_i & ~((left_j > fuzz) | (right_i > fuzz))
    first_j = ~contained & ~first_i & (left_j >= left_i) & \
        (right_i >= right_j)
    dove_j = first_j & ~((left_i > fuzz) | (right_j > fuzz))
    dovetail = dove_i | dove_j

    one = np.int64(1)
    suffix_ij = np.where(dove_i, np.maximum(one, right_j - right_i),
                         np.maximum(one, left_j - left_i))
    suffix_ji = np.where(dove_i, np.maximum(one, left_i - left_j),
                         np.maximum(one, right_i - right_j))
    end_i = np.where(dove_i, np.int64(E_END), np.int64(B_END))
    end_j = np.where(strand == 0,
                     np.where(dove_i, np.int64(B_END), np.int64(E_END)),
                     np.where(dove_i, np.int64(E_END), np.int64(B_END)))
    return (dovetail, contained_i, contained_j, suffix_ij, suffix_ji, end_i,
            end_j, overlap_len)
