"""The paper's custom semirings.

Two semirings drive diBELLA 2D (Algorithms 1 and 3):

* :class:`PositionsSemiring` — overloads SpGEMM for ``C = A·Aᵀ``: multiply
  pairs the positions of a shared k-mer in the two reads (plus the relative
  strand derived from the canonical-form flip bits), and add counts common
  k-mers while concatenating up to two seed position pairs (the paper stores
  two positions per read pair, Section IV-D).
* :class:`BidirectedMinPlus` — the MinPlus semiring of Algorithm 3 for
  ``N = R²``: multiply sums overhang suffixes **only for valid bidirected
  walks** (the two heads at the middle node must attach to opposite read
  ends, otherwise the product is the semiring identity, i.e. dropped), and
  add takes the minimum.  The output keeps the minimum **per (end_i, end_j)
  orientation slot** because the transitive-edge test must compare paths
  against the direct edge *with matching end orientations* (transitivity
  rules (b) and (c) in Section II).

Value field layouts (all ``int64``):

=====================  =============================================
matrix                 fields
=====================  =============================================
``A`` (reads×k-mers)   ``[pos, flipped]``
``C`` (candidates)     ``[count, pA1, pB1, strand1, pA2, pB2, strand2]``
``R``/``S`` (overlap)  ``[suffix, end_i, end_j, overlap_len]``
``R``/``S`` (contain)  ``[R_CONTAINED | R_CONTAINS, R_NO_END, R_NO_END, overlap_len]``
``N`` (two-hop)        ``[min_suffix[slot] for slot in (B,B),(B,E),(E,B),(E,E)]``
=====================  =============================================

A containment pair keeps both directed entries in ``R``: ``(i, j)`` marked
``R_CONTAINED`` (read i lies inside read j) and ``(j, i)`` marked
``R_CONTAINS``.  Dovetail suffixes are at least 1, so a negative suffix is
what tells the two entry kinds apart.  ``S`` keeps one ``R_CONTAINED``
entry per contained read, pointing at its root (non-contained) container.
"""

from __future__ import annotations

import numpy as np

from ..dsparse.semiring import INF, Semiring

__all__ = [
    "A_POS", "A_FLIP", "A_NFIELDS",
    "C_COUNT", "C_PA1", "C_PB1", "C_STRAND1", "C_PA2", "C_PB2", "C_STRAND2",
    "C_NFIELDS",
    "R_SUFFIX", "R_END_I", "R_END_J", "R_OLEN", "R_NFIELDS",
    "R_CONTAINED", "R_CONTAINS", "R_NO_END",
    "n_slot",
    "PositionsSemiring", "BidirectedMinPlus",
]

# A-matrix fields.
A_POS, A_FLIP = 0, 1
# C-matrix fields.
C_COUNT, C_PA1, C_PB1, C_STRAND1, C_PA2, C_PB2, C_STRAND2 = range(7)
# R-matrix fields.
R_SUFFIX, R_END_I, R_END_J, R_OLEN = range(4)
# Containment-entry markers: R_SUFFIX of (contained, container) and of
# (container, contained); both end fields hold R_NO_END.
R_CONTAINED, R_CONTAINS = -1, -2
R_NO_END = -1

#: Field counts derived from the layout constants above — the single source
#: of truth for code that must build empty/estimated matrices of these
#: types (an ``np.empty((0, 4))`` literal silently desyncs the moment a
#: field is added to the semiring; these cannot).
A_NFIELDS = A_FLIP + 1
C_NFIELDS = C_STRAND2 + 1
R_NFIELDS = R_OLEN + 1


def n_slot(end_i: np.ndarray | int, end_j: np.ndarray | int):
    """Slot index of an (end_i, end_j) orientation combination in N values."""
    return 2 * end_i + end_j


class PositionsSemiring(Semiring):
    """Semiring for ``C = A·Aᵀ`` (count + up to two seed position pairs).

    ``multiply`` turns an A-nonzero ``(pos_i, flip_i)`` and an Aᵀ-nonzero
    ``(pos_j, flip_j)`` into a 1-count C value carrying one seed
    ``(pos_i, pos_j, strand = flip_i XOR flip_j)``; ``reduce`` sums counts and
    keeps the first two seeds of each group.  Reduce is composable: partial
    SUMMA results (already holding counts > 1 and stored seeds) merge
    correctly because counts add and missing second seeds are back-filled
    from the next contribution.
    """

    out_nfields = 7

    #: A freshly multiplied group's reduce reads only its first two products
    #: (the stored seed pair) and its size (the count field — every product
    #: carries count 1), so the masked kernels may multiply just two
    #: products per output coordinate.  Accumulating SUMMA's partials reads
    #: the first row whole, the counts, and the second row's first seed only
    #: when the first holds one: the first two products of the partials'
    #: concatenated stream.  See Semiring.reduce_truncated.
    product_reduce_depth = 2

    def multiply(self, avals, bvals):
        out = np.empty((avals.shape[0], 7), dtype=np.int64)
        out[:, C_COUNT] = 1
        out[:, C_PA1] = avals[:, A_POS]
        out[:, C_PB1] = bvals[:, A_POS]
        np.bitwise_xor(avals[:, A_FLIP], bvals[:, A_FLIP],
                       out=out[:, C_STRAND1])
        out[:, C_PA2:] = -1
        return out, None

    def reduce(self, vals, starts, counts):
        out = vals[starts].copy()
        out[:, C_COUNT] = np.add.reduceat(vals[:, C_COUNT], starts)
        # Back-fill the second seed from the following group row when the
        # leading row carries only one seed.
        need2 = (out[:, C_PA2] < 0) & (counts >= 2)
        src = starts + 1
        out[need2, C_PA2] = vals[src[need2], C_PA1]
        out[need2, C_PB2] = vals[src[need2], C_PB1]
        out[need2, C_STRAND2] = vals[src[need2], C_STRAND1]
        return out

    def reduce_truncated(self, vals, starts, counts, taken):
        # Same fold over groups clipped to their first ``taken`` (≤ 2)
        # products: the count field is the true group size (every fresh
        # product carries count 1, so the full reduce's segment sum equals
        # it), the first seed is the group head's and the second the next
        # product's, where taken.  A seed not taken reads a -1 row past the
        # products' seeds, as the multiply leaves an unfilled one: each
        # seed slot is one row gather at the group heads.
        seeds = np.empty((vals.shape[0] + 1, 3), dtype=np.int64)
        seeds[:-1] = vals[:, C_PA1:C_STRAND1 + 1]
        seeds[-1] = -1
        none = vals.shape[0]
        out = np.empty((starts.shape[0], 7), dtype=np.int64)
        out[:, C_COUNT] = counts
        out[:, C_PA1:C_STRAND1 + 1] = seeds.take(
            np.where(taken >= 1, starts, none), axis=0)
        out[:, C_PA2:C_STRAND2 + 1] = seeds.take(
            np.where(taken >= 2, starts + 1, none), axis=0)
        return out

    def group_sizes(self, vals):
        return vals[:, C_COUNT]


class BidirectedMinPlus(Semiring):
    """Algorithm 3's MinPlus semiring with bidirected-walk validity.

    Operands are R-typed values ``[suffix, end_i, end_k]`` /
    ``[suffix, end_k, end_j]``; a product is a valid two-edge walk iff the
    two attachments at the middle read ``k`` are **opposite ends**
    (``ISDIROK``, Algorithm 3 line 5) — entering k at one end means the walk
    traverses k and must leave from the other end.  The product value is the
    path suffix sum placed in the ``(end_i, end_j)`` slot; reduce is a
    columnwise (per-slot) minimum.
    """

    out_nfields = 4

    def multiply(self, avals, bvals):
        n = avals.shape[0]
        valid = avals[:, R_END_J] != bvals[:, R_END_I]
        out = np.full((n, 4), INF, dtype=np.int64)
        slots = n_slot(avals[:, R_END_I], bvals[:, R_END_J])
        rows = np.arange(n)
        total = avals[:, R_SUFFIX] + bvals[:, R_SUFFIX]
        out[rows, slots] = total
        return out, valid

    def reduce(self, vals, starts, counts):
        out = np.empty((starts.shape[0], 4), dtype=np.int64)
        for s in range(4):
            out[:, s] = np.minimum.reduceat(vals[:, s], starts)
        return out
