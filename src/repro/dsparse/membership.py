"""Membership and matching over sorted, duplicate-free 64-bit keys.

Canonical :class:`~repro.dsparse.coomat.CooMat` keys, reliable k-mer
arrays and packed pair ids are all sorted and unique, and the questions
asked of them — *which of these keys are in that set?*, *where do two sets
meet?* — are asked at product scale (every elementary product of a masked
SpGEMM against its mask).  :func:`in_sorted` answers the first by direct
indexing where the set's key span is small and by binary search where it
is not; :func:`match_sorted` builds the second on it.  Nothing here sorts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["in_sorted", "match_sorted"]

#: :func:`in_sorted` indexes a byte table over the hay's key span while
#: that span is at most this many times ``len(hay) + len(queries)``.  From
#: a sweep of both branches over 1 k – 1 M queries against 200 – 200 k
#: keys: the table was ahead at every point up to 64× (by 1.04–63×; the
#: low end is already-sorted queries, where binary search is
#: cache-friendly) and behind from 128×–256× for sorted and 1024× for
#: unsorted queries.  32 keeps a 2× margin at the worst point measured and
#: the table within 4× the bytes of the two key arrays themselves.  (With
#: a few dozen keys both branches are one fixed ~3 µs of call overhead.)
_TABLE_SPAN_FACTOR = 32


def _offsets(keys: np.ndarray, lo) -> np.ndarray:
    """``keys - lo + 1`` as table positions; whatever falls outside the
    span — wrapped around or not — lands outside ``[1, span]``."""
    at = (keys - lo).view(np.int64)
    at += 1
    return at


def in_sorted(hay: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean mask over ``queries``: which of them occur in ``hay``.

    ``hay`` is sorted ascending without duplicates; ``queries`` is in any
    order and may repeat.  Both are ``int64`` or both ``uint64``.  The
    branch taken is a function of the inputs alone (``_TABLE_SPAN_FACTOR``)
    and the result does not depend on it.
    """
    if hay.dtype != queries.dtype or hay.dtype not in (np.int64, np.uint64):
        raise TypeError(f"in_sorted needs int64 or uint64 keys of one dtype, "
                        f"got hay {hay.dtype} and queries {queries.dtype}")
    n_hay = hay.shape[0]
    if n_hay == 0 or queries.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=bool)
    span = int(hay[-1]) - int(hay[0]) + 1
    if span <= _TABLE_SPAN_FACTOR * (n_hay + queries.shape[0]):
        # One byte per key of the span between two False guards: a query
        # outside the span clips onto a guard.
        table = np.zeros(span + 2, dtype=bool)
        table[_offsets(hay, hay[0])] = True
        return table.take(_offsets(queries, hay[0]), mode="clip")
    at = np.searchsorted(hay, queries)
    at[at == n_hay] = 0     # above every key, so equal to none of them
    return hay[at] == queries


def match_sorted(a: np.ndarray, b: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(ia, ib)`` of the keys two sorted unique arrays share.

    ``a[ia] == b[ib]``, ascending.  The shorter side is tested for
    membership in the longer and only its hits are located there.
    """
    if a.shape[0] > b.shape[0]:
        ib, ia = match_sorted(b, a)
        return ia, ib
    ia = np.flatnonzero(in_sorted(b, a))
    return ia, np.searchsorted(b, a[ia])
