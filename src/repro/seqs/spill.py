"""Merge-sum of ``(key, count)`` histograms, in memory and from sorted runs.

The k-mer counter's owners buffer one sorted-unique histogram per exchange
round and merge-sum them at reliable-selection time
(:func:`combine_histograms`).  Under a ``--memory-budget``, an owner whose
buffer reaches its share flushes it to disk as one **sorted run**
(:func:`write_pair_run`) and frees the memory; selection then replays the
runs through :func:`merge_pair_runs`, a chunked k-way merge-sum that yields
the same ``(sorted unique keys, summed counts)`` stream while holding only
``O(runs × chunk)`` items resident — never the full table.

The two are exactly equivalent: addition is associative/commutative over
however the rounds were cut, and each run is itself sorted-unique, so the
merged stream is byte-for-byte the histogram an unbudgeted run sums in
memory.

The on-disk format is the numpy structured dtype :data:`PAIR_DTYPE`
written contiguously — readable back in arbitrary ``[lo, hi)`` windows via
``np.fromfile(offset=...)`` without loading the file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PAIR_DTYPE", "PairRun", "write_pair_run", "combine_histograms",
           "merge_pair_runs"]

#: One table entry on disk: the 64-bit canonical k-mer key + its count.
PAIR_DTYPE = np.dtype([("key", "<u8"), ("count", "<i8")])


@dataclass(frozen=True)
class PairRun:
    """One sorted-unique ``(key, count)`` run on disk."""

    path: str
    n: int

    def read(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Load entries ``[lo, hi)`` as ``(keys, counts)`` arrays."""
        lo = max(0, int(lo))
        hi = min(self.n, int(hi))
        if hi <= lo:
            return np.empty(0, np.uint64), np.empty(0, np.int64)
        rec = np.fromfile(self.path, dtype=PAIR_DTYPE, count=hi - lo,
                          offset=lo * PAIR_DTYPE.itemsize)
        return rec["key"].astype(np.uint64, copy=False), \
            rec["count"].astype(np.int64, copy=False)


def write_pair_run(path: str, keys: np.ndarray, counts: np.ndarray
                   ) -> PairRun:
    """Persist a sorted-unique ``(keys, counts)`` table as one run."""
    rec = np.empty(keys.shape[0], dtype=PAIR_DTYPE)
    rec["key"] = keys
    rec["count"] = counts
    rec.tofile(path)
    return PairRun(path=path, n=int(keys.shape[0]))


def combine_histograms(parts: list[tuple[np.ndarray, np.ndarray]]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Merge-sum ``(keys, counts)`` parts into one sorted-unique table.

    Concatenate, stable-sort by key, collapse equal keys by summing their
    counts.  Works for any number of parts, each itself in any order.
    """
    if not parts:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    keys = np.concatenate([np.asarray(k, np.uint64) for k, _ in parts])
    counts = np.concatenate([np.asarray(c, np.int64) for _, c in parts])
    if keys.shape[0] == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[start], np.add.reduceat(counts, start)


def merge_pair_runs(runs: list[PairRun], chunk_items: int = 1 << 16):
    """K-way merge-sum of sorted runs, yielding bounded-size chunks.

    Yields ``(keys, counts)`` pairs whose key ranges are strictly
    increasing across yields (so no cross-yield deduplication is ever
    needed) and globally cover every key exactly once with its total
    count.

    The invariant that makes the chunked merge exact: each reader holds a
    buffer of up to ``chunk_items`` entries; any key still *unread* in a
    partially-loaded run is strictly greater than that run's buffered
    maximum.  Emitting only keys ``<= bound`` — the minimum buffered
    maximum over partially-loaded runs — therefore can never miss a
    contribution, and the run attaining the bound drains its whole buffer,
    so every iteration makes progress.
    """
    runs = [r for r in runs if r.n > 0]
    # (keys, counts, next_offset) per live run; next_offset == r.n means
    # the file is fully consumed and the buffer is all that remains.
    states = []
    for r in runs:
        keys, counts = r.read(0, chunk_items)
        states.append([r, keys, counts, keys.shape[0]])
    while states:
        bound = None
        for r, keys, _counts, nxt in states:
            if nxt < r.n:  # more on disk: cannot emit past the buffer max
                last = keys[-1]
                if bound is None or last < bound:
                    bound = last
        parts = []
        new_states = []
        for r, keys, counts, nxt in states:
            if bound is None:
                cut = keys.shape[0]
            else:
                cut = int(np.searchsorted(keys, bound, side="right"))
            if cut:
                parts.append((keys[:cut], counts[:cut]))
            keys = keys[cut:]
            counts = counts[cut:]
            if keys.shape[0] == 0 and nxt < r.n:
                keys, counts = r.read(nxt, nxt + chunk_items)
                nxt += keys.shape[0]
            if keys.shape[0] > 0:
                new_states.append([r, keys, counts, nxt])
        states = new_states
        if parts:
            yield combine_histograms(parts)
