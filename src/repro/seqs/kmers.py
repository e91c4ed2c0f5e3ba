"""Vectorized k-mer extraction and hashing.

K-mers with ``k <= 31`` are packed into ``uint64`` values, two bits per base,
most-significant base first.  All operations are numpy-vectorized; a read of
length *l* yields its ``l - k + 1`` k-mers with no Python-level loop over
positions.

:func:`read_kmers_batch` extracts a whole block of reads at once from one
contiguous stretch of a :meth:`~repro.seqs.fasta.ReadSet.soa` code buffer.
It packs both strands of the block by binary doubling, each doubling level
in the narrowest unsigned dtype that holds it, drops the windows that
straddle two reads with one boolean compress per strand, and takes
canonical form and flip as one ``minimum`` and one ``<`` over the two
strands' windows — no per-window gather and no bit reversal.

The functions here are the workhorses of both the k-mer counter
(:mod:`repro.seqs.kmer_counter`) and the construction of the ``A`` matrix
(:mod:`repro.core.overlap`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_K",
    "read_kmers_batch",
    "splitmix64",
]

MAX_K = 31


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")


def _word(bases: int) -> type:
    """The narrowest unsigned dtype holding ``bases`` two-bit codes."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if 2 * bases <= 8 * np.dtype(dt).itemsize:
            return dt
    return np.uint64


def _join(head: np.ndarray, tail: np.ndarray, width: int, bases: int
          ) -> np.ndarray:
    """``(head << 2·width) | tail`` in the dtype of a ``bases``-base pack."""
    dt = _word(bases)
    out = head.astype(dt)
    out <<= dt(2 * width)
    out |= tail
    return out


def _pack_all_windows(buf: np.ndarray, k: int) -> np.ndarray:
    """Pack every length-``k`` window of a contiguous code buffer.

    Binary-doubling sweep: width-``w`` packs combine pairwise into
    width-``2w`` packs, then the binary decomposition of ``k`` is stitched
    together — ``O(log k)`` full-buffer operations instead of ``k``, with
    exactly the integer values of a window-by-weight product (pure shifts
    and ORs).  Each level runs in the narrowest dtype that holds it
    (``uint8`` up to 4 bases, ``uint16`` up to 8, ``uint32`` up to 16,
    ``uint64`` beyond), so the result's dtype is that of a ``k``-base pack,
    not always ``uint64``.
    """
    n = buf.shape[0]
    val = np.asarray(buf, dtype=np.uint8)
    packs = [(1, val)]
    w = 1
    while w * 2 <= k:
        val = _join(val[:n - 2 * w + 1], val[w:n - w + 1], w, 2 * w)
        w *= 2
        packs.append((w, val))
    cur: np.ndarray | None = None
    have = 0
    for w, val in reversed(packs):
        if have + w > k:
            continue
        if cur is None:
            cur = val
        else:
            keep = n - (have + w) + 1
            cur = _join(cur[:keep], val[have:have + keep], w, have + w)
        have += w
    return cur[:n - k + 1]


def read_kmers_batch(codes: np.ndarray, offsets: np.ndarray,
                     lengths: np.ndarray, k: int, positions: bool = True
                     ) -> tuple[np.ndarray, np.ndarray | None,
                                np.ndarray | None, np.ndarray]:
    """Canonical k-mers of *many* reads in one vectorized pass over a SoA
    view.

    The reads live in one shared ``codes`` buffer (read ``i`` occupies
    ``codes[offsets[i]:offsets[i] + lengths[i]]`` — the layout of
    :meth:`repro.seqs.fasta.ReadSet.soa`) and must tile one contiguous
    stretch of it, as a :meth:`~repro.seqs.fasta.ReadSet.soa` or
    :meth:`~repro.seqs.fasta.ReadSet.soa_block` slice does; other offsets
    are refused with :class:`ValueError`.  Both strands of the whole
    stretch are packed; one boolean mask, applied to each, drops the
    ``k - 1`` windows at the end of each read that run into the next one
    (every window of a read shorter than ``k``), and canonical form and
    flip are one ``minimum`` and one ``<`` over the windows kept.  Nothing
    is gathered per window.  Values are exactly those of packing each
    read's windows on their own (two bits per base, most significant
    first), taking the smaller of each window and its reverse complement,
    and concatenating, in the same read-major order.

    Returns
    -------
    (kmers, read_idx, pos, flip):
        Packed ``uint64`` canonical k-mers; the index **into**
        ``offsets``/``lengths`` of each k-mer's read; the window start
        position within the read; and a boolean marking windows whose
        canonical form is the reverse complement.  With
        ``positions=False`` the two middle columns are ``None``: window
        ``i`` of the stretch is recoverable from ``lengths`` alone.
    """
    _check_k(k)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not np.array_equal(offsets[1:], offsets[:-1] + lengths[:-1]):
        raise ValueError("read_kmers_batch needs reads that tile one "
                         "contiguous stretch of codes (a soa() or "
                         "soa_block() slice); these offsets do not")
    n_win = np.maximum(lengths - (k - 1), 0)
    total = int(n_win.sum())
    if total == 0:
        none = np.empty(0, np.int64) if positions else None
        return np.empty(0, np.uint64), none, none, np.zeros(0, dtype=bool)
    # Read i's stretch is its n_win[i] windows, then lengths[i] - n_win[i]
    # starts whose window runs past its end (the last read's are not packed).
    lo, hi = int(offsets[0]), int(offsets[-1] + lengths[-1])
    inside = np.repeat(np.tile(np.array([True, False]), lengths.shape[0]),
                       np.stack([n_win, lengths - n_win], axis=1).ravel()
                       )[:hi - lo - k + 1]
    # The reverse strand is the same doubling sweep over the reversed
    # complement buffer: its window q is the reverse complement of forward
    # window n - k - q, so reversing the pack lines both strands up.  Each
    # strand's pack is compressed as soon as it exists, so only one
    # all-window pack is ever held.
    buf = np.asarray(codes[lo:hi], dtype=np.uint8)
    fwd = _pack_all_windows(buf, k)[inside]
    rev = _pack_all_windows(3 - buf[::-1], k)[::-1][inside]
    flip = rev < fwd
    np.minimum(fwd, rev, out=fwd)
    keys = fwd.astype(np.uint64, copy=False)
    if not positions:
        return keys, None, None, flip
    read_idx = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), n_win)
    first_slot = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(n_win[:-1], out=first_slot[1:])
    pos = np.arange(total, dtype=np.int64) - first_slot[read_idx]
    return keys, read_idx, pos, flip


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — a cheap, high-quality 64-bit mixer.

    Used to hash k-mers both for Bloom-filter probes and for the
    processor-assignment function of the distributed k-mer counter (the
    paper relies on the hash mapping k-mers "uniformly and randomly" across
    processors for its load-balance argument, Section V-A).
    """
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x
