"""Vectorized k-mer extraction, canonicalization, and hashing.

K-mers with ``k <= 31`` are packed into ``uint64`` values, two bits per base,
most-significant base first.  All operations are numpy-vectorized; a read of
length *l* yields its ``l - k + 1`` k-mers with no Python-level loop over
positions.

:func:`read_kmers_batch` extracts a whole block of reads at once.  It packs
both strands of the block's code buffer by binary doubling, each doubling
level in the narrowest unsigned dtype that holds it, and takes canonical
form and flip as one ``minimum`` and one ``<`` over the two strands'
windows — no per-window bit reversal.  :func:`revcomp_kmers` (a
bit-reversal cascade on packed words) canonicalizes packed k-mers one array
at a time.

The functions here are the workhorses of both the k-mer counter
(:mod:`repro.seqs.kmer_counter`) and the construction of the ``A`` matrix
(:mod:`repro.core.overlap`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_K",
    "revcomp_kmers",
    "canonical_kmers",
    "read_kmers_batch",
    "splitmix64",
]

MAX_K = 31


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")


def revcomp_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement packed k-mers, vectorized with bit tricks.

    Complementing a 2-bit code ``c`` is ``3 - c``, which over the packed word
    is bitwise NOT restricted to the low ``2k`` bits.  Reversal of the k
    two-bit groups is done with the classic swap cascade (pairs, nibbles,
    bytes, ...) followed by a right shift to drop the unused high bits.
    """
    _check_k(k)
    x = (~kmers).astype(np.uint64)
    # Swap adjacent 2-bit groups' order progressively: 2-bit groups inside
    # 4-bit, then 4 inside 8, 8 inside 16, 16 inside 32, 32 inside 64.
    m = np.uint64
    x = ((x & m(0x3333333333333333)) << m(2)) | ((x >> m(2)) & m(0x3333333333333333))
    x = ((x & m(0x0F0F0F0F0F0F0F0F)) << m(4)) | ((x >> m(4)) & m(0x0F0F0F0F0F0F0F0F))
    x = ((x & m(0x00FF00FF00FF00FF)) << m(8)) | ((x >> m(8)) & m(0x00FF00FF00FF00FF))
    x = ((x & m(0x0000FFFF0000FFFF)) << m(16)) | ((x >> m(16)) & m(0x0000FFFF0000FFFF))
    x = (x << m(32)) | (x >> m(32))
    return x >> m(64 - 2 * k)


def canonical_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Canonical (lexicographically smaller of self / revcomp) packed k-mers.

    With the MSB-first 2-bit packing, integer order on packed words equals
    lexicographic order on the strings, so ``min`` suffices.
    """
    return np.minimum(kmers, revcomp_kmers(kmers, k))


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
                     lengths: np.ndarray, k: int, canonical: bool = True
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """K-mers of *many* reads in one vectorized pass over a SoA view.

    The reads live in one shared ``codes`` buffer (read ``i`` occupies
    ``codes[offsets[i]:offsets[i] + lengths[i]]`` — the layout of
    :meth:`repro.seqs.fasta.ReadSet.soa`).  Every read's windows are packed,
    canonicalized, and position/flip-annotated as column operations over the
    whole batch: no Python-level dispatch per read.  Values are exactly those
    of packing each read's windows on their own (two bits per base, most
    significant first; canonicalized by :func:`canonical_kmers`) and
    concatenating, in the same read-major order.

    Parameters
    ----------
    codes:
        ``uint8`` 2-bit code buffer shared by all addressed reads.
    offsets, lengths:
        Per-read start offsets into ``codes`` and read lengths (any subset
        or ordering of a ReadSet's rows; reads shorter than ``k`` simply
        contribute no windows).
    k:
        K-mer length.
    canonical:
        Canonicalize (and report which windows were flipped).

    Returns
    -------
    (kmers, read_idx, pos, flip):
        Packed ``uint64`` k-mers; the index **into** ``offsets``/``lengths``
        of each k-mer's read; the window start position within the read; and
        a boolean marking windows whose canonical form is the reverse
        complement (all ``False`` when ``canonical=False``).
    """
    _check_k(k)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n_win = np.maximum(lengths - (k - 1), 0)
    total = int(n_win.sum())
    if total == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                np.empty(0, np.int64), np.zeros(0, dtype=bool))
    read_idx = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), n_win)
    first_slot = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(n_win[:-1], out=first_slot[1:])
    pos = np.arange(total, dtype=np.int64) - first_slot[read_idx]
    gstart = offsets[read_idx] + pos
    # When the reads tile a contiguous stretch of ``codes`` (the SoA
    # layout), pack every window of the raw buffer by binary doubling and
    # gather the valid window starts.  The reverse strand is the same sweep
    # over the reversed complement buffer: its window q is the reverse
    # complement of forward window n - k - q, so reversing the pack lines
    # both strands up, and canonical form and flip are one minimum and one
    # comparison over the gathered windows.
    lo, hi = int(offsets[0]), int(offsets[-1] + lengths[-1])
    contiguous = bool(np.all(offsets[1:] == offsets[:-1] + lengths[:-1]))
    if contiguous and hi - lo >= k:
        buf = np.asarray(codes[lo:hi], dtype=np.uint8)
        gstart -= lo
        fwd = _pack_all_windows(buf, k)[gstart]
        if not canonical:
            return (fwd.astype(np.uint64, copy=False), read_idx, pos,
                    np.zeros(total, dtype=bool))
        rev = _pack_all_windows(3 - buf[::-1], k)[::-1][gstart]
        flip = rev < fwd
        np.minimum(fwd, rev, out=fwd)
        return fwd.astype(np.uint64, copy=False), read_idx, pos, flip
    # Otherwise gather each window's bases and pack with a Horner sweep over
    # the k base columns (identical to a window/weight product).
    windows = codes[gstart[:, None] + np.arange(k, dtype=np.int64)[None, :]]
    km = np.zeros(total, dtype=np.uint64)
    for j in range(k):
        km = (km << np.uint64(2)) | windows[:, j]
    if not canonical:
        return km, read_idx, pos, np.zeros(total, dtype=bool)
    canon = canonical_kmers(km, k)
    return canon, read_idx, pos, canon != km


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
