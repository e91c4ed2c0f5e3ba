"""Per-read k-mer references: one read's packed windows, its k-mers, its
(w, k)-minimizers, its seeds under a seed scheme, and packing to and from
ACGT strings.  The batched extractors
(:func:`repro.seqs.kmers.read_kmers_batch` and its doubling pack,
:func:`repro.seqs.minimizers.minimizers_batch`,
:meth:`repro.seqs.seeding.SeedScheme.seeds_of_block`) must equal these
applied read by read.  Test-only: nothing under ``src/`` imports them."""

from __future__ import annotations

import numpy as np

from repro.seqs.kmers import _check_k, canonical_kmers, splitmix64
from repro.seqs.seeding import FullKScheme


def pack_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack every length-``k`` window of a 2-bit code array into ``uint64``.

    Parameters
    ----------
    codes:
        ``uint8`` code array for one read.
    k:
        K-mer length (``<= 31`` so the packed value fits 62 bits).

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of length ``len(codes) - k + 1`` (empty if the read
        is shorter than ``k``).
    """
    _check_k(k)
    n = codes.shape[0]
    if n < k:
        return np.empty(0, dtype=np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(codes, k).astype(
        np.uint64)
    weights = np.uint64(1) << (
        np.uint64(2) * np.arange(k - 1, -1, -1, dtype=np.uint64))
    return windows @ weights


def read_kmers(codes: np.ndarray, k: int, canonical: bool = True
               ) -> tuple[np.ndarray, np.ndarray]:
    """All k-mers of one read together with their positions.

    Returns
    -------
    (kmers, positions):
        ``uint64`` packed (canonical by default) k-mers and their ``int64``
        start offsets in the read.
    """
    km = pack_kmers(codes, k)
    pos = np.arange(km.shape[0], dtype=np.int64)
    if canonical:
        km = canonical_kmers(km, k)
    return km, pos


def seeds_of_read(scheme, codes: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeds of one read under ``scheme``: ``(keys, pos, flip)`` in
    position order.

    Full-k packs the read's windows on their own (:func:`read_kmers`); a
    sketched scheme is its block extractor over a block of this one read.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if isinstance(scheme, FullKScheme):
        fwd, pos = read_kmers(codes, scheme.k, canonical=False)
        canon = canonical_kmers(fwd, scheme.k)
        return canon, pos, canon != fwd
    keys, _ridx, pos, flip = scheme.seeds_of_block(
        codes, np.zeros(1, np.int64), np.array([codes.shape[0]], np.int64))
    return keys, pos, flip


def minimizers(codes: np.ndarray, k: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the (w, k)-minimizers of one read.

    Parameters
    ----------
    codes:
        2-bit code array of the read.
    k:
        K-mer length.
    w:
        Window size in k-mers; each window of ``w`` consecutive k-mers
        contributes its hash-minimal canonical k-mer.

    Returns
    -------
    (kmers, positions):
        Deduplicated ``uint64`` canonical minimizer k-mers and their start
        positions, in ascending position order.  A k-mer minimal in several
        overlapping windows is reported once per distinct position.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    km = pack_kmers(codes, k)
    if km.shape[0] == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    can = canonical_kmers(km, k)
    order = splitmix64(can)  # random order breaks lexicographic bias
    if order.shape[0] <= w:
        pos = np.array([int(np.argmin(order))], dtype=np.int64)
        return can[pos], pos
    windows = np.lib.stride_tricks.sliding_window_view(order, w)
    arg = windows.argmin(axis=1) + np.arange(windows.shape[0], dtype=np.int64)
    pos = np.unique(arg)
    return can[pos], pos


def kmer_to_string(kmer: int, k: int) -> str:
    """Unpack a packed k-mer back into its ACGT string (for debugging)."""
    _check_k(k)
    out = []
    for shift in range(2 * (k - 1), -2, -2):
        out.append("ACGT"[(int(kmer) >> shift) & 3])
    return "".join(out)


def string_to_kmer(s: str) -> int:
    """Pack an ACGT string (``len(s) <= 31``) into its ``uint64`` value."""
    _check_k(len(s))
    val = 0
    for ch in s:
        val = (val << 2) | "ACGT".index(ch)
    return val
