"""Per-read k-mer references: one read's k-mers, one read's
(w, k)-minimizers, and packing to and from ACGT strings.  The batched
extractors (:func:`repro.seqs.kmers.read_kmers_batch`,
:func:`repro.seqs.minimizers.minimizers_batch`) must equal these applied
read by read.  Test-only: nothing under ``src/`` imports them."""

from __future__ import annotations

import numpy as np

from repro.seqs.kmers import (_check_k, canonical_kmers, pack_kmers,
                              splitmix64)


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
