"""Per-read k-mer references: reverse complement and canonical form of a
DNA string and of packed k-mers, one read's packed windows, its k-mers,
its (w, k)-minimizers, its seeds under a seed scheme, and packing to and
from ACGT strings.  The batched extractors
(:func:`repro.seqs.kmers.read_kmers_batch` and its doubling pack,
:func:`repro.seqs.minimizers.minimizers_batch`,
:meth:`repro.seqs.seeding.SeedScheme.seeds_of_block`) must equal these
applied read by read.  Also the exact whole-set seed histogram
(:func:`kmer_histogram`) that the counting engines and the service's
per-batch histogram merge are checked against.  Test-only: nothing under
``src/`` imports them."""

from __future__ import annotations

import numpy as np

from repro.seqs.dna import decode, encode, revcomp_codes
from repro.seqs.kmers import _check_k, splitmix64
from repro.seqs.fasta import ReadSet
from repro.seqs.seeding import FullKScheme, SeedScheme


def revcomp(seq: str) -> str:
    """Reverse complement of an ACGT string."""
    return decode(revcomp_codes(encode(seq)))


def canonical(seq: str) -> str:
    """Canonical form: the lexicographically smaller of ``seq`` and its
    reverse complement (the paper, Section II)."""
    rc = revcomp(seq)
    return seq if seq <= rc else rc


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


def kmer_histogram(reads: ReadSet, k: int,
                   scheme: SeedScheme | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exact global ``(keys, counts)`` histogram of canonical seed k-mers.

    One vectorized sweep over the whole read set; keys come back sorted
    ascending.  This is the *mergeable* form of the counting state the
    incremental service keeps per version: exact histograms of two read
    batches combine losslessly
    (:func:`~repro.seqs.kmer_counter.merge_histograms`), and the reliable
    table is a pure filter of the merged histogram
    (:func:`~repro.seqs.kmer_counter.table_from_histogram`).  Both hold for
    any seed scheme — schemes are pure per-read functions, so the seed
    multiset of a batch union is the union of the batches' seed multisets.
    """
    scheme = scheme if scheme is not None else FullKScheme(k)
    canon = scheme.seeds_of_block(*reads.soa())[0]
    if canon.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    keys, counts = np.unique(canon, return_counts=True)
    return keys, counts.astype(np.int64)
