"""(w, k)-minimizer extraction for the minimizer seeding mode.

minimap2 (Li 2018) indexes reads by minimizers — the smallest (by a hash
order) k-mer in every window of ``w`` consecutive k-mers — and estimates
pairwise similarity from shared minimizers without base-level alignment.
The pipeline's :class:`~repro.seqs.seeding.MinimizerScheme` seed mode
builds on this module.

:func:`minimizers` extracts one read with a sliding-window argmin over the
hashed canonical k-mer sequence; :func:`minimizers_batch` is its exact
whole-block SoA counterpart (mirroring
:func:`~repro.seqs.kmers.read_kmers_batch`'s column-op style): one sliding
argmin over the concatenated hash stream with per-read window masking, and
a vectorized segment-argmin for reads with fewer than ``w`` windows.  The
batched output equals concatenating the per-read extractor over the block
— pinned by the parity suite.
"""

from __future__ import annotations

import numpy as np

from .kmers import pack_kmers, canonical_kmers, read_kmers_batch, splitmix64

__all__ = ["minimizers", "minimizers_batch"]


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


def minimizers_batch(codes: np.ndarray, offsets: np.ndarray,
                     lengths: np.ndarray, k: int, w: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """(w, k)-minimizers of *many* reads in one vectorized pass.

    The reads live in one shared SoA buffer (the layout of
    :meth:`repro.seqs.fasta.ReadSet.soa`).  Values are exactly those of
    calling :func:`minimizers` per read and concatenating, in the same
    read-major ascending-position order — plus the per-seed ``flip``
    orientation bit the pipeline's A matrix needs.

    Returns
    -------
    (kmers, read_idx, pos, flip):
        Canonical ``uint64`` minimizer k-mers, the index into
        ``offsets``/``lengths`` of each minimizer's read, its window start
        position within the read, and whether the canonical form is the
        reverse complement (the shape of
        :func:`~repro.seqs.kmers.read_kmers_batch`).
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    canon, ridx, pos, flip = read_kmers_batch(codes, offsets, lengths, k)
    total = canon.shape[0]
    if total == 0:
        return canon, ridx, pos, flip
    lengths = np.asarray(lengths, dtype=np.int64)
    n_win = np.maximum(lengths - (k - 1), 0)
    order = splitmix64(canon)
    keep = np.zeros(total, dtype=bool)
    if total >= w:
        # One sliding argmin over the concatenated hash stream, as a
        # running minimum over the w shifted slices: a later slice wins
        # only when strictly smaller, which keeps np.argmin's first tie,
        # and no n × w window array is formed.  Window start g is a real
        # w-window of its read only when it also *ends* inside the read
        # (ridx is read-major, so one comparison of its ends says so);
        # windows straddling a boundary are masked out.
        n = total - w + 1
        best = order[:n].copy()
        arg = np.zeros(n, dtype=np.int64)
        for j in range(1, w):
            shifted = order[j:j + n]
            better = shifted < best
            np.copyto(best, shifted, where=better)
            np.copyto(arg, j, where=better)
        arg += np.arange(n, dtype=np.int64)
        keep[arg[ridx[w - 1:] == ridx[:n]]] = True
        small = (n_win >= 1) & (n_win < w)
    else:
        small = n_win >= 1
    if small.any():
        # Reads with fewer than w windows contribute their single global
        # minimum (the per-read extractor's short-read branch): a segment
        # min per read, then the first position attaining it — np.argmin's
        # first-tie rule, vectorized.
        sel = small[ridx]
        seg_min = np.full(n_win.shape[0], np.uint64(0xFFFFFFFFFFFFFFFF),
                          dtype=np.uint64)
        np.minimum.at(seg_min, ridx[sel], order[sel])
        cand = np.flatnonzero(sel & (order == seg_min[ridx]))
        keep[cand[np.unique(ridx[cand], return_index=True)[1]]] = True
    return canon[keep], ridx[keep], pos[keep], flip[keep]
