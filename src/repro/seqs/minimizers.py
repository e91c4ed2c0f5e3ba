"""(w, k)-minimizer extraction for the minimizer seeding mode.

minimap2 (Li 2018) indexes reads by minimizers — the smallest (by a hash
order) k-mer in every window of ``w`` consecutive k-mers — and estimates
pairwise similarity from shared minimizers without base-level alignment.
The pipeline's :class:`~repro.seqs.seeding.MinimizerScheme` seed mode
builds on this module.

:func:`minimizers_batch` extracts a whole SoA block of reads (mirroring
:func:`~repro.seqs.kmers.read_kmers_batch`'s column-op style): one sliding
argmin over the concatenated hash stream with per-read window masking, and
a vectorized segment-argmin for reads with fewer than ``w`` windows.  Its
output equals a per-read sliding-window argmin over each read's hashed
canonical k-mers, concatenated over the block — pinned by the parity suite
against the per-read reference in the tests.
"""

from __future__ import annotations

import numpy as np

from .kmers import read_kmers_batch, splitmix64

__all__ = ["minimizers_batch"]

#: Windows per argmin call in :func:`minimizers_batch`.  Against the w − 1
#: running-minimum passes this replaced (w = 10, random hashes, 2-vCPU
#: host): 42 k windows 4.9 → 2.1 ms, 800 k windows 91 → 37 ms with traced
#: peak memory 14.4 → 7.8 MB, where one unchunked argmin would copy the
#: whole window array.
_ARGMIN_CHUNK = 1 << 14


def minimizers_batch(codes: np.ndarray, offsets: np.ndarray,
                     lengths: np.ndarray, k: int, w: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """(w, k)-minimizers of *many* reads in one vectorized pass.

    The reads live in one shared SoA buffer (the layout of
    :meth:`repro.seqs.fasta.ReadSet.soa`).  Values are exactly those of
    extracting each read's minimizers on its own and concatenating, in the
    same read-major ascending-position order — plus the per-seed ``flip``
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
        # One sliding argmin over the concatenated hash stream: np.argmin
        # keeps the first tie.  The window view is strided, so argmin
        # copies what it reads; chunks of _ARGMIN_CHUNK windows keep that
        # copy small.  Window start g is a real w-window of its read only
        # when it also *ends* inside the read (ridx is read-major, so one
        # comparison of its ends says so); windows straddling a boundary
        # are masked out.
        n = total - w + 1
        windows = np.lib.stride_tricks.sliding_window_view(order, w)
        arg = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _ARGMIN_CHUNK):
            arg[lo:lo + _ARGMIN_CHUNK] = \
                windows[lo:lo + _ARGMIN_CHUNK].argmin(axis=1)
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
