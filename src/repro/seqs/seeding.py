"""Pluggable seeding layer: which k-mer windows seed the overlap graph.

The paper's pipeline seeds overlaps with *every* reliable k-mer, so nnz(A)
— and downstream nnz(C), alignment work, and service refresh cost — scales
with total read length.  minimap2 (Li 2018) shows that (w, k)-minimizer
sketching shrinks the seed set ~w× with negligible recall loss, and open
syncmers (Edgar 2021) achieve a similar density with better conservation
under mutation.  This module abstracts the choice behind a
:class:`SeedScheme`:

* :class:`FullKScheme` — every window, byte-identical to the historical
  hardwired path (``read_kmers_batch``).
* :class:`MinimizerScheme` — the hash-minimal canonical k-mer of every
  window of ``w`` consecutive k-mers, batched over a whole SoA block
  (:func:`repro.seqs.minimizers.minimizers_batch`).
* :class:`SyncmerScheme` — open syncmers: a k-mer is a seed iff the
  hash-minimal canonical s-mer among its ``k - s + 1`` s-mers sits at the
  *start* of the k-mer's canonical orientation, with ``s = k - w + 1`` so
  the expected density is ``1/w``.  The orientation rule makes selection
  strand-symmetric: a window and its reverse complement are either both
  seeds or neither, so cross-strand overlaps keep their shared seeds.

Every scheme is a frozen (pickle-safe) dataclass whose extraction is a pure
per-read function — output is independent of how reads are blocked across
executors, strips, or service batches.  ``seeds_of_block`` mirrors
:func:`~repro.seqs.kmers.read_kmers_batch`'s return shape
``(keys, read_idx, pos, flip)`` in read-major, ascending-position order, so
the full-k scheme is an exact passthrough and every downstream consumer
(counting, A construction, occurrence tables) is scheme-agnostic.

The ``seed_mode`` axis (:data:`repro.options.SEED_MODE`) names the scheme;
:func:`make_scheme` builds it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..options import SEED_MODE
from .kmers import read_kmers_batch, splitmix64
from .minimizers import minimizers_batch

__all__ = ["DEFAULT_SEED_W", "make_scheme", "SeedScheme", "FullKScheme",
           "MinimizerScheme", "SyncmerScheme"]

#: Default window parameter for the sketched schemes (k-mers per minimizer
#: window; the syncmer submer length is derived as ``s = k - w + 1``).
DEFAULT_SEED_W = 8


def make_scheme(mode: str | None, k: int, w: int = DEFAULT_SEED_W
                ) -> "SeedScheme":
    """Build the :class:`SeedScheme` for a (possibly ``auto``) mode name."""
    mode = SEED_MODE.resolve(mode)
    if mode == "full":
        return FullKScheme(k=k)
    if mode == "minimizer":
        return MinimizerScheme(k=k, w=w)
    return SyncmerScheme(k=k, w=w)


class SeedScheme(abc.ABC):
    """Which windows of a read contribute seeds to counting and A.

    Implementations are frozen dataclasses (pickle-safe executor context)
    and **pure per-read functions**: the seeds of a read depend only on its
    bases, never on how reads are blocked — so every executor, strip, and
    service batching produces the same seed stream.
    """

    k: int

    @property
    @abc.abstractmethod
    def scheme_id(self) -> str:
        """Stable identifier of scheme + parameters (service state tag)."""

    @property
    @abc.abstractmethod
    def expected_seed_fraction(self) -> float:
        """Expected fraction of k-mer windows selected (density model)."""

    @abc.abstractmethod
    def seeds_of_block(self, codes: np.ndarray, offsets: np.ndarray,
                       lengths: np.ndarray, positions: bool = True
                       ) -> tuple[np.ndarray, np.ndarray | None,
                                  np.ndarray | None, np.ndarray]:
        """Seeds of a whole SoA block, as one vectorized pass.

        Mirrors :func:`~repro.seqs.kmers.read_kmers_batch`: returns
        ``(keys, read_idx, pos, flip)`` — canonical ``uint64`` seed
        k-mers, the index into ``offsets``/``lengths`` of each seed's
        read, the window start position within the read, and whether the
        canonical form is the reverse complement — in read-major,
        ascending-position order.  ``positions=False`` is a hint from a
        caller that reads no ``read_idx`` or ``pos`` (every caller that
        reads only keys and flips passes it): a scheme that keeps every
        window then leaves both ``None`` (they follow from ``lengths``);
        a sparse scheme, which selects by position, returns them
        regardless.
        """


@dataclass(frozen=True)
class FullKScheme(SeedScheme):
    """Every k-mer window is a seed — the paper's hardwired behavior.

    ``seeds_of_block`` is a passthrough to
    :func:`~repro.seqs.kmers.read_kmers_batch`, so full mode is
    byte-identical to the pre-refactor pipeline at every layer, and
    without ``positions`` it forms no per-window read or position column.
    """

    k: int

    @property
    def scheme_id(self) -> str:
        return f"full:k={self.k}"

    @property
    def expected_seed_fraction(self) -> float:
        return 1.0

    def seeds_of_block(self, codes, offsets, lengths, positions=True):
        return read_kmers_batch(codes, offsets, lengths, self.k, positions)


@dataclass(frozen=True)
class MinimizerScheme(SeedScheme):
    """(w, k)-minimizers: the hash-minimal canonical k-mer per window.

    Seeds come from :func:`repro.seqs.minimizers.minimizers_batch`, which
    the parity suite pins to a per-read reference extractor (same
    splitmix64 order, same first-tie argmin, same position dedup).
    Expected density of a random-order minimizer scheme is
    ``2 / (w + 1)`` selected windows (Li 2018, Lemma 1).
    """

    k: int
    w: int = DEFAULT_SEED_W

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError(f"minimizer window must be >= 1, got {self.w}")

    @property
    def scheme_id(self) -> str:
        return f"minimizer:k={self.k},w={self.w}"

    @property
    def expected_seed_fraction(self) -> float:
        return min(1.0, 2.0 / (self.w + 1))

    def seeds_of_block(self, codes, offsets, lengths, positions=True):
        return minimizers_batch(codes, offsets, lengths, self.k, self.w)


@dataclass(frozen=True)
class SyncmerScheme(SeedScheme):
    """Open syncmers (Edgar 2021) over the hashed-canonical machinery.

    With submer length ``s = k - w + 1`` each k-mer window holds
    ``n_s = w`` s-mers; the window is a seed iff the s-mer at offset 0 of
    the window's canonical orientation (offset ``n_s - 1`` in read
    coordinates when the window is flipped) attains the window's minimal
    splitmix64 canonical s-mer hash.  Selection depends only on the window's
    own bases — strand-symmetric and context-free, with expected density
    ``1/w`` — unlike minimizers, whose selection depends on neighboring
    windows.
    """

    k: int
    w: int = DEFAULT_SEED_W

    def __post_init__(self) -> None:
        if not 1 <= self.w <= self.k:
            raise ValueError(
                f"syncmer window must be in [1, k={self.k}], got {self.w}")

    @property
    def s(self) -> int:
        """Submer length ``k - w + 1`` (so each window has ``w`` s-mers)."""
        return self.k - self.w + 1

    @property
    def scheme_id(self) -> str:
        return f"syncmer:k={self.k},s={self.s}"

    @property
    def expected_seed_fraction(self) -> float:
        return 1.0 / self.w

    def seeds_of_block(self, codes, offsets, lengths, positions=True):
        k, s = self.k, self.s
        canon, ridx, pos, flip = read_kmers_batch(codes, offsets, lengths, k)
        if canon.shape[0] == 0 or s == k:
            # s == k: one s-mer per window, trivially minimal — full-k.
            return canon, ridx, pos, flip
        lengths = np.asarray(lengths, dtype=np.int64)
        # Hash every canonical s-mer of the block once; a k-window at read
        # position p covers the n_s consecutive s-windows starting at its
        # read's global s-slot offset + p.
        h = splitmix64(read_kmers_batch(codes, offsets, lengths, s)[0])
        n_swin = np.maximum(lengths - (s - 1), 0)
        s_first = np.zeros(lengths.shape[0], dtype=np.int64)
        np.cumsum(n_swin[:-1], out=s_first[1:])
        n_s = k - s + 1
        wmin = np.lib.stride_tricks.sliding_window_view(h, n_s).min(axis=1)
        g = s_first[ridx] + pos
        # "Attains the minimum" (not "is the argmin") keeps selection
        # reversal-invariant under tied hashes (repeated s-mers).
        keep = np.where(flip, h[g + n_s - 1], h[g]) == wmin[g]
        return canon[keep], ridx[keep], pos[keep], flip[keep]
