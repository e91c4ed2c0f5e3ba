"""Bloom filter over packed k-mers.

diBELLA 2D eliminates singleton k-mers with a Bloom filter during the first
pass of k-mer counting (paper Section IV-C, citing Melsted & Pritchard).  A
k-mer is only inserted into the counting hash table once it is seen for the
*second* time, so the vast majority of error k-mers (which occur once) never
occupy table memory.

The implementation keeps one byte per bit slot with ``n_hashes`` probes
derived from two independent splitmix64 mixes (Kirsch–Mitzenmacher double
hashing), all numpy-vectorized over batches of k-mers.  Two deliberate
representation trades against a textbook packed-bit filter:

* **one byte per slot** — 8× filter memory (still ~10 bytes per expected
  key) so probes are plain fancy indexing; scatter-inserts into packed
  words need ``np.bitwise_or.at``, which is orders of magnitude slower and
  was the counter's dominant cost at millions of k-mers;
* **power-of-two slot count** — probe reduction by bit mask instead of a
  64-bit modulo.

Both change *which* slots a key probes versus the old packed/modulo
variant, so the false-positive pattern differs from pre-PR-5 filters (the
rate only improves — ``m`` never shrinks).  That is observable only below
the counting pipeline's reliable-multiplicity floor: false positives admit
singleton k-mers, which reliable selection (``lower >= 2``) always
discards, so k-mer tables and everything downstream are unaffected.
"""

from __future__ import annotations

import math

import numpy as np

from .kmers import splitmix64

__all__ = ["BloomFilter"]


class BloomFilter:
    """Fixed-size Bloom filter for ``uint64`` keys.

    Parameters
    ----------
    capacity:
        Expected number of distinct keys.
    fp_rate:
        Target false-positive probability; sizes the bit array as
        ``m = -n ln p / (ln 2)^2`` and uses ``h = m/n ln 2`` hash probes.
    """

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        m = max(64, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        # Round the slot count up to a power of two: probe reduction becomes
        # a bit mask instead of a 64-bit modulo (the dominant hashing cost),
        # and the extra slots only lower the false-positive rate.
        self.n_bits = 1 << (int(m) - 1).bit_length()
        self.n_hashes = max(1, round(m / capacity * math.log(2)))
        self._slots = np.zeros(self.n_bits, dtype=np.uint8)
        self.capacity = capacity
        self.fp_rate = fp_rate

    # -- hashing ---------------------------------------------------------
    def _probe_positions(self, keys: np.ndarray) -> np.ndarray:
        """(len(keys), n_hashes) array of bit positions (double hashing)."""
        h1 = splitmix64(keys)
        h2 = splitmix64(keys ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
        i = np.arange(self.n_hashes, dtype=np.uint64)[None, :]
        return (h1[:, None] + i * h2[:, None]) & np.uint64(self.n_bits - 1)

    # -- operations ------------------------------------------------------
    def add(self, keys: np.ndarray) -> None:
        """Insert a batch of keys."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        self._slots[self._probe_positions(keys).ravel()] = 1

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership test for a batch of keys (vectorized).

        Returns a boolean array; true entries may include false positives at
        roughly the configured rate, never false negatives.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        return self._slots[self._probe_positions(keys)].all(axis=1)

    def add_and_test(self, keys: np.ndarray) -> np.ndarray:
        """Insert keys and report which were (probably) already present.

        This is the first-pass primitive of the two-pass counter: the
        returned mask marks k-mers seen at least twice, which are the only
        ones admitted to the counting table.  Duplicate keys *within* the
        batch are handled: the second and later occurrences in the batch
        report present.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        seen = np.zeros(keys.shape[0], dtype=bool)
        # Process in insertion order but vectorized: first test the whole
        # batch against the pre-batch filter, then account for intra-batch
        # duplicates via sorting (first occurrence of a duplicated key is
        # "new", later ones are "seen").
        pre = self.contains(keys)
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        dup_of_prev = np.zeros(sk.shape[0], dtype=bool)
        dup_of_prev[1:] = sk[1:] == sk[:-1]
        seen[order] = dup_of_prev
        seen |= pre
        self.add(keys)
        return seen

    @property
    def fill_ratio(self) -> float:
        """Fraction of set slots (diagnostic; high values degrade accuracy)."""
        return float(self._slots.mean())
