"""The k-mer stages as the paper states them: the reference the
histogram counter and the column-op A scan must equal.

:func:`count_kmers_loop` is the two-pass CountKmer of Section IV-C, literal:
per-read seed extraction, send lists built with one boolean mask per owner,
a :class:`BloomFilter` per owner whose ``add_and_test`` admits keys into a
``dict[int, int]`` table in pass 1, exact counting of admitted keys in
pass 2, reliable selection over the dicts.  It shares no counting code with
:func:`repro.seqs.kmer_counter.count_kmers`, which is what makes the parity
suites mean something: the reliable table and every ``CountKmer``
communication record must be byte-identical.  :func:`build_a_matrix_loop`
is CreateSpMat with a read-by-read scan in place of the column-op one, over
the runtime's block routing.  Test-only: nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.core.memory import coo_nbytes
from repro.core.overlap import (_block_cuts, _charge_routing,
                                _gather_blocks)
from repro.core.semirings import A_NFIELDS
from repro.dsparse.distmat import DistMat
from repro.exec import SERIAL
from repro.mpisim.grid import block_bounds
from repro.mpisim.tracker import StageTimer
from repro.seqs.kmer_counter import STAGE, KmerTable, _superstep
from repro.seqs.kmers import splitmix64
from repro.seqs.seeding import FullKScheme

from oracles.kmers import seeds_of_read


# -- the Bloom filter ---------------------------------------------------------

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


# -- CountKmer ----------------------------------------------------------------

def extract_task(ctx, owned_idx):
    """One rank's seed extraction over its block of reads."""
    reads, scheme = ctx
    parts = [seeds_of_read(scheme, reads[int(i)])[0] for i in owned_idx]
    return np.concatenate(parts) if parts else np.empty(0, np.uint64)


def pass1_task(ctx, task):
    """First-pass handling at one owner rank: Bloom insert + admission.

    Takes and returns the rank's filter (a process pool ships it back
    mutated) plus the keys the Bloom test admitted; the admission table
    itself stays in the parent so it is never pickled.
    """
    bloom, incoming = task
    seen = bloom.add_and_test(incoming)
    return bloom, incoming[seen]


def pass2_task(ctx, task):
    """Second-pass handling at one owner rank: exact counting.

    ``admitted_keys`` is the rank's sorted admitted-key array, a compact
    stand-in for the admission table.  Returns the (admitted key, count)
    arrays for the parent to fold into its table.
    """
    admitted_keys, incoming = task
    if admitted_keys.shape[0] == 0 or incoming.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    uniq, cnt = np.unique(incoming, return_counts=True)
    idx = np.searchsorted(admitted_keys, uniq)
    idx = np.minimum(idx, admitted_keys.shape[0] - 1)
    hit = admitted_keys[idx] == uniq
    return uniq[hit], cnt[hit]


def reliable_task(ctx, table):
    """Reliable selection at one owner rank (its dict table)."""
    lower, upper = ctx
    if not table:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    kk = np.fromiter(table.keys(), dtype=np.uint64, count=len(table))
    cc = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    keep = (cc >= lower) & (cc <= upper)
    return kk[keep], cc[keep]


def group_by_dest_masks(sl: np.ndarray, dl: np.ndarray, nprocs: int
                        ) -> list[np.ndarray]:
    """Reference send-list construction: one boolean mask per rank."""
    return [sl[dl == q] for q in range(nprocs)]


def count_kmers_loop(reads, k: int, comm, timer: StageTimer | None = None,
                     *, batches: int = 1, bloom_fp: float = 0.01,
                     lower: int = 2, upper: int = 8, executor=None,
                     scheme=None) -> KmerTable:
    """The two-pass protocol as the paper states it.

    Same contract as :func:`repro.seqs.kmer_counter.count_kmers` (whose
    refusals it repeats), except that it keeps no seed stream for
    CreateSpMat.  ``bloom_fp`` is the filters' false-positive target; the
    result never depends on it, because ``lower >= 2``.
    """
    if lower < 2:
        raise ValueError(
            f"count_kmers needs lower >= 2, got {lower}: a two-pass "
            f"Bloom-filtered count cannot observe singletons")
    if upper < lower:
        raise ValueError(
            f"count_kmers needs upper >= lower, got upper={upper} < "
            f"lower={lower}: no multiplicity would be reliable")
    if batches < 1:
        raise ValueError(
            f"count_kmers needs batches >= 1, got {batches}: every pass "
            f"takes at least one exchange round")
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    scheme = scheme if scheme is not None else FullKScheme(k)
    P = comm.nprocs
    superstep = functools.partial(_superstep, timer, executor)
    bounds = block_bounds(len(reads), P)
    owned = [np.arange(bounds[p], bounds[p + 1], dtype=np.int64)
             for p in range(P)]

    # Extract (canonical) seed k-mers per rank once; reused by both passes.
    rank_kmers = superstep(extract_task, owned,
                           [idx.shape[0] for idx in owned], (reads, scheme))
    dest = [(splitmix64(km) % np.uint64(P)).astype(np.int64)
            for km in rank_kmers]

    total_kmers = sum(km.shape[0] for km in rank_kmers)
    blooms = [BloomFilter(max(64, total_kmers // max(1, P)), bloom_fp)
              for _ in range(P)]
    admitted: list[dict[int, int]] = [dict() for _ in range(P)]

    def exchange_rounds(run_round) -> None:
        """One pass = ``batches`` alltoallv rounds + local handling."""
        for b in range(batches):
            send = []
            for km, dl in zip(rank_kmers, dest):
                n = km.shape[0]
                lo, hi = (n * b) // batches, (n * (b + 1)) // batches
                send.append(group_by_dest_masks(km[lo:hi], dl[lo:hi], P))
            recv = comm.alltoallv(send, stage=STAGE)
            run_round([np.concatenate(recv[q]) if recv[q] else
                       np.empty(0, np.uint64) for q in range(P)])

    def pass1(incoming: list[np.ndarray]) -> None:
        out = superstep(pass1_task, list(zip(blooms, incoming)),
                        [inc.shape[0] for inc in incoming])
        for q, (bloom, new_keys) in enumerate(out):
            blooms[q] = bloom
            for kv in new_keys:
                admitted[q].setdefault(int(kv), 0)

    def pass2(incoming: list[np.ndarray]) -> None:
        out = superstep(pass2_task, list(zip(pass2_keys, incoming)),
                        [inc.shape[0] for inc in incoming])
        for q, (hit_keys, counts) in enumerate(out):
            for kv, c in zip(hit_keys, counts):
                admitted[q][int(kv)] += int(c)

    exchange_rounds(pass1)
    # The admitted key sets are frozen once pass 1 completes, so the sorted
    # key arrays the pass-2 workers search are materialized exactly once.
    pass2_keys = [np.sort(np.fromiter(table.keys(), dtype=np.uint64,
                                      count=len(table)))
                  for table in admitted]
    exchange_rounds(pass2)
    rel_parts = superstep(reliable_task, admitted,
                          [len(t) for t in admitted], (lower, upper))
    # Global dictionary assembly, as the runtime does it: an allgather of
    # the per-rank reliable sets; column ids are the sorted order.
    comm.allgather([p[0] for p in rel_parts], stage=STAGE)
    all_k = np.concatenate([p[0] for p in rel_parts])
    all_c = np.concatenate([p[1] for p in rel_parts])
    order = np.argsort(all_k)
    return KmerTable(k=k, kmers=all_k[order], counts=all_c[order],
                     lower=lower, upper=upper, seeds=total_kmers)


# -- CreateSpMat --------------------------------------------------------------

def a_scan_task(ctx, span):
    """Executor task: one 1D rank's (read, seed k-mer) entry scan.

    Scans read by read and returns what the runtime's column-op scan
    (:func:`repro.core.overlap._a_scan_batch_task`) returns: ``(entries |
    None, tally)``, entries grouped by destination block; ``tally`` is the
    dictionary lookup's exact work
    (:meth:`~repro.seqs.kmer_counter.KmerTable.lookup`).
    """
    reads, table, scheme, bounds = ctx
    lo, hi = span
    rr, cc, vv = [], [], []
    tally: dict[str, int] = {}
    for gi in range(lo, hi):
        keys, seed_pos, seed_flip = seeds_of_read(scheme, reads[gi])
        if keys.shape[0] == 0:
            continue
        col = table.lookup(keys, tally)
        ok = col >= 0
        if not ok.any():
            continue
        pos = seed_pos[ok]
        col = col[ok]
        flip = seed_flip[ok].astype(np.int64)
        # Keep the first occurrence per (read, k-mer).
        _, first = np.unique(col, return_index=True)
        rr.append(np.full(first.shape[0], gi, dtype=np.int64))
        cc.append(col[first])
        vv.append(np.stack([pos[first], flip[first]], axis=1))
    if not rr:
        return None, tally
    row, col, vals = np.concatenate(rr), np.concatenate(cc), np.vstack(vv)
    # The (block column, rank-local read, column) key, its block column
    # found by binary search over the column bounds.
    blk = np.searchsorted(bounds[1], col, side="right") - 1
    key = (blk * (hi - lo) + row - lo) * np.int64(len(table)) + col
    order = np.argsort(key, kind="stable")
    return (row[order], col[order], vals[order],
            _block_cuts(key[order], lo, hi - lo, len(table), bounds)), tally


def build_a_matrix_loop(reads, table: KmerTable, grid, comm,
                        timer: StageTimer | None = None, executor=None,
                        scheme=None) -> DistMat:
    """:func:`repro.core.overlap.build_a_matrix` with the read-by-read scan.

    The scan never reads CountKmer's kept seed stream; like the runtime it
    drops it from ``table``.  Routing, traffic and the recorded peak are
    the runtime's own (:func:`repro.core.overlap._gather_blocks`).
    """
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    scheme = scheme if scheme is not None else FullKScheme(table.k)
    stage = "CreateSpMat"
    P = comm.nprocs
    n, m = len(reads), len(table)
    bounds = (grid.row_bounds(n), grid.col_bounds(m))
    read_bounds = block_bounds(n, P)
    spans = [(int(read_bounds[p]), int(read_bounds[p + 1])) for p in range(P)]
    table.take_stream()
    with timer.superstep(stage) as step:
        parts, secs = executor.run_timed(
            a_scan_task, spans, context=(reads, table, scheme, bounds),
            weights=[hi - lo for lo, hi in spans])
        step.charge_many(range(P), secs)
    for _, tally in parts:
        for name, count in tally.items():
            timer.count_work(stage, name, count)
    blocks, moved = _gather_blocks([entries for entries, _ in parts], spans,
                                   grid, bounds)
    _charge_routing(moved, comm, stage)
    timer.record_peak_bytes(stage, coo_nbytes(int(moved.sum()), A_NFIELDS))
    return DistMat((n, m), grid, blocks, A_NFIELDS)
