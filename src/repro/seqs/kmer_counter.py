"""Distributed k-mer counting: exact per-owner histograms.

Reproduces diBELLA 2D's counter (paper Section IV-C, after HipMer): k-mers
are hashed to an owner rank and shipped there in two passes of
``MPI_Alltoallv`` exchanges — in the paper the first pass feeds a Bloom
filter that admits a k-mer to the owner's counting table once it has been
seen twice (singleton elimination), the second accumulates exact counts for
admitted k-mers.  With ``batches`` rounds per pass the latency cost is
``Y = bP`` (Table I).

Reliable-k-mer selection then discards k-mers outside
``[2, upper]`` where ``upper`` follows BELLA's dataset-specific model
(:func:`reliable_upper_bound`): with error rate ``e`` a k-mer instance is
error-free with probability ``(1-e)^k``, so correct k-mers have multiplicity
``≈ Poisson(d·(1-e)^k)`` and anything far above that quantile is a repeat or
artifact.  With the paper's CLR parameters (k=17, e≈0.15, d=10–40) this model
lands on the small cutoffs the paper reports (they use max frequency 4 for
H. sapiens).  The quantile is computed here, exactly and with :mod:`math`
only (:func:`_poisson_quantile`).  It is one number per run, and taking it
from scipy's statistics package made every process import that package's
whole dependency tree for it: about 50 MB of resident memory and most of a
second of start-up.  ``tests/test_import_floor.py`` keeps it out.

Because the lower bound is at least 2, the protocol's *result* never
depends on the Bloom filter: false positives only admit singletons, which
selection discards, and admitted keys are counted exactly — so the reliable
table is precisely ``{key: lower <= count <= upper}`` of each owner's exact
histogram (:func:`table_from_histogram`).  This engine therefore keeps no
admission state at all: per exchange round each owner reduces its incoming
k-mers to a sorted ``(key, count)`` histogram, the second pass is replayed
for its communication cost only, and selection is one merge-sum plus filter
per owner.  ``table_budget`` decides only where that state lives
(re-extracted seeds and on-disk sorted runs instead of resident arrays);
"resident" is the zero-spill case of the same code, and hands its per-rank
seed streams on the table to CreateSpMat, so a run extracts each window
once.

The literal protocol — per-read extraction, a real Bloom filter,
``dict[int, int]`` tables, both passes — is the reference the parity suites
hold this engine to (``tests/oracles/kmer_loop.py``): the same
:class:`KmerTable` and the same communication records, byte for byte.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from ..exec import Executor, SERIAL
from ..mpisim.comm import SimComm
from ..mpisim.grid import block_bounds, partition_by_owner
from ..mpisim.tracker import StageTimer, add_work
from ..options import KMER_IMPL
from .fasta import ReadSet
from .kmers import splitmix64
from .seeding import FullKScheme, SeedScheme
from .spill import combine_histograms, merge_pair_runs, write_pair_run

__all__ = ["KmerTable", "reliable_upper_bound", "count_kmers",
           "merge_histograms", "table_from_histogram"]

STAGE = "CountKmer"

def _superstep(timer: StageTimer, executor: Executor, fn, tasks, weights,
               context=None) -> list:
    """One executor superstep, task ``i`` charged to rank ``i``."""
    with timer.superstep(STAGE) as step:
        out, secs = executor.run_timed(fn, tasks, context=context,
                                       weights=weights)
        step.charge_many(range(len(tasks)), secs)
    return out


# -- histogram-engine tasks (module-level so the process pool can pickle
# -- them) ------------------------------------------------------------------

def _extract_batch_task(ctx, span):
    """One rank's seed stream as a single SoA sweep over its read span.

    Returns ``(keys, flip, ridx, pos)``: the canonical seed keys and their
    flip bits, plus — for sparse schemes only — each seed's rank-local read
    index and window position.  The full-k stream is ``(keys, flip, None,
    None)``, packed over the span's whole code stretch with the straddling
    windows compressed away and nothing gathered per window
    (:meth:`~repro.seqs.seeding.SeedScheme.seeds_of_block` without
    positions): window ``i`` of the rank is recoverable from the read
    lengths alone, so CreateSpMat derives read and position for its hits
    only.  The worker takes its block from the ReadSet in the context.
    Key order is read-major, window order within a read, for every
    :class:`~repro.seqs.seeding.SeedScheme`.
    """
    scheme, reads = ctx
    keys, ridx, pos, flip = scheme.seeds_of_block(*reads.soa_block(*span),
                                                  False)
    return keys, flip, ridx, pos


def _group_by_dest_sorted(sl: np.ndarray, dl: np.ndarray, nprocs: int
                          ) -> list[np.ndarray]:
    """Send-list construction: one stable partition by owner rank.

    The partition groups the k-mers per rank while preserving their
    original relative order, so every per-destination subarray is
    byte-identical to the mask-based reference — in one pass instead of
    ``nprocs``, and without comparing anything wider than a rank id
    (:func:`~repro.mpisim.grid.partition_by_owner`).
    """
    order, bounds = partition_by_owner(dl, nprocs)
    return np.split(sl[order], bounds[1:-1])


def _send_lists(keys: np.ndarray, nprocs: int) -> list[np.ndarray]:
    """One rank's per-owner send lists for a slice of its seed stream."""
    return _group_by_dest_sorted(keys, splitmix64(keys) % np.uint64(nprocs),
                                 nprocs)


def _seed_count_task(ctx, span):
    """Per-read seed counts over one rank's read span (budgeted source).

    Swept in fixed sub-blocks so the transient extraction buffer stays
    bounded regardless of span size — the whole point of the budgeted
    path.  The counts feed the per-rank prefix sums that let each exchange
    round re-extract exactly its slice of the seed stream.
    """
    scheme, reads = ctx
    lo, hi = span
    counts = np.zeros(hi - lo, dtype=np.int64)
    for sub in range(lo, hi, 2048):
        sub_hi = min(sub + 2048, hi)
        keys, ridx = scheme.seeds_of_block(
            *reads.soa_block(sub, sub_hi))[:2]
        counts[sub - lo:sub_hi - lo] = np.bincount(
            ridx, minlength=sub_hi - sub)[:sub_hi - sub]
    return counts


def _round_extract_task(ctx, task):
    """One rank's send lists for one exchange round (budgeted source).

    ``task = (r0, r1, skip, take)``: extract the seeds of reads
    ``[r0, r1)``, drop the first ``skip`` (they belong to earlier rounds)
    and keep ``take``.  Extraction is read-major and the owner hash
    elementwise, so this slice is byte-identical to the same slice of the
    resident source's one-shot stream — hence the same alltoallv traffic.
    """
    scheme, reads, nprocs = ctx
    r0, r1, skip, take = task
    keys = scheme.seeds_of_block(*reads.soa_block(r0, r1), False)[0]
    return _send_lists(keys[skip:skip + take], nprocs)


def _round_hist_task(ctx, task):
    """One owner rank's ``(distinct key, count)`` histogram of a round.

    ``task = (pieces, select)``: the owner's incoming send lists, joined
    here so no rank's concatenation outlives its own task, and whether
    this histogram is the owner's whole count — then only its reliable
    keys (``ctx = (lower, upper)``) come back, and the full histogram
    never leaves the task.
    """
    pieces, select = task
    # The join is this task's own: sort it in place (``np.unique`` would
    # sort a second copy).
    keys = np.concatenate(pieces)
    keys.sort()
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    at = np.flatnonzero(first)
    uniq, cnt = keys[at], np.diff(at, append=keys.shape[0])
    if select:
        lower, upper = ctx
        keep = (cnt >= lower) & (cnt <= upper)
        return uniq[keep], cnt[keep]
    return uniq, cnt


def _reliable_hist_task(ctx, task):
    """Reliable selection at one owner rank: merge-sum, then filter.

    ``task = (parts, runs)``: the rank's buffered round histograms, or —
    when it spilled — its sorted runs, replayed by a chunked k-way
    merge-sum in bounded memory.  Either way the merged stream is the
    rank's exact per-key totals; see :func:`table_from_histogram` for why
    filtering them equals the two-pass Bloom-admitted table.
    """
    lower, upper = ctx
    parts, runs = task
    if runs:
        chunks = merge_pair_runs(runs)
    else:  # a round histogram is already sorted-unique
        chunks = [parts[0] if len(parts) == 1 else combine_histograms(parts)]
    kparts = [np.empty(0, np.uint64)]
    cparts = [np.empty(0, np.int64)]
    for keys, counts in chunks:
        keep = (counts >= lower) & (counts <= upper)
        kparts.append(keys[keep])
        cparts.append(counts[keep])
    return np.concatenate(kparts), np.concatenate(cparts)


def merge_histograms(keys: np.ndarray, counts: np.ndarray,
                     new_keys: np.ndarray, new_counts: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted k-mer histograms: shared keys add, fresh keys splice.

    A linear two-way splice: membership is one ``searchsorted``, present
    keys accumulate in place, absent keys are inserted at their sorted
    positions — the output stays sorted without a re-sort.  Returns new
    arrays; the inputs are never mutated (older service versions keep
    aliasing theirs).
    """
    if new_keys.size == 0:
        return keys, counts
    if keys.shape[0] == 0:
        return new_keys.copy(), new_counts.copy()
    idx = np.searchsorted(keys, new_keys)
    present = np.zeros(new_keys.shape[0], dtype=bool)
    inb = idx < keys.shape[0]
    present[inb] = keys[idx[inb]] == new_keys[inb]
    merged_counts = counts.copy()
    merged_counts[idx[present]] += new_counts[present]   # keys are unique
    fresh = ~present
    if not fresh.any():
        return keys, merged_counts
    return (np.insert(keys, idx[fresh], new_keys[fresh]),
            np.insert(merged_counts, idx[fresh], new_counts[fresh]))


def table_from_histogram(keys: np.ndarray, counts: np.ndarray, k: int,
                         lower: int = 2, upper: int = 8) -> "KmerTable":
    """Reliable-k-mer table as a filter of an exact histogram.

    Byte-identical to :func:`count_kmers` on the same reads: the two-pass
    counter admits every key occurring at least twice (the Bloom filter's
    false positives only ever *add* singletons, which the ``lower`` bound
    then discards) and counts admitted keys exactly, so its final table is
    precisely ``{key: lower <= count <= upper}`` of the true histogram.
    The histogram's total is the seed instances counted, so the table
    knows its reliable fraction (:attr:`KmerTable.seeds`).
    """
    keep = (counts >= lower) & (counts <= upper)
    return KmerTable(k=k, kmers=keys[keep].copy(),
                     counts=counts[keep].copy(), lower=lower, upper=upper,
                     seeds=int(counts.sum()))


#: In-bucket steps :meth:`KmerTable.lookup` walks before handing what is
#: still unresolved to a binary search.  Buckets hold under one key on
#: average, so each step retires about two thirds of its queries and the
#: walk's cost is a geometric series: on the benchmark tables (123 k keys /
#: 2.7 M windows and 27 k / 0.87 M) caps of 2, 3, 4, 6, 8 measured 0.156,
#: 0.110, 0.089, 0.084, 0.080 s and 0.032, 0.020, 0.016, 0.015, 0.014 s
#: against 0.416 and 0.106 s for binary search alone, with 3.2 % / 1.6 % of
#: the windows left over at 4.  On a table whose keys all share one bucket
#: every step is pure overhead (~0.035 s per step per 2.7 M windows on top
#: of the same binary search), so the cap sits at the knee, not past it.
_LOOKUP_STEPS = 4

#: Reliable fraction below which :meth:`KmerTable.lookup` tests a hashed
#: occupancy map before the walk.  The map costs every query a hash and a
#: gather and spares the walk only the misses it rejects, so it pays where
#: misses dominate.  Swept over the hit fraction of 2.73 M / 0.87 M queries
#: against the two benchmark tables (123 k / 27 k keys, 2-vCPU host), the
#: filtered-to-unfiltered time ratio was 0.40 / 0.54 at a 0.1 hit
#: fraction, 0.78 / 0.74 at 0.5–0.6, 0.89–0.94 / 0.84–0.97 at 0.7 and
#: 0.94–1.05 / 1.08 at 0.8: break-even near 0.75, so the map is built
#: below 0.7.  On the real streams, ``chain_wide`` (0.143 reliable) goes
#: 0.14 → 0.075 s; ``hifi_deep`` (0.865) would go 0.049 → 0.054 s and is
#: left unfiltered.
_PREFILTER_BELOW = 0.7

#: Fibonacci-hashing multiplier (2⁶⁴ / golden ratio, odd): the top bits of
#: ``key · _MIX`` name a key's occupancy slot.
_MIX = np.uint64(0x9E3779B97F4A7C15)


@dataclass
class _SeedStream:
    """CountKmer's per-rank seed streams, kept for CreateSpMat.

    ``ranks[p]`` is rank ``p``'s :func:`_extract_batch_task` output over
    read span ``spans[p]`` of ``reads`` under ``scheme``; the three
    together say which scan may use it.
    """

    reads: ReadSet
    scheme: SeedScheme
    spans: list
    ranks: list


@dataclass
class KmerTable:
    """Result of distributed counting: the reliable k-mer dictionary.

    ``kmers`` is sorted ascending (packed canonical ``uint64``), so the
    global column id of a k-mer is its index.  ``counts`` holds the total
    multiplicities.  ``seeds`` is the number of seed instances the counts
    were taken over when the maker knows it (:func:`count_kmers`,
    :func:`table_from_histogram`), so ``counts.sum() / seeds`` is the
    fraction of the counted windows that are reliable — the hit rate of an
    A scan over the same reads.

    :meth:`lookup` finds that index through a prefix-bucket index built
    here, once per table: one ``int32`` start per bucket of the keys' top
    bits, a power-of-two bucket count of at most ``2·len(table)`` (so the
    index is no larger than ``kmers`` itself).  A table whose reliable
    fraction is known and below :data:`_PREFILTER_BELOW` also gets an
    occupancy map: one ``bool`` per hash slot, the largest power of two
    of slots up to ``8·len(table)`` (again no larger than ``kmers``).
    Both are plain instance state: a table pickled to a process worker
    arrives with them.

    :func:`count_kmers` may leave its seed stream on the table for
    :func:`~repro.core.overlap.build_a_matrix`, which takes it
    (:meth:`take_stream`).  The stream is never compared and never pickled.
    """

    k: int
    kmers: np.ndarray
    counts: np.ndarray
    lower: int
    upper: int
    seeds: int | None = field(default=None, compare=False)
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _shift: np.uint64 = field(init=False, repr=False, compare=False)
    _occ: np.ndarray | None = field(init=False, repr=False, compare=False)
    _occ_shift: np.uint64 = field(init=False, repr=False, compare=False)
    _stream: _SeedStream | None = field(init=False, repr=False,
                                        compare=False, default=None)

    def __post_init__(self) -> None:
        m = len(self)
        if m >= 2 ** 31:
            raise ValueError(f"KmerTable indexes its keys with int32 starts; "
                             f"{m} keys do not fit")
        bucket_bits = (2 * m).bit_length() - 1 if m else 0
        key_bits = int(self.kmers[-1]).bit_length() if m else 0
        self._shift = np.uint64(max(0, key_bits - bucket_bits))
        self._starts = np.zeros((1 << bucket_bits) + 1, dtype=np.int32)
        np.cumsum(np.bincount((self.kmers >> self._shift).view(np.int64),
                              minlength=1 << bucket_bits),
                  out=self._starts[1:])
        self._occ = None
        if m and self.seeds and \
                int(self.counts.sum()) < _PREFILTER_BELOW * self.seeds:
            slot_bits = (8 * m).bit_length() - 1
            self._occ_shift = np.uint64(64 - slot_bits)
            self._occ = np.zeros(1 << slot_bits, dtype=bool)
            self._occ[self._slots(self.kmers)] = True

    def __len__(self) -> int:
        return int(self.kmers.shape[0])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_stream"] = None
        return state

    def _slots(self, kmers: np.ndarray) -> np.ndarray:
        """Occupancy-map slot of each key: the top bits of ``key · _MIX``."""
        slot = kmers * _MIX
        slot >>= self._occ_shift
        return slot.view(np.int64)

    def take_stream(self, reads: ReadSet | None = None,
                    scheme: SeedScheme | None = None,
                    spans: list | None = None) -> list | None:
        """Take the seed stream :func:`count_kmers` left on this table.

        Returns the per-rank streams if they were extracted from this very
        ``reads`` object under an equal ``scheme`` over the same rank
        ``spans``, else ``None`` (the caller re-extracts).  Either way the
        table holds no stream afterwards; call with no arguments to just
        drop it.
        """
        stream, self._stream = self._stream, None
        if stream is None or stream.reads is not reads or \
                stream.scheme != scheme or stream.spans != spans:
            return None
        return stream.ranks

    def lookup(self, kmers: np.ndarray, tally: dict | None = None
               ) -> np.ndarray:
        """Column ids for the given packed k-mers; -1 if not reliable.

        A query's top bits name its bucket, the bucket's start is where a
        forward walk over the sorted keys begins, and the walk ends at the
        first key not below the query — the query's column if equal.  The
        walk is shared by all queries, :data:`_LOOKUP_STEPS` steps long;
        whatever it has not resolved by then (crowded buckets, queries
        above every key) is finished by ``searchsorted``, so a table whose
        keys share a long prefix costs a binary search plus a bounded
        number of wasted steps.

        On a table whose reliable fraction is under
        :data:`_PREFILTER_BELOW` (known from ``seeds``; the measured sweep
        is recorded there) every query first tests its slot of the
        occupancy map, and only queries whose slot holds a key walk: an
        empty slot proves a miss.  The choice depends on the table alone,
        never on the queries, so it cannot move any result or counter
        with the batching.

        ``kmers`` must be ``uint64`` (any order, repeats allowed,
        read-only is fine).  ``tally`` (optional dict) gains the exact
        work: ``windows`` looked up (every query, filtered or not),
        ``probes`` = table keys compared by the walk (prefiltered misses
        compare none), ``leftover`` = queries handed to the binary search;
        all three are sums over queries, whatever the batching.
        """
        if kmers.dtype != np.uint64:
            raise TypeError(f"KmerTable.lookup needs uint64 packed k-mers, "
                            f"got {kmers.dtype}")
        keys = self.kmers
        col = np.full(kmers.shape[0], -1, dtype=np.int64)
        if len(self) == 0 or kmers.shape[0] == 0:
            add_work(tally, windows=col.shape[0], probes=0, leftover=0)
            return col
        if self._occ is None:
            where = np.arange(kmers.shape[0])
        else:   # an empty slot holds no key: only the survivors walk
            where = np.flatnonzero(self._occ.take(self._slots(kmers)))
            kmers = kmers[where]
        # A prefix past the last bucket clips onto the end of the table.
        at = self._starts.take((kmers >> self._shift).view(np.int64),
                               mode="clip")
        probes = 0
        for _ in range(_LOOKUP_STEPS):
            seen = keys.take(at, mode="clip")
            probes += at.shape[0]
            hit = np.flatnonzero(seen == kmers)
            col[where[hit]] = at[hit]
            below = np.flatnonzero(seen < kmers)
            where, kmers, at = where[below], kmers[below], at[below] + 1
        if where.shape[0]:
            at = np.searchsorted(keys, kmers)
            at[at == len(self)] = 0     # above every key: equal to none
            hit = np.flatnonzero(keys[at] == kmers)
            col[where[hit]] = at[hit]
        add_work(tally, windows=col.shape[0], probes=probes,
                 leftover=where.shape[0])
        return col


#: Largest coverage :func:`reliable_upper_bound` accepts.  The quantile
#: costs O(√μ) steps, so a mistyped hint like 1e300 would never return;
#: no sequencing run comes near this.
MAX_DEPTH = 1e6


def reliable_upper_bound(depth: float, error_rate: float, k: int,
                         quantile: float = 0.998) -> int:
    """BELLA-style maximum reliable k-mer multiplicity.

    Mean multiplicity of a correct, unique-locus k-mer is
    ``μ = depth · (1 - e)^k``; the upper cutoff is the ``quantile`` point of
    ``Poisson(μ)`` — the smallest ``n`` with ``CDF(n; μ) >= quantile``, the
    integer scipy's ``poisson.ppf`` returns — and never below 4 (the
    floor the paper's runs effectively used).  Inputs outside the model
    (``depth`` outside ``(0, MAX_DEPTH]``, ``error_rate`` outside
    ``[0, 1)``, ``quantile`` outside ``(0, 1)``) are refused by name.
    """
    if not 0 < depth <= MAX_DEPTH:
        raise ValueError(
            f"depth must be a coverage in (0, {MAX_DEPTH:g}], got {depth!r}")
    if not 0 <= error_rate < 1:
        raise ValueError(
            f"error_rate must lie in [0, 1), got {error_rate!r}")
    if not 0 < quantile < 1:
        raise ValueError(f"quantile must lie in (0, 1), got {quantile!r}")
    mu = depth * (1.0 - error_rate) ** k
    return max(4, _poisson_quantile(quantile, mu))


def _poisson_quantile(q: float, mu: float) -> int:
    """Smallest ``n`` with ``CDF(n; μ) >= q`` for ``X ~ Poisson(μ)``.

    The pmf terms are summed in log space (``log p_n = log p_{n-1} +
    log μ - log n``, running ``log CDF`` by log-add-exp), so ``exp(-μ)``
    never underflows.  Terms below ``n0 = μ - 40√μ`` are skipped: by the
    Poisson lower-tail bound they hold under ``e^-800`` of the mass, less
    than the smallest positive double.  The sum runs past the mode until
    a term falls ``e^-60`` below it, and ``CDF(n)`` is taken relative to
    that total, so the start term's rounding (``lgamma`` for ``n0 > 0``)
    cancels instead of scaling every ``CDF(n)``.  What remains is
    rounding of order ``n·2⁻⁵²`` in each ``log CDF(n)``: the result can
    differ from scipy's ``poisson.ppf`` only when some ``CDF(n)`` lies
    within that of ``q``.  The parity suite checks that this does not
    happen over μ from 1e-3 to 1e4 and q from 0.5 to 0.9999.
    """
    if mu == 0.0:           # (1 - e)^k underflowed: all mass at 0
        return 0
    log_mu = math.log(mu)
    n = max(0, math.ceil(mu - 40.0 * math.sqrt(mu)))
    log_p = n * log_mu - mu - math.lgamma(n + 1.0)
    log_cdf = [log_p]       # log CDF(n0 + i), non-decreasing
    while n < mu or log_p > log_cdf[-1] - 60.0:
        n += 1
        log_p += log_mu - math.log(n)
        hi, lo = max(log_cdf[-1], log_p), min(log_cdf[-1], log_p)
        log_cdf.append(hi + math.log1p(math.exp(lo - hi)))
    n0 = n + 1 - len(log_cdf)
    return n0 + bisect.bisect_left(log_cdf, log_cdf[-1] + math.log(q))


def count_kmers(reads: ReadSet, k: int, comm: SimComm,
                timer: StageTimer | None = None, *,
                batches: int = 1, lower: int = 2, upper: int = 8,
                executor: Executor | None = None,
                impl: str | None = None,
                scheme: SeedScheme | None = None,
                table_budget: int | None = None,
                spill_dir: str | None = None) -> KmerTable:
    """Distributed two-pass k-mer counting, as exact per-owner histograms.

    Parameters
    ----------
    reads:
        The full read set (rank ``p`` processes its balanced block slice).
    k:
        K-mer length.
    comm:
        Simulated communicator (traffic charged to stage ``"CountKmer"``).
    timer:
        Optional stage timer (per-rank compute, max-reduced per superstep).
    batches:
        Number of exchange rounds per pass (``b`` in Table I's ``Y = bP``).
    lower, upper:
        Reliable multiplicity range (inclusive); compute ``upper`` with
        :func:`reliable_upper_bound` for dataset-driven values.  ``lower``
        must be at least 2: the paper's two-pass Bloom-filtered count
        cannot observe singletons, and that bound is what makes the exact
        histogram's filter its table.
    executor:
        :class:`~repro.exec.Executor` spreading each superstep's per-rank
        work over real workers; ``None`` runs them serially.
        The resulting table is byte-identical either way.
    impl:
        A ``kmer_impl`` option name (:data:`repro.options.KMER_IMPL`):
        validated, selects nothing (``"batch"`` is the one engine,
        :func:`_count_kmers_hist`).
    scheme:
        :class:`~repro.seqs.seeding.SeedScheme` choosing which windows of
        each read are counted; ``None`` keeps the full-k default (every
        window — the paper's behavior).
    table_budget:
        Optional byte ceiling for the histogram engine's counting state.
        ``None`` keeps it resident: one seed extraction per rank, no files,
        and the extracted streams ride on the returned table to
        :func:`~repro.core.overlap.build_a_matrix`, whose scan then
        extracts nothing — each window is packed once per run.  When set,
        each round's seeds are re-extracted instead of held, an owner
        whose buffered histograms reach its ``table_budget / P`` share
        flushes them to a sorted disk run, and no stream is kept.  Output
        and traffic cannot move (see :func:`_count_kmers_hist`).
    spill_dir:
        Directory under which the spill runs' temporary directory is
        created (``None`` = the system temp dir).  Always removed on exit.

    Returns
    -------
    KmerTable
        The sorted reliable k-mer dictionary with counts, and ``seeds``
        (the seed instances counted), from which it picks its lookup
        prefilter (:data:`_PREFILTER_BELOW`).  An unbudgeted count also
        leaves its seed stream on it
        (:meth:`KmerTable.take_stream`).

    ``batches < 1`` and ``upper < lower`` are refused: either would count
    nothing and return an empty table.
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
    KMER_IMPL.resolve(impl)
    rel_parts, seeds, stream = _count_kmers_hist(
        reads, comm, timer, batches, lower, upper, executor, scheme,
        table_budget, spill_dir)
    # Global dictionary assembly: an allgather of the per-rank reliable
    # sets; column ids are the sorted order.
    comm.allgather([p[0] for p in rel_parts], stage=STAGE)
    all_k = np.concatenate([p[0] for p in rel_parts])
    all_c = np.concatenate([p[1] for p in rel_parts])
    order = np.argsort(all_k)
    table = KmerTable(k=k, kmers=all_k[order], counts=all_c[order],
                      lower=lower, upper=upper, seeds=seeds)
    table._stream = stream
    return table


def _count_kmers_hist(reads: ReadSet, comm: SimComm, timer: StageTimer,
                      batches: int, lower: int, upper: int,
                      executor: Executor, scheme: SeedScheme,
                      table_budget: int | None, spill_dir: str | None
                      ) -> tuple[list, int, _SeedStream | None]:
    """The histogram engine: per-owner reliable ``(keys, counts)`` sets,
    the number of seeds counted, and the seed stream (unbudgeted only).

    1. **Seed source.**  Unbudgeted, each rank extracts its seed stream
       once (:func:`_extract_batch_task`: keys, flips, and a sparse
       scheme's read/position columns); round ``b`` is the key slice
       ``[(n·b)/batches, (n·(b+1))/batches)``, and the whole stream is
       returned for CreateSpMat's scan, which then extracts nothing.
       Budgeted, a counting sweep gives each rank a prefix array over its
       stream, so a round's slice maps to a read range plus skip/take
       offsets and is re-extracted on demand — nothing stream-sized stays
       resident, and no stream is returned.
    2. **Pass 1, per round** — hash and stable-group the slice by owner,
       exchange, and reduce each owner's incoming to its
       ``(distinct key, count)`` histogram, joining the incoming pieces
       inside the owner's task.  Owners buffer histograms; under a budget,
       one whose buffer reaches its ``table_budget / P`` share merge-sums
       it into a sorted run on disk.  An owner whose final-round histogram
       is its whole count and cannot spill filters it to its reliable keys
       in the same task, so its full histogram is never buffered.
    3. **Pass 2** — the protocol's second exchange ships the same k-mers
       to the same owners, so its traffic is replayed from the recorded
       round sizes with placeholder payloads: the simulated communicator
       charges bytes and messages from array sizes only, and the
       placeholder pages are never even touched.
    4. **Reliable selection** — each owner merge-sums its histograms
       (buffered, or k-way from its runs) and keeps keys with total count
       in ``[lower, upper]``: exactly the Bloom-admitted two-pass table
       (:func:`table_from_histogram`), with no admission state at all.

    The budget cannot move output or traffic: both sources cut the same
    stream at the same offsets, and addition does not care where the
    partial sums waited.
    """
    P = comm.nprocs
    bounds = block_bounds(len(reads), P)
    spans = [(int(bounds[p]), int(bounds[p + 1])) for p in range(P)]
    superstep = functools.partial(_superstep, timer, executor)

    if table_budget is None:
        share, scratch = float("inf"), contextlib.nullcontext()
        pre = np.concatenate(([0], np.cumsum(reads.lengths)))
        streams = superstep(
            _extract_batch_task, spans,
            [int(pre[hi] - pre[lo]) for lo, hi in spans], (scheme, reads))
        seeds = sum(s[0].shape[0] for s in streams)
        stream = _SeedStream(reads, scheme, spans, streams)

        def round_sends(b: int) -> list[list[np.ndarray]]:
            send = []
            with timer.superstep(STAGE) as step:
                for p, (km, *_) in enumerate(streams):
                    n = km.shape[0]
                    lo, hi = (n * b) // batches, (n * (b + 1)) // batches
                    with step.rank(p):
                        send.append(_send_lists(km[lo:hi], P))
            return send
    else:
        share = max(1, int(table_budget) // P)
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        scratch = tempfile.TemporaryDirectory(
            prefix="repro-kmer-spill-", dir=spill_dir,
            ignore_cleanup_errors=True)
        seed_counts = superstep(_seed_count_task, spans,
                                [hi - lo for lo, hi in spans],
                                (scheme, reads))
        kcs = [np.concatenate(([0], np.cumsum(c))) for c in seed_counts]
        seeds, stream = sum(int(kc[-1]) for kc in kcs), None

        def round_sends(b: int) -> list[list[np.ndarray]]:
            tasks = []
            for (first, _), kc in zip(spans, kcs):
                n = int(kc[-1])
                lo, hi = (n * b) // batches, (n * (b + 1)) // batches
                r0 = int(np.searchsorted(kc, lo, side="right")) - 1
                r1 = int(np.searchsorted(kc, hi, side="left"))
                tasks.append((first + r0, first + r1,
                              lo - int(kc[r0]), hi - lo))
            return superstep(_round_extract_task, tasks,
                             [t[3] for t in tasks], (scheme, reads, P))

    with scratch as tmpdir:
        parts: list[list] = [[] for _ in range(P)]
        runs: list[list] = [[] for _ in range(P)]
        live = [0] * P

        def flush(q: int) -> None:
            path = os.path.join(tmpdir,
                                f"rank{q:03d}_run{len(runs[q]):04d}.bin")
            runs[q].append(write_pair_run(path,
                                          *combine_histograms(parts[q])))
            parts[q].clear()
            live[q] = 0

        sizes: list[list[list[int]]] = []
        for b in range(batches):
            send = round_sends(b)
            sizes.append([[int(arr.shape[0]) for arr in row]
                          for row in send])
            recv = comm.alltoallv(send, stage=STAGE)
            del send
            n_in = [sum(piece.shape[0] for piece in pieces)
                    for pieces in recv]
            # 16 bytes per distinct key bound the histogram, so below its
            # share an owner's final-round histogram cannot spill.
            select = [b == batches - 1 and not parts[q] and not runs[q]
                      and 16 * n_in[q] < share for q in range(P)]
            hists = superstep(_round_hist_task, list(zip(recv, select)),
                              n_in, (lower, upper))
            del recv
            for q, (uniq, cnt) in enumerate(hists):
                if uniq.shape[0] == 0:
                    continue
                parts[q].append((uniq, cnt))
                live[q] += uniq.nbytes + cnt.nbytes
                if live[q] >= share:
                    flush(q)
        for round_sizes in sizes:  # pass 2, replayed
            comm.alltoallv([[np.empty(n, np.uint64) for n in row]
                            for row in round_sizes], stage=STAGE)

        # An owner that spilled flushes its tail too, so its selection is
        # a merge of runs alone; one that never did stays in memory.
        for q in range(P):
            if runs[q] and parts[q]:
                flush(q)
        rel_parts = superstep(
            _reliable_hist_task, list(zip(parts, runs)),
            [sum(r.n for r in runs[q]) + sum(u.shape[0] for u, _ in parts[q])
             for q in range(P)], (lower, upper))
    return rel_parts, seeds, stream
