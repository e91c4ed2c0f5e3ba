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
H. sapiens).

Because the lower bound is at least 2, the protocol's *result* never
depends on the Bloom filter: false positives only admit singletons, which
selection discards, and admitted keys are counted exactly — so the reliable
table is precisely ``{key: lower <= count <= upper}`` of each owner's exact
histogram (:func:`table_from_histogram`).  The production engine
(``impl="batch"``) therefore keeps no admission state at all: per exchange
round each owner reduces its incoming k-mers to a sorted ``(key, count)``
histogram, the second pass is replayed for its communication cost only, and
selection is one merge-sum plus filter per owner.  ``table_budget`` decides
only where that state lives (re-extracted seeds and on-disk sorted runs
instead of resident arrays); "resident" is the zero-spill case of the same
code.

``impl="loop"`` (:data:`repro.options.KMER_IMPL`) keeps the literal protocol
— per-read extraction, a real Bloom filter, ``dict[int, int]`` tables, both
passes — as the reference oracle.  The resulting :class:`KmerTable` and the
communication records are byte-identical between the two, pinned by the
parity and golden suites.
"""

from __future__ import annotations

import contextlib
import functools
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from ..exec import Executor, SERIAL
from ..mpisim.comm import SimComm
from ..mpisim.grid import block_bounds, partition_by_owner
from ..mpisim.tracker import StageTimer, add_work
from ..options import KMER_IMPL
from .bloom import BloomFilter
from .fasta import ReadSet
from .kmers import splitmix64
from .seeding import FullKScheme, SeedScheme
from .spill import combine_histograms, merge_pair_runs, write_pair_run

__all__ = ["KmerTable", "reliable_upper_bound", "count_kmers",
           "kmer_histogram", "merge_histograms", "table_from_histogram"]

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
    """One rank's seed extraction as a single SoA sweep over its read span.

    The worker takes its block from the ReadSet in the context, so with the
    mmap read store a process pool ships only the store path.  Output order
    (read-major, window order within a read) matches the loop oracle's
    concatenation exactly for every :class:`~repro.seqs.seeding.SeedScheme`.
    """
    scheme, reads = ctx
    lo, hi = span
    return scheme.seeds_of_block(*reads.soa_block(lo, hi))[0]


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
    keys = scheme.seeds_of_block(*reads.soa_block(r0, r1))[0]
    return _send_lists(keys[skip:skip + take], nprocs)


def _round_hist_task(ctx, incoming):
    """One owner rank's ``(distinct key, count)`` histogram of a round."""
    uniq, cnt = np.unique(incoming, return_counts=True)
    return uniq, cnt.astype(np.int64, copy=False)


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


# -- loop-oracle tasks -------------------------------------------------------

def _extract_task(ctx, owned_idx):
    """One rank's seed extraction over its block of reads (loop engine)."""
    reads, scheme = ctx
    parts = [scheme.seeds_of_read(reads[int(i)])[0] for i in owned_idx]
    return np.concatenate(parts) if parts else np.empty(0, np.uint64)


def _pass1_task(ctx, task):
    """First-pass handling at one owner rank: Bloom insert + admission.

    Takes and returns the rank's filter (a process pool ships it back
    mutated) plus the keys the Bloom test admitted; the admission table
    itself stays in the parent so it is never pickled.
    """
    bloom, incoming = task
    seen = bloom.add_and_test(incoming)
    return bloom, incoming[seen]


def _pass2_task(ctx, task):
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


def _reliable_task(ctx, table):
    """Reliable selection at one owner rank (the oracle's dict table)."""
    lower, upper = ctx
    if not table:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    kk = np.fromiter(table.keys(), dtype=np.uint64, count=len(table))
    cc = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    keep = (cc >= lower) & (cc <= upper)
    return kk[keep], cc[keep]


def _group_by_dest_masks(sl: np.ndarray, dl: np.ndarray, nprocs: int
                         ) -> list[np.ndarray]:
    """Reference send-list construction: one boolean mask per rank."""
    return [sl[dl == q] for q in range(nprocs)]


def kmer_histogram(reads: ReadSet, k: int,
                   scheme: SeedScheme | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exact global ``(keys, counts)`` histogram of canonical seed k-mers.

    One vectorized sweep over the whole read set; keys come back sorted
    ascending.  This is the *mergeable* form of the counting state the
    incremental service keeps per version: unlike the Bloom-filtered
    two-pass tables (whose admission decisions depend on how occurrences
    were batched), exact histograms of two read batches combine losslessly
    with :func:`merge_histograms`, and the reliable table is a pure filter
    of the merged histogram (:func:`table_from_histogram`).  Both
    properties hold for any :class:`~repro.seqs.seeding.SeedScheme` —
    schemes are pure per-read functions, so the seed multiset of a batch
    union is the union of the batches' seed multisets.
    """
    scheme = scheme if scheme is not None else FullKScheme(k)
    canon = scheme.seeds_of_block(*reads.soa())[0]
    if canon.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    keys, counts = np.unique(canon, return_counts=True)
    return keys, counts.astype(np.int64)


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
    np.add.at(merged_counts, idx[present], new_counts[present])
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
    """
    keep = (counts >= lower) & (counts <= upper)
    return KmerTable(k=k, kmers=keys[keep].copy(),
                     counts=counts[keep].copy(), lower=lower, upper=upper)


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


@dataclass
class KmerTable:
    """Result of distributed counting: the reliable k-mer dictionary.

    ``kmers`` is sorted ascending (packed canonical ``uint64``), so the
    global column id of a k-mer is its index.  ``counts`` holds the total
    multiplicities.

    :meth:`lookup` finds that index through a prefix-bucket index built
    here, once per table: one ``int32`` start per bucket of the keys' top
    bits, a power-of-two bucket count of at most ``2·len(table)`` (so the
    index is no larger than ``kmers`` itself).  It is plain instance state:
    a table pickled to a process worker arrives with it.
    """

    k: int
    kmers: np.ndarray
    counts: np.ndarray
    lower: int
    upper: int
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _shift: np.uint64 = field(init=False, repr=False, compare=False)

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

    def __len__(self) -> int:
        return int(self.kmers.shape[0])

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
        number of wasted steps.  ``kmers`` must be ``uint64`` (any order,
        repeats allowed, read-only is fine).  ``tally`` (optional dict)
        gains the exact work: ``windows`` looked up, ``probes`` = table
        keys compared by the walk, ``leftover`` = queries handed to the
        binary search; all three are sums over queries, whatever the
        batching.
        """
        if kmers.dtype != np.uint64:
            raise TypeError(f"KmerTable.lookup needs uint64 packed k-mers, "
                            f"got {kmers.dtype}")
        keys = self.kmers
        col = np.full(kmers.shape[0], -1, dtype=np.int64)
        if len(self) == 0 or kmers.shape[0] == 0:
            add_work(tally, windows=col.shape[0], probes=0, leftover=0)
            return col
        where = np.arange(kmers.shape[0])
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


def reliable_upper_bound(depth: float, error_rate: float, k: int,
                         quantile: float = 0.998) -> int:
    """BELLA-style maximum reliable k-mer multiplicity.

    Mean multiplicity of a correct, unique-locus k-mer is
    ``μ = depth · (1 - e)^k``; the upper cutoff is the ``quantile`` point of
    ``Poisson(μ)`` plus one, and never below 4 (the floor the paper's runs
    effectively used).
    """
    mu = depth * (1.0 - error_rate) ** k
    upper = int(stats.poisson.ppf(quantile, mu))
    return max(4, upper)


def count_kmers(reads: ReadSet, k: int, comm: SimComm,
                timer: StageTimer | None = None, *,
                batches: int = 1, bloom_fp: float = 0.01,
                lower: int = 2, upper: int = 8,
                executor: Executor | None = None,
                impl: str | None = None,
                scheme: SeedScheme | None = None,
                table_budget: int | None = None,
                spill_dir: str | None = None) -> KmerTable:
    """Distributed two-pass k-mer counting.

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
    bloom_fp:
        Bloom filter false-positive target (``loop`` oracle only; the
        result never depends on the filter).
    lower, upper:
        Reliable multiplicity range (inclusive); compute ``upper`` with
        :func:`reliable_upper_bound` for dataset-driven values.  ``lower``
        must be at least 2: a two-pass Bloom count cannot observe
        singletons.
    executor:
        :class:`~repro.exec.Executor` spreading each superstep's per-rank
        work over real workers; ``None`` keeps the serial reference loop.
        The resulting table is byte-identical either way.
    impl:
        K-mer engine (:data:`repro.options.KMER_IMPL`): ``"batch"`` is the
        histogram engine (:func:`_count_kmers_hist`), ``"loop"`` the
        literal Bloom-filtered protocol (:func:`_count_kmers_loop`), kept
        as the parity reference.  Byte-identical table and traffic.
    scheme:
        :class:`~repro.seqs.seeding.SeedScheme` choosing which windows of
        each read are counted; ``None`` keeps the full-k default (every
        window — the paper's behavior).
    table_budget:
        Optional byte ceiling for the histogram engine's counting state.
        ``None`` keeps it resident: one seed extraction per rank, no files.
        When set, each round's seeds are re-extracted instead of held and
        an owner whose buffered histograms reach its ``table_budget / P``
        share flushes them to a sorted disk run.  Output and traffic
        cannot move (see :func:`_count_kmers_hist`).  Ignored by ``loop``.
    spill_dir:
        Directory under which the spill runs' temporary directory is
        created (``None`` = the system temp dir).  Always removed on exit.

    Returns
    -------
    KmerTable
        The sorted reliable k-mer dictionary with counts.
    """
    if lower < 2:
        raise ValueError(
            f"count_kmers needs lower >= 2, got {lower}: a two-pass "
            f"Bloom-filtered count cannot observe singletons")
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    scheme = scheme if scheme is not None else FullKScheme(k)
    if KMER_IMPL.resolve(impl) == "loop":
        rel_parts = _count_kmers_loop(reads, comm, timer, batches, bloom_fp,
                                      lower, upper, executor, scheme)
    else:
        rel_parts = _count_kmers_hist(reads, comm, timer, batches, lower,
                                      upper, executor, scheme, table_budget,
                                      spill_dir)
    # Global dictionary assembly: an allgather of the per-rank reliable
    # sets; column ids are the sorted order.
    comm.allgather([p[0] for p in rel_parts], stage=STAGE)
    all_k = np.concatenate([p[0] for p in rel_parts])
    all_c = np.concatenate([p[1] for p in rel_parts])
    order = np.argsort(all_k)
    return KmerTable(k=k, kmers=all_k[order], counts=all_c[order],
                     lower=lower, upper=upper)


def _count_kmers_hist(reads: ReadSet, comm: SimComm, timer: StageTimer,
                      batches: int, lower: int, upper: int,
                      executor: Executor, scheme: SeedScheme,
                      table_budget: int | None, spill_dir: str | None
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The histogram engine: per-owner reliable ``(keys, counts)`` sets.

    1. **Seed source.**  Unbudgeted, each rank extracts its seed stream
       once and keeps it through its last round; round ``b`` is the slice
       ``[(n·b)/batches, (n·(b+1))/batches)``.  Budgeted, a counting sweep
       gives each rank a prefix array over its stream, so a round's slice
       maps to a read range plus skip/take offsets and is re-extracted on
       demand — nothing stream-sized stays resident.
    2. **Pass 1, per round** — hash and stable-group the slice by owner,
       exchange, and reduce each owner's incoming to its
       ``(distinct key, count)`` histogram.  Owners buffer histograms;
       under a budget, one whose buffer reaches its ``table_budget / P``
       share merge-sums it into a sorted run on disk.
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
        rank_kmers = superstep(
            _extract_batch_task, spans,
            [int(pre[hi] - pre[lo]) for lo, hi in spans], (scheme, reads))

        def round_sends(b: int) -> list[list[np.ndarray]]:
            send = []
            with timer.superstep(STAGE) as step:
                for p, km in enumerate(rank_kmers):
                    n = km.shape[0]
                    lo, hi = (n * b) // batches, (n * (b + 1)) // batches
                    with step.rank(p):
                        send.append(_send_lists(km[lo:hi], P))
            if b == batches - 1:
                # The stream's last use: release it before the owners'
                # histograms, where the stage's memory peaks.
                del km
                rank_kmers.clear()
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
            incoming = [np.concatenate(recv[q]) if recv[q] else
                        np.empty(0, np.uint64) for q in range(P)]
            del send, recv
            hists = superstep(_round_hist_task, incoming,
                              [inc.shape[0] for inc in incoming])
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
        return superstep(
            _reliable_hist_task, list(zip(parts, runs)),
            [sum(r.n for r in runs[q]) + sum(u.shape[0] for u, _ in parts[q])
             for q in range(P)], (lower, upper))


def _count_kmers_loop(reads: ReadSet, comm: SimComm, timer: StageTimer,
                      batches: int, bloom_fp: float, lower: int, upper: int,
                      executor: Executor, scheme: SeedScheme
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The parity oracle: the two-pass protocol as the paper states it.

    Per-read extraction, mask-built send lists, a Bloom filter per owner
    whose ``add_and_test`` admits keys into a ``dict[int, int]`` table in
    pass 1, exact counting of admitted keys in pass 2, reliable selection
    over the dicts — no counting code shared with the histogram engine,
    which is what makes the parity suites mean something.
    """
    P = comm.nprocs
    superstep = functools.partial(_superstep, timer, executor)
    bounds = block_bounds(len(reads), P)
    owned = [np.arange(bounds[p], bounds[p + 1], dtype=np.int64)
             for p in range(P)]

    # Extract (canonical) seed k-mers per rank once; reused by both passes.
    rank_kmers = superstep(_extract_task, owned,
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
                send.append(_group_by_dest_masks(km[lo:hi], dl[lo:hi], P))
            recv = comm.alltoallv(send, stage=STAGE)
            run_round([np.concatenate(recv[q]) if recv[q] else
                       np.empty(0, np.uint64) for q in range(P)])

    def pass1(incoming: list[np.ndarray]) -> None:
        out = superstep(_pass1_task, list(zip(blooms, incoming)),
                        [inc.shape[0] for inc in incoming])
        for q, (bloom, new_keys) in enumerate(out):
            blooms[q] = bloom
            for kv in new_keys:
                admitted[q].setdefault(int(kv), 0)

    def pass2(incoming: list[np.ndarray]) -> None:
        out = superstep(_pass2_task, list(zip(pass2_keys, incoming)),
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
    return superstep(_reliable_task, admitted, [len(t) for t in admitted],
                     (lower, upper))
