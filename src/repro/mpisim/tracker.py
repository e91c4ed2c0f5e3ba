"""Per-stage communication accounting and compute timing.

The paper's communication analysis (Section V, Table I) is stated in words
(bandwidth cost ``W``) and messages (latency cost ``Y``) **per process**.
:class:`CommTracker` records exactly those quantities for every pipeline
stage as collectives execute, and :class:`StageTimer` records wall-clock
compute per rank per superstep, reducing with ``max`` over ranks — the same
reduction a lock-step SPMD program's critical path performs.

Together they let a single-process simulation report both

* *measured* communication volumes (to validate Table I's formulas), and
* *modeled* runtimes on a given :class:`~repro.mpisim.machine.MachineModel`
  (to reproduce the scaling shapes of Figs. 4–9).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from .machine import MachineModel

__all__ = ["CommRecord", "CommTracker", "StageTimer", "add_work"]


class CommRecord:
    """Accumulated communication for one stage: per-rank bytes/messages."""

    def __init__(self, nprocs: int) -> None:
        self.bytes_per_rank = np.zeros(nprocs, dtype=np.float64)
        self.messages_per_rank = np.zeros(nprocs, dtype=np.float64)

    @property
    def total_bytes(self) -> float:
        return float(self.bytes_per_rank.sum())

    @property
    def total_messages(self) -> float:
        return float(self.messages_per_rank.sum())

    @property
    def max_bytes(self) -> float:
        return float(self.bytes_per_rank.max())

    @property
    def max_messages(self) -> float:
        return float(self.messages_per_rank.max())


class CommTracker:
    """Collects per-stage :class:`CommRecord`\\ s from collectives."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.records: dict[str, CommRecord] = {}

    def record(self, stage: str, rank: int, n_bytes: float, n_messages: float
               ) -> None:
        """Attribute ``n_bytes`` sent and ``n_messages`` issued to ``rank``."""
        rec = self.records.get(stage)
        if rec is None:
            rec = self.records[stage] = CommRecord(self.nprocs)
        rec.bytes_per_rank[rank] += n_bytes
        rec.messages_per_rank[rank] += n_messages

    def stage_comm_time(self, stage: str, machine: MachineModel) -> float:
        """Modeled α–β communication time of one stage (critical rank)."""
        rec = self.records.get(stage)
        if rec is None:
            return 0.0
        return machine.comm_time(rec.max_bytes, rec.max_messages)

    def merge(self, other: "CommTracker") -> None:
        """Fold another tracker's records into this one (rank-wise sums).

        The blocked overlap mode runs each strip against a private tracker
        (so strips can execute on any :class:`~repro.exec.Executor`) and
        merges them back in strip order — making the accumulated records
        independent of how the strips were scheduled.
        """
        if other.nprocs != self.nprocs:
            raise ValueError(f"cannot merge trackers of {other.nprocs} and "
                             f"{self.nprocs} ranks")
        for stage, rec in other.records.items():
            mine = self.records.get(stage)
            if mine is None:
                mine = self.records[stage] = CommRecord(self.nprocs)
            mine.bytes_per_rank += rec.bytes_per_rank
            mine.messages_per_rank += rec.messages_per_rank

    def words(self, stage: str, word_bytes: int = 8) -> float:
        """Max per-rank word count for a stage (Table I's ``W``)."""
        rec = self.records.get(stage)
        return 0.0 if rec is None else rec.max_bytes / word_bytes

    def messages(self, stage: str) -> float:
        """Max per-rank message count for a stage (Table I's ``Y``)."""
        rec = self.records.get(stage)
        return 0.0 if rec is None else rec.max_messages

    def summary(self) -> dict[str, dict[str, float]]:
        """Dict of per-stage totals, for reports and tests."""
        return {
            stage: {
                "total_bytes": rec.total_bytes,
                "max_bytes": rec.max_bytes,
                "total_messages": rec.total_messages,
                "max_messages": rec.max_messages,
            }
            for stage, rec in self.records.items()
        }


class StageTimer:
    """Wall-clock compute timing with SPMD max-over-ranks semantics.

    Local compute of the simulated ranks executes sequentially in this
    process; what a real SPMD run would experience per superstep is the
    *maximum* over ranks.  Usage::

        with timer.superstep("SpGEMM") as step:
            for rank in range(P):
                with step.rank(rank):
                    ... local work of `rank` ...

    On superstep exit, ``max`` over per-rank durations is added to the
    stage's accumulated time.  :meth:`add` allows direct charging (e.g., for
    modeled components).

    The timer also tracks per-stage **live-matrix high-water marks**
    (:meth:`record_peak_bytes`): stages report the byte size of the largest
    matrix state they held at once, and the maximum per stage survives —
    the memory trajectory the paper's Section VIII memory-reduction plan
    targets.  Peaks follow the serial schedule's semantics: the blocked
    overlap mode records one strip at a time, so its SpGEMM peak is the
    largest single strip, not the whole candidate matrix.
    """

    def __init__(self) -> None:
        self.stage_seconds: dict[str, float] = defaultdict(float)
        self.stage_supersteps: dict[str, int] = defaultdict(int)
        self.stage_peak_bytes: dict[str, int] = {}
        self.stage_kernel_counts: dict[str, dict[str, int]] = {}
        self.stage_work_counts: dict[str, dict[str, int]] = {}

    @contextmanager
    def superstep(self, stage: str):
        step = _Superstep()
        yield step
        self.stage_seconds[stage] += step.max_rank_time()
        self.stage_supersteps[stage] += 1

    def add(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] += seconds

    def record_peak_bytes(self, stage: str, n_bytes: int) -> None:
        """Record live matrix bytes observed during ``stage`` (max wins)."""
        n_bytes = int(n_bytes)
        if n_bytes > self.stage_peak_bytes.get(stage, 0):
            self.stage_peak_bytes[stage] = n_bytes

    def peak_bytes(self) -> dict[str, int]:
        """Per-stage live-matrix high-water marks, in bytes."""
        return dict(self.stage_peak_bytes)

    def count_kernel(self, stage: str, path: str, n: int = 1) -> None:
        """Add ``n`` to ``stage``'s exact kernel-work counter ``path``.

        For the SpGEMM stages the counters are block products per
        :meth:`repro.dsparse.backend.Backend.spgemm_with_path` name
        (``"csr"``, ``"masked_csr"``, ``"esc"``, ``"masked_esc"``,
        ``"masked_dot"``) — and nothing else, so their sum is the stage's
        kernel calls; what those calls *did* goes to :meth:`count_work`.
        For ``Alignment`` they are the batched x-drop sweep's ``rounds``,
        ``cells`` and ``words`` (:func:`repro.align.batch.xdrop_extend_batch`).
        ``repro stats`` prints them per stage, so a bench regression is
        attributable to a routing change or to more kernel work.
        """
        _add(self.stage_kernel_counts, stage, path, n)

    def kernel_counts(self) -> dict[str, dict[str, int]]:
        """Per-stage kernel-work counters (copies)."""
        return _copy(self.stage_kernel_counts)

    def count_work(self, stage: str, name: str, n: int) -> None:
        """Add ``n`` to ``stage``'s exact work counter ``name``.

        For the SpGEMM stages: ``products`` are the elementary products
        the masked ESC kernel expanded, ``probes`` the row/column elements
        the dot kernel looked up (:mod:`repro.dsparse.masked`) — sums over
        block products, so they add over SUMMA stages, strips and workers.
        For ``CreateSpMat``: the dictionary lookup's ``windows`` (seed
        k-mers looked up), ``probes`` (table keys compared) and
        ``leftover`` (queries finished by binary search) — sums over
        queries (:meth:`repro.seqs.kmer_counter.KmerTable.lookup`).
        """
        _add(self.stage_work_counts, stage, name, n)

    def work_counts(self) -> dict[str, dict[str, int]]:
        """Per-stage exact work counters (copies)."""
        return _copy(self.stage_work_counts)

    def merge(self, other: "StageTimer") -> None:
        """Fold another timer in: seconds/supersteps add, peaks take max.

        Counterpart of :meth:`CommTracker.merge` for the blocked mode's
        per-strip private timers; merging in strip order reproduces the
        serial schedule's accumulation.
        """
        for stage, secs in other.stage_seconds.items():
            self.stage_seconds[stage] += secs
        for stage, count in other.stage_supersteps.items():
            self.stage_supersteps[stage] += count
        for stage, peak in other.stage_peak_bytes.items():
            self.record_peak_bytes(stage, peak)
        for mine, theirs in ((self.stage_kernel_counts,
                              other.stage_kernel_counts),
                             (self.stage_work_counts,
                              other.stage_work_counts)):
            for stage, per_stage in theirs.items():
                for name, n in per_stage.items():
                    _add(mine, stage, name, n)

    def total(self) -> float:
        return float(sum(self.stage_seconds.values()))

    def breakdown(self) -> dict[str, float]:
        return dict(self.stage_seconds)


def add_work(tally: dict | None, **work: int) -> None:
    """Add exact work counts to ``tally`` (``None``: nobody is counting).

    The one accumulator behind every kernel's optional work ``tally`` —
    the A scan's dictionary lookup, the masked SpGEMM kernels, the batched
    x-drop sweep — and behind :class:`StageTimer`'s per-stage counters.
    """
    if tally is not None:
        for name, n in work.items():
            tally[name] = tally.get(name, 0) + int(n)


def _add(counts: dict[str, dict[str, int]], stage: str, name: str,
         n: int) -> None:
    add_work(counts.setdefault(stage, {}), **{name: n})


def _copy(counts: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    return {stage: dict(per_stage) for stage, per_stage in counts.items()}


class _Superstep:
    def __init__(self) -> None:
        self._rank_times: dict[int, float] = defaultdict(float)

    @contextmanager
    def rank(self, rank: int):
        t0 = time.perf_counter()
        yield
        self._rank_times[rank] += time.perf_counter() - t0

    def charge(self, rank: int, seconds: float) -> None:
        """Directly attribute compute seconds to a rank."""
        self._rank_times[rank] += seconds

    def charge_many(self, ranks, seconds) -> None:
        """Attribute per-task compute to ranks pairwise (executor results)."""
        for rank, sec in zip(ranks, seconds):
            self._rank_times[rank] += sec

    def max_rank_time(self) -> float:
        return max(self._rank_times.values(), default=0.0)
