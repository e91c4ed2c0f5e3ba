"""Shared-memory executors with deterministic ordered reduction.

The mpisim layer models *what a distributed run would cost*; this module
makes the simulated ranks' local work *actually run in parallel* on the
host's cores.  Every hot loop in the pipeline — SUMMA block multiplies,
candidate-pair x-drop alignments, per-rank k-mer hashing — is a list of
independent tasks, and an :class:`Executor` maps a function over such a
list:

* :class:`SerialExecutor` — the deterministic reference (and default): a
  plain in-order loop with zero overhead.
* :class:`ProcessExecutor` — a fork-safe process pool; chunks are pickled
  to workers, results shipped back.

Both share one contract, which is what makes ``--workers`` a pure
performance axis:

1. tasks are batched into weight-balanced **contiguous** chunks
   (:func:`~repro.exec.partition.weighted_chunks`), and
2. per-task results are concatenated back in task-list order — an ordered,
   deterministic reduction.

Because each task is independent and the reduction never reorders, the
result list is byte-identical across executors and worker counts; only
wall-clock changes.  Per-task CPU time is measured inside the worker and
returned alongside each result so callers can keep charging compute to the
owning simulated rank (:class:`~repro.mpisim.tracker.StageTimer`'s
critical-path max semantics survive parallel execution).

Failures are survived, not propagated wholesale: a worker exception or a
broken pool loses *chunks*.  The process pool re-runs exactly the lost
chunks, respawning a broken pool first, up to :data:`MAX_ATTEMPTS`
times; chunks still lost then run in the parent, where a genuine task
error finally propagates.  Because the ordered reduction never moves a
chunk's slot and every task is a pure function, a run that survived any
number of injected or real faults returns byte-identical results.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Any, Callable

from ..options import EXECUTOR, WORKERS
from ..resilience.faults import check_fault, trip
from .partition import weighted_chunks

__all__ = [
    "Executor", "SerialExecutor", "ProcessExecutor",
    "get_executor", "executor_name", "SERIAL", "CHUNK_FAULT_SITE",
    "MAX_ATTEMPTS",
]

log = logging.getLogger("repro.resilience")

#: Fault-injection site consulted once per chunk submission (the verdict
#: is decided in the parent and shipped with the chunk, so firing order
#: is deterministic even under process pools).
CHUNK_FAULT_SITE = "exec.chunk"

#: Name resolved by ``get_executor("auto", workers)`` when ``workers > 1``.
PARALLEL_DEFAULT = "process"

#: Attempts a lost chunk gets on the pool, and again in the parent.
MAX_ATTEMPTS = 3

#: Chunks submitted per worker — enough slack for uneven chunks to
#: rebalance across the pool without drowning in submission overhead
#: (each chunk re-pickles the shared context for a process pool, so this
#: also bounds how many times a big context crosses the pipe per call).
_CHUNKS_PER_WORKER = 2

TaskFn = Callable[[Any, Any], Any]


def _run_chunk(fn: TaskFn, context: Any, tasks: list,
               inject: str | None = None) -> list[tuple[Any, float]]:
    """Run one chunk in-order, timing each task (executes in the worker).

    Tasks are timed with per-thread CPU time, not wall-clock: a service
    refresh runs its chunks serially on the ingest thread while the
    server's loop thread answers queries, and a wall-clock span would
    charge those queries to the simulated rank.  CPU time attributes to a
    rank only the cycles its own task burned, so
    :class:`~repro.mpisim.tracker.StageTimer` breakdowns stay comparable
    across executors (for the compute-bound kernels here, serial CPU time
    ≈ serial wall time).

    ``inject`` is a fault verdict decided in the parent
    (:func:`~repro.resilience.faults.check_fault`); it fires before any
    task runs, so an injected loss never leaks partial work.
    """
    if inject is not None:
        trip(inject, CHUNK_FAULT_SITE)
    out = []
    for task in tasks:
        t0 = time.thread_time()
        res = fn(context, task)
        out.append((res, time.thread_time() - t0))
    return out


def _run_chunk_pickled(fn: TaskFn, ctx_bytes: bytes, tasks: list,
                       inject: str | None = None) -> list[tuple[Any, float]]:
    """Process-pool chunk entry: the shared context arrives pre-pickled.

    The parent serializes the context once per ``run_timed`` call and
    submits the same bytes to every chunk, so a large shared context (the
    read set, a k-mer table) costs one ``pickle.dumps`` instead of one per
    chunk.  Unpickling happens here in the worker.
    """
    return _run_chunk(fn, pickle.loads(ctx_bytes), tasks, inject)


class Executor:
    """Maps ``fn(context, task)`` over task lists with ordered reduction.

    ``context`` is shared, read-only state delivered once per chunk (for
    process pools it is pickled per chunk, not per task — pass the big
    immutable stuff like the read set here).  ``weights`` are per-task cost
    estimates (nonzero counts, read lengths) driving chunk balance; results
    never depend on them.

    ``recovery`` accumulates one record per retry, pool respawn, or
    fallback to the parent the executor performed — empty on the
    fault-free path.
    """

    #: Registry name; set by subclasses.
    name: str = "abstract"

    def __init__(self, workers: int = 1) -> None:
        self.workers = WORKERS.resolve(workers)
        self.recovery: list[dict] = []

    def _note(self, event: str, **fields) -> None:
        self.recovery.append({"event": event, "executor": self.name,
                              **fields})

    def _retried(self, attempt: int, tier: str, exc: BaseException) -> None:
        self._note("retry", tier=tier, attempt=attempt, error=repr(exc))
        log.info("repro.exec %s: attempt %d failed at tier %s (%r); "
                 "retrying", self.name, attempt, tier, exc)

    def _run_in_parent(self, fn: TaskFn, context: Any, tasks: list,
                       inject: bool = True) -> list[tuple[Any, float]]:
        """Run one chunk here, retried in place up to :data:`MAX_ATTEMPTS`
        times; ``inject`` consults the ``exec.chunk`` site per attempt."""
        attempt = 1
        while True:
            try:
                return _run_chunk(
                    fn, context, tasks,
                    check_fault(CHUNK_FAULT_SITE) if inject else None)
            except Exception as exc:
                if attempt >= MAX_ATTEMPTS:
                    raise
                self._retried(attempt, "serial", exc)
                attempt += 1

    def _run_serial(self, fn: TaskFn, tasks: list, context: Any
                    ) -> tuple[list, list[float]]:
        """In-process execution of the whole list as one chunk."""
        if not tasks:
            return [], []
        pairs = self._run_in_parent(fn, context, tasks)
        return [r for r, _ in pairs], [s for _, s in pairs]

    def run_timed(self, fn: TaskFn, tasks: list, *, context: Any = None,
                  weights=None) -> tuple[list, list[float]]:
        """Ordered results plus per-task wall seconds (measured in-worker)."""
        raise NotImplementedError

    def run(self, fn: TaskFn, tasks: list, *, context: Any = None,
            weights=None) -> list:
        """Ordered results (timing discarded)."""
        return self.run_timed(fn, tasks, context=context, weights=weights)[0]

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release pool resources (idempotent; safe on broken pools)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialExecutor(Executor):
    """In-order single-thread execution — the determinism reference."""

    name = "serial"

    def run_timed(self, fn, tasks, *, context=None, weights=None):
        return self._run_serial(fn, list(tasks), context)


class ProcessExecutor(Executor):
    """Process-pool executor for pure-Python-bound task loops.

    Uses the ``fork`` start method where the platform offers it (cheap
    worker startup, parent globals inherited) and falls back to ``spawn``
    elsewhere; either way task functions and payloads must be picklable —
    which is why the pipeline's task functions are module-level and carry
    their state via ``context``.  The pool is created lazily on first use
    and reused across calls, so per-stage dispatch costs a round of chunk
    pickles, not a pool spin-up.

    Chunks a worker raised on or a dying worker lost
    (``BrokenProcessPool``) are re-run on the pool, a broken pool being
    discarded and respawned first, up to :data:`MAX_ATTEMPTS` times.
    Chunks still lost then run in the parent with the ``exec.chunk`` site
    switched off (recovery must terminate), each retried in place like a
    serial run, so a fault a task checks itself can fire there once more
    and be absorbed.  A pool that broke on its last attempt sends later
    calls straight to the parent instead of breaking again.
    """

    name = "process"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._in_parent = False

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=ctx)
        return self._pool

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - defensive
                pass

    def run_timed(self, fn, tasks, *, context=None, weights=None):
        tasks = list(tasks)
        if not tasks:
            return [], []
        if self.workers <= 1 or len(tasks) <= 1:
            return self._run_serial(fn, tasks, context)
        if weights is None:
            weights = [1.0] * len(tasks)
        ranges = weighted_chunks(weights, self.workers * _CHUNKS_PER_WORKER)
        chunk_out: list = [None] * len(ranges)
        pending = list(range(len(ranges)))
        if not self._in_parent:
            pending = self._run_on_pool(fn, context, tasks, ranges,
                                        chunk_out)
        for ci in pending:
            lo, hi = ranges[ci]
            chunk_out[ci] = self._run_in_parent(fn, context, tasks[lo:hi],
                                                inject=False)
        results: list = []
        seconds: list[float] = []
        # Gather in chunk order = task order: the ordered reduction.
        for pairs in chunk_out:
            for res, sec in pairs:
                results.append(res)
                seconds.append(sec)
        return results, seconds

    def _run_on_pool(self, fn: TaskFn, context: Any, tasks: list,
                     ranges: list, chunk_out: list) -> list[int]:
        """Fill ``chunk_out`` on the pool; the chunks still lost after
        :data:`MAX_ATTEMPTS` attempts."""
        # Serialize the shared context once and ship the same bytes with
        # every chunk (submit() would re-pickle it per chunk).  Anything
        # unpicklable goes through plain submission, so the pool's own
        # error path still applies.
        entry, ctx_arg = _run_chunk, context
        if context is not None:
            try:
                entry, ctx_arg = _run_chunk_pickled, pickle.dumps(
                    context, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                pass
        pending = list(range(len(ranges)))
        for attempt in range(1, MAX_ATTEMPTS + 1):
            failed: list[int] = []
            broken = False
            last_exc: BaseException | None = None
            try:
                pool = self._get_pool()
                futures: dict[int, Future] = {}
                for ci in pending:
                    lo, hi = ranges[ci]
                    futures[ci] = pool.submit(entry, fn, ctx_arg,
                                              tasks[lo:hi],
                                              check_fault(CHUNK_FAULT_SITE))
            except BrokenExecutor as exc:
                broken, failed, last_exc = True, list(pending), exc
            else:
                for ci in pending:
                    try:
                        chunk_out[ci] = futures[ci].result()
                    except Exception as exc:
                        broken = broken or isinstance(exc, BrokenExecutor)
                        failed.append(ci)
                        last_exc = exc
            if broken:
                # A dead worker poisons the whole pool: discard it so the
                # next attempt submits to a freshly spawned one.
                self.close()
                self._note("respawn", tier="process", chunks=len(failed))
                log.warning("repro.exec %s: pool broke (%r); respawning "
                            "(%d chunks lost)", self.name, last_exc,
                            len(failed))
            if not failed:
                return []
            pending = failed
            if attempt < MAX_ATTEMPTS:
                self._retried(attempt, "process", last_exc)
        self._in_parent = broken
        self._note("downgrade", tier="serial", from_tier="process",
                   sticky=broken)
        log.warning("repro.exec %s: pool exhausted %d attempts; running "
                    "%d chunks in the parent%s", self.name, MAX_ATTEMPTS,
                    len(pending),
                    " (sticky: pool kept breaking)" if broken else "")
        return pending


#: Shared zero-state serial instance — the default for library call sites.
SERIAL = SerialExecutor()

_EXECUTORS: dict[str, type[Executor]] = {
    "serial": SerialExecutor, "process": ProcessExecutor}


def executor_name(name: str | None, workers: int) -> str:
    """The executor ``name`` stands for with ``workers`` workers.

    ``name`` goes through the ``executor`` axis
    (:data:`repro.options.EXECUTOR`: explicit, else ``REPRO_EXECUTOR``,
    validated), and an ``"auto"`` that survives picks serial for one
    worker and the process pool otherwise.
    """
    name = EXECUTOR.resolve(name)
    if name == "auto":
        name = "serial" if workers <= 1 else PARALLEL_DEFAULT
    return name


def get_executor(name: "str | Executor | None" = None,
                 workers: int | None = None) -> Executor:
    """Build an executor by name with ``workers`` parallel workers.

    ``None`` / ``"auto"`` defer to the environment (``REPRO_EXECUTOR``,
    ``REPRO_WORKERS``) through the option table — so the environment can
    steer every default-configured run (the CI determinism leg) without
    touching explicit choices.  An already-built :class:`Executor` passes
    through unchanged so plumbing layers accept either form.
    """
    if isinstance(name, Executor):
        return name
    workers = WORKERS.resolve(workers)
    return _EXECUTORS[executor_name(name, workers)](workers)
