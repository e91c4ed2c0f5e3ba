"""Deterministic fault injection keyed by named sites.

A :class:`FaultPlan` is a parsed fault spec — a ``;``-separated list of
clauses ``site:kind@counts``::

    exec.chunk:crash@3          # crash the worker on the 3rd exec.chunk check
    summa.block:exc@2,5         # raise on the 2nd and 5th block product
    service.refresh:exc@1+      # raise on every refresh from the 1st on
    exec.chunk:exc@*            # raise on every chunk submission

``site`` names the instrumented location (``exec.chunk``, ``summa.block``,
``service.refresh``, ``strip.checkpoint``); ``kind`` is ``exc`` (raise
:class:`FaultInjected`) or ``crash`` (kill the worker process with
``os._exit`` — from the parent process it degenerates to raising
:class:`InjectedWorkerCrash`, since the parent must survive to recover);
``counts`` selects which checks of that site fire, counted from 1 in
deterministic program order.

The plan is *armed* by installing it as the process-wide active plan
(:func:`active_plan`); every instrumented site calls :func:`maybe_fault`
(or :func:`check_fault` when the decision and the effect live in
different processes, as in the executor's chunk submissions).  With no
plan armed both are a single ``is None`` test — the hooks compile out of
the hot path.

Counters are plain per-site invocation counts held by the plan object, so
a given plan fires at exactly the same program points on every run of the
same configuration — which is what lets the chaos suite assert that a
faulted run's output is byte-identical to the fault-free golden run.
(Under a ``fork`` process pool, sites checked *inside* workers count per
worker process; the executor-level ``exec.chunk`` site avoids this by
deciding in the parent and shipping the verdict with the chunk.)
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager

__all__ = [
    "FAULT_KINDS", "CRASH_EXIT_CODE",
    "FaultInjected", "InjectedWorkerCrash", "FaultPlan",
    "active_plan", "current_plan", "check_fault", "maybe_fault", "trip",
]

#: Injection kinds a clause may name.
FAULT_KINDS = ("exc", "crash")

#: Exit status used when ``crash`` kills a worker process — distinctive,
#: so a real segfault is never mistaken for an injected one.
CRASH_EXIT_CODE = 113


class FaultInjected(RuntimeError):
    """An injected fault (the ``exc`` kind, or ``crash`` in-process)."""

    def __init__(self, site: str, kind: str, count: int) -> None:
        super().__init__(f"injected fault: {kind} at {site} "
                         f"(check #{count})")
        self.site = site
        self.kind = kind
        self.count = count


class InjectedWorkerCrash(FaultInjected):
    """A ``crash`` injection hit in a context that cannot ``os._exit``
    (the main process, or a thread-pool worker sharing it)."""


def _parse_counts(text: str):
    """``counts`` matcher: explicit set, open range ``N+``, or ``*``."""
    text = text.strip()
    if text == "*":
        return lambda n: True
    if text.endswith("+"):
        start = int(text[:-1])
        if start < 1:
            raise ValueError("fault counts are 1-based")
        return lambda n: n >= start
    hits = frozenset(int(part) for part in text.split(","))
    if not hits or min(hits) < 1:
        raise ValueError("fault counts are 1-based")
    return lambda n: n in hits


class FaultPlan:
    """A parsed fault spec with its per-site invocation counters.

    The plan is mutable state (counters advance, fired faults are
    recorded in :attr:`fired`) — build a fresh one per run for per-run
    schedules, or keep one alive across calls for cross-call schedules
    like the service's per-ingest counter.
    """

    def __init__(self, spec: str = "") -> None:
        self.spec = spec
        self._actions: dict[str, list] = {}
        self._counts: dict[str, int] = {}
        #: Every fault this plan has fired, as ``(site, kind, count)``.
        self.fired: list[tuple[str, str, int]] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            try:
                site_kind, counts = clause.split("@", 1)
                site, kind = site_kind.rsplit(":", 1)
            except ValueError:
                raise ValueError(
                    f"bad fault clause {clause!r}: expected "
                    f"'site:kind@counts' (e.g. 'exec.chunk:crash@3')"
                ) from None
            site, kind = site.strip(), kind.strip()
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} in "
                                 f"{clause!r}; expected one of "
                                 f"{', '.join(FAULT_KINDS)}")
            self._actions.setdefault(site, []).append(
                (kind, _parse_counts(counts)))

    def check(self, site: str) -> str | None:
        """Advance ``site``'s counter; the kind to fire now, or ``None``."""
        actions = self._actions.get(site)
        if actions is None:
            return None
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        for kind, matches in actions:
            if matches(count):
                self.fired.append((site, kind, count))
                return kind
        return None

    def sites(self) -> list[str]:
        """The site names this plan can fire at, sorted."""
        return sorted(self._actions)

    def __bool__(self) -> bool:
        return bool(self._actions)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaultPlan({self.spec!r})"


#: The armed plan; ``None`` keeps every hook a single attribute test.
_ACTIVE: FaultPlan | None = None


def current_plan() -> FaultPlan | None:
    """The armed plan, if any."""
    return _ACTIVE


@contextmanager
def active_plan(plan: FaultPlan | None):
    """Arm ``plan`` for the duration of the block (nestable).

    ``None`` leaves whatever is currently armed in place, so callers can
    pass their resolved-or-absent plan unconditionally.  An *empty*
    :class:`FaultPlan` shadows an armed one — the way a test pins a
    fault-free region while ``REPRO_FAULT_SPEC`` is set globally.
    """
    global _ACTIVE
    if plan is None:
        yield _ACTIVE
        return
    prev = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = prev


def check_fault(site: str) -> str | None:
    """Consult the armed plan at ``site`` without raising.

    Returns the kind to fire (``"exc"`` / ``"crash"``) or ``None``.  Use
    this when the decision must be made in one process and executed in
    another (the executor decides per chunk in the parent and ships the
    verdict to the worker) — pair it with :func:`trip`.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.check(site)


def trip(kind: str, site: str, count: int = 0) -> None:
    """Execute an injection verdict from :func:`check_fault`.

    ``crash`` kills the current process via ``os._exit`` when running as
    a worker (a real, unclean death: no cleanup handlers, the pool sees
    ``BrokenProcessPool``); in the parent process — which must survive to
    run the recovery — it raises :class:`InjectedWorkerCrash` instead.
    """
    if kind == "crash":
        if multiprocessing.parent_process() is not None:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedWorkerCrash(site, kind, count)
    raise FaultInjected(site, kind, count)


def maybe_fault(site: str) -> None:
    """The standard injection hook: check ``site`` and fire in place."""
    plan = _ACTIVE
    if plan is None:
        return
    kind = plan.check(site)
    if kind is not None:
        trip(kind, site, plan._counts.get(site, 0))
