"""repro.resilience — deterministic fault injection and recovery.

The pipeline is a long-running job whose real deployments face worker
death, preemption, and partial failures.  This package supplies the
substrate that lets every layer survive them while staying byte-identical
to a fault-free run:

* :mod:`repro.resilience.faults` — a seeded, counter-keyed
  :class:`FaultPlan` (``"exec.chunk:crash@3;service.refresh:exc@2"``)
  whose injection hooks compile down to a single ``None`` check when no
  plan is armed.
* :mod:`repro.resilience.retry` — the bounded :class:`RetryPolicy`
  (attempt ceiling + deterministic backoff schedule) the executors and
  the service consult when a chunk or a refresh fails.
* :mod:`repro.resilience.checkpoint` — the crash-safe per-strip
  :class:`StripCheckpoint` store behind the blocked pipeline's
  ``--checkpoint-dir`` (atomic writes, versioned manifest, fingerprint
  refusal of mismatched configs).

The recovery paths themselves live where the failures happen — chunk
retry/pool respawn/degradation in :mod:`repro.exec.executor`, strip
resume in :mod:`repro.core.blocked`, transactional commits in
:mod:`repro.service.server`.
"""

from .checkpoint import CheckpointMismatch, StripCheckpoint
from .faults import (FAULT_KINDS, FaultInjected, FaultPlan,
                     InjectedWorkerCrash, active_plan, check_fault,
                     current_plan, maybe_fault, trip)
from .retry import DEFAULT_RETRY, RetryPolicy

__all__ = [
    "FaultPlan", "FaultInjected", "InjectedWorkerCrash",
    "FAULT_KINDS", "active_plan", "current_plan", "check_fault",
    "maybe_fault", "trip",
    "RetryPolicy", "DEFAULT_RETRY",
    "StripCheckpoint", "CheckpointMismatch",
]
