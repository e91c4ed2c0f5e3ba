"""repro.exec — shared-memory parallel execution for the rank loops.

The simulated runtime (:mod:`repro.mpisim`) charges every rank's compute to
a critical-path timer but executes it in one sequential loop; this package
supplies the serial reference executor and a process pool that spreads
those independent per-rank / per-block / per-pair tasks over real cores,
with an ordered deterministic reduction so pipeline output is
byte-identical for every executor and worker count.

See :mod:`repro.exec.executor` for the contract and
:mod:`repro.exec.partition` for the weight-balanced chunking.
"""

from .executor import (Executor, ProcessExecutor, SerialExecutor, SERIAL,
                       executor_name, get_executor)
from .partition import weighted_chunks

__all__ = [
    "Executor", "SerialExecutor", "ProcessExecutor",
    "SERIAL", "get_executor", "executor_name", "weighted_chunks",
]
