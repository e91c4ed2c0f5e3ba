"""Simulated distributed-memory runtime.

This package is the substitution for MPI on Cori/Summit: an in-process SPMD
environment whose collectives move real data between per-rank slots and
account exact bytes/messages (:mod:`~repro.mpisim.comm`), a ``√P×√P`` logical
grid (:mod:`~repro.mpisim.grid`), α–β machine models for the two evaluation
platforms (:mod:`~repro.mpisim.machine`), and compute/communication stage
accounting (:mod:`~repro.mpisim.tracker`).  See DESIGN.md §2 for why this
substitution preserves the paper's measured quantities.
"""

from .comm import SimComm, nbytes_of
from .grid import ProcessGrid2D, block_bounds, partition_by_owner
from .machine import MachineModel, CORI_HASWELL, SUMMIT_CPU, MACHINES
from .tracker import CommTracker, StageTimer

__all__ = [
    "SimComm", "nbytes_of",
    "ProcessGrid2D", "block_bounds", "partition_by_owner",
    "MachineModel", "CORI_HASWELL", "SUMMIT_CPU", "MACHINES",
    "CommTracker", "StageTimer",
]
