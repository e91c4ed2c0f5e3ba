"""Importable test helpers for building overlap graphs.

Lives in its own module (not ``conftest.py``) so test files can import it
explicitly: ``from conftest import ...`` resolves whichever ``conftest.py``
pytest imported first.  No other directory defines an ``overlap_helpers``
module, so this name is unambiguous regardless of what else is collected.
"""

from __future__ import annotations

from repro.core.overlap import align_candidates, build_a_matrix, \
    candidate_overlaps
from repro.core.string_graph import StringGraph
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs.kmer_counter import count_kmers


def build_overlap_graph(reads, k=17, nprocs=1, mode="chain", fuzz=20,
                        upper=40, backend=None):
    """Overlap graph R (pre-reduction) for a read set."""
    comm = SimComm(nprocs, CommTracker(nprocs))
    timer = StageTimer()
    grid = ProcessGrid2D(nprocs)
    table = count_kmers(reads, k, comm, timer, upper=upper)
    A = build_a_matrix(reads, table, grid, comm, timer)
    C = candidate_overlaps(A, comm, timer, backend=backend)
    R = align_candidates(C, reads, k, comm, timer, mode=mode, fuzz=fuzz)
    return StringGraph.from_coomat(R.to_global()), R, comm, timer
