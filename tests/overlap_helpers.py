"""Importable test helpers: SUMMA's local product, the candidate product
with and without the triangle predicate, overlap graphs.

Lives in its own module (not ``conftest.py``) so test files can import it
explicitly: ``from conftest import ...`` resolves whichever ``conftest.py``
pytest imported first.  No other directory defines an ``overlap_helpers``
module, so this name is unambiguous regardless of what else is collected.
"""

from __future__ import annotations

from repro.core.overlap import align_candidates, build_a_matrix, \
    candidate_overlaps
from repro.core.semirings import PositionsSemiring
from repro.core.string_graph import StringGraph
from repro.dsparse.distmat import DistMat
from repro.dsparse.summa import _spgemm_task, summa
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs.kmer_counter import count_kmers


def local_product(A, B, semiring, mask=None, upper=None):
    """One SUMMA block product and the kernel path it took: with ``upper``
    (a block origin) the strict upper triangle, with ``mask`` the masked
    product, else plain ESC."""
    block, path, _work = _spgemm_task(semiring, (A, B, mask, upper))
    return block, path


def summa_upper(A, At, comm, timer=None, executor=None, col_offset=0):
    """The candidate product of ``A`` and a strip ``At`` whose first column
    is read ``col_offset``, as the runtime forms it: one positions-semiring
    SUMMA under the strict-upper-triangle predicate."""
    return summa(A, At, PositionsSemiring(), comm, "SpGEMM", timer,
                 executor=executor, upper=col_offset)


def esc_upper(A, At, comm, timer=None, executor=None, col_offset=0):
    """:func:`summa_upper` the unmasked way: a plain positions-semiring
    SUMMA over the whole strip, then the strict upper triangle selected
    block by block in global coordinates.  Same entries in the same order,
    and the same traffic (both broadcast the same operand blocks)."""
    C = summa(A, At, PositionsSemiring(), comm, "SpGEMM", timer,
              executor=executor)
    blocks = [[b.select(b.row + C.row_bounds[i] <
                        b.col + C.col_bounds[j] + col_offset)
               for j, b in enumerate(brow)]
              for i, brow in enumerate(C.blocks)]
    return DistMat(C.shape, C.grid, blocks, C.nfields)


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
