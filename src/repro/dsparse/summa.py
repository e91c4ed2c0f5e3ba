"""2D Sparse SUMMA with semiring support.

``C = A ⊗ B`` over a ``√P × √P`` grid proceeds in ``√P`` stages (paper
Section V-B): at stage ``k``, the owners of block column ``k`` of ``A``
broadcast their block along their **process row**, the owners of block row
``k`` of ``B`` broadcast theirs along their **process column**, and every
rank multiplies the received pair locally, accumulating partial results.
SUMMA is owner-computes — only inputs move, which is exactly why the paper's
2D bandwidth cost is ``am/√P`` versus the 1D outer-product's ``a²m/P``
(Table I).

The broadcasts run on sub-communicators of the simulated runtime so every
byte and message lands in the tracker under the caller's stage label, and
each stage's local multiplies run inside one :class:`~repro.mpisim.tracker.
StageTimer` superstep (critical-path max over ranks).  The block task calls
its kernel directly: :func:`~repro.dsparse.masked.spgemm_upper` for a
triangle product, :func:`~repro.dsparse.masked.spgemm_masked` for a masked
one, :func:`~repro.dsparse.spgemm.spgemm_esc` otherwise, and
:func:`~repro.dsparse.spgemm.multiway_merge` folds each block's partials.
"""

from __future__ import annotations

import numpy as np

from ..exec import Executor, SERIAL
from ..mpisim.comm import SimComm
from ..mpisim.grid import ProcessGrid2D
from ..resilience.faults import maybe_fault
from ..mpisim.tracker import StageTimer
from .coomat import CooMat, coo_nbytes
from .distmat import DistMat
from .masked import spgemm_masked, spgemm_upper
from .semiring import Semiring
from .spgemm import multiway_merge, spgemm_esc

__all__ = ["summa", "summa_comm_replay"]


def _spgemm_task(semiring, operands):
    """Executor task: one local block product (module-level for pickling).

    ``operands`` is ``(a, b, mask, origin, prior)``: ``prior`` holds the
    block's partials from earlier stages, which the masked kernels read to
    fetch only the products those left short.  Returns ``(block, path,
    work)`` so process-pool workers carry the kernel path (``"esc" |
    "masked_esc" | "masked_dot"``) and the masked kernels' exact work tally
    back to the parent for the per-stage counters.
    """
    a, b, m, origin, prior = operands
    maybe_fault("summa.block")
    work: dict[str, int] = {}
    if origin is not None:
        block, path = spgemm_upper(a, b, semiring, origin, work, prior)
    elif m is not None:
        block, path = spgemm_masked(a, b, semiring, m, work, prior)
    else:
        block, path = spgemm_esc(a, b, semiring), "esc"
    return block, path, work


def _merge_task(semiring, task):
    """Executor task: one output block's partial-result accumulation."""
    parts, shape = task
    return multiway_merge(parts, semiring, shape)


def _stage_broadcasts(grid: ProcessGrid2D, a_blocks: list[list],
                      b_blocks: list[list], k: int, comm: SimComm,
                      stage: str) -> tuple[list[list], list[list]]:
    """Stage ``k``'s row/column broadcasts (the whole of SUMMA's traffic).

    Both :func:`summa` and :func:`summa_comm_replay` issue their collectives
    through this one helper, so the replay's accounting cannot drift from
    the real product's.  ``a_blocks[i][j]`` / ``b_blocks[i][j]`` are the
    operands' per-block payloads.
    """
    q = grid.q
    # Row broadcasts: A block (i, k) to all of process row i.
    recvA = [comm.sub(grid.row_ranks(i)).bcast(a_blocks[i][k], root=k,
                                               stage=stage)
             for i in range(q)]
    # Column broadcasts: B block (k, j) to all of process column j.
    recvB = [comm.sub(grid.col_ranks(j)).bcast(b_blocks[k][j], root=k,
                                               stage=stage)
             for j in range(q)]
    return recvA, recvB


def summa_comm_replay(grid: ProcessGrid2D, a_counts: np.ndarray,
                      b_counts: np.ndarray, nfields: int, comm: SimComm,
                      stage: str) -> None:
    """Re-issue SUMMA's broadcasts for ``A ⊗ B`` from block sizes alone.

    The product's communication is a pure function of the operands' block
    sizes — stage ``k`` broadcasts A's block column ``k`` along process rows
    and B's block row ``k`` along process columns, whatever the semiring —
    so ``a_counts[i, j]`` / ``b_counts[i, j]`` (each ``q × q``: the nonzeros
    of block ``(i, j)``) plus the operands' value-field count are all it
    needs; no operand is built.  The incremental service uses this to charge
    a refreshed dataset's exact ``SpGEMM`` traffic when it already knows
    the product's value from a delta computation.  (Both engines broadcast
    the same full operands once per stage — the masked engine's triangle
    is a coordinate predicate, its delta product an explicit mask — so one
    replay covers either engine's recorded traffic.)
    """
    q = grid.q
    a_counts = np.asarray(a_counts)
    b_counts = np.asarray(b_counts)
    if a_counts.shape != (q, q) or b_counts.shape != (q, q):
        raise ValueError(f"block counts must be {q}x{q}, got "
                         f"{a_counts.shape} and {b_counts.shape}")
    # A block ships its row, col and value arrays: coo_nbytes, the size
    # nbytes_of charges a shipped CooMat.  Payload contents never reach the
    # charge accounting — only nbytes do — so uninitialized buffers of the
    # block's byte size are exact, and their pages are never touched.
    def payloads(counts: np.ndarray) -> list[list[np.ndarray]]:
        return [[np.empty(coo_nbytes(c, nfields), np.uint8) for c in row]
                for row in counts]

    a_blocks, b_blocks = payloads(a_counts), payloads(b_counts)
    for k in range(q):
        _stage_broadcasts(grid, a_blocks, b_blocks, k, comm, stage)


def summa(A: DistMat, B: DistMat, semiring: Semiring, comm: SimComm,
          stage: str, timer: StageTimer | None = None,
          executor: Executor | None = None,
          mask: DistMat | None = None,
          upper: int | None = None) -> DistMat:
    """Distributed ``C = A ⊗ B`` via Sparse SUMMA.

    Parameters
    ----------
    A, B:
        Distributed operands on the same process grid (``A`` is
        ``n×m``-blocked, ``B`` ``m×l``; inner block bounds must agree).
        Either may be a transposed view (:attr:`DistMat.T
        <repro.dsparse.distmat.DistMat.T>`): its blocks broadcast at their
        base's byte size and the local kernels read them in place, so
        ``A·Aᵀ`` runs on one copy of ``A``.
    semiring:
        Scalar algebra for multiply/accumulate.
    comm:
        World communicator covering the grid (``comm.nprocs == P``).
    stage:
        Tracker stage label for all traffic and compute of this product.
    timer:
        Optional stage timer; local multiplies are charged per superstep.
    executor:
        :class:`~repro.exec.Executor` running the local block work (the
        ``q²`` multiplies per SUMMA stage, the ``q²`` final merges) in
        parallel; ``None`` runs them serially.  Output is byte-identical
        either way; per-block compute time is still charged to the owning
        simulated rank.
    mask:
        Optional output-pattern mask on the same grid as ``C``: the result
        is ``(A ⊗ B) ∩ mask``, with each rank pruning its local products to
        its own mask block before the sort/reduce (CombBLAS masked SpGEMM;
        the mask is already distributed, so no extra communication moves).
        Under a mask or ``upper``, a semiring with a
        ``product_reduce_depth`` hands each stage's block task the block's
        partials so far (held by the block's owner, so nothing moves):
        the dot kernel then fetches only the products earlier stages left
        short of that depth, and the final merge gives the same bytes.
    upper:
        Instead of a mask, keep the strict upper triangle of the global
        frame: entry ``(r, c)`` survives iff ``r < c + upper``, where
        ``upper`` is the global index of the output's first column (``0``,
        or a blocked strip's offset).  Each block task gets its block's
        global origin and filters by coordinate
        (:func:`~repro.dsparse.masked.spgemm_upper`); a partial product
        lies inside the final pattern, so this is exactly the final
        pattern's triangle as a mask — without forming it.

    Returns
    -------
    DistMat
        ``C`` distributed on the same grid.
    """
    if A.grid.q != B.grid.q:
        raise ValueError("operands must share a process grid")
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    grid = A.grid
    q = grid.q
    if comm.nprocs != grid.nprocs:
        raise ValueError("communicator size must match grid size")
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    if mask is not None and upper is not None:
        raise ValueError("pass a mask or an upper-triangle offset, not both")
    if mask is not None:
        if mask.grid.q != q:
            raise ValueError("mask must live on the operands' process grid")
        if mask.shape != (A.shape[0], B.shape[1]):
            raise ValueError(f"mask shape {mask.shape} != output shape "
                             f"{(A.shape[0], B.shape[1])}")
    ij = [(i, j) for i in range(q) for j in range(q)]
    rb = grid.row_bounds(A.shape[0])
    cb = grid.col_bounds(B.shape[1])
    origins = [None if upper is None else
               (int(rb[i]), int(cb[j]) + upper) for i, j in ij]

    staged = semiring.product_reduce_depth is not None and \
        (mask is not None or upper is not None)

    # Partial products accumulated per output block.
    partials: list[list[list[CooMat]]] = [[[] for _ in range(q)] for _ in range(q)]

    for k in range(q):
        recvA, recvB = _stage_broadcasts(grid, A.blocks, B.blocks, k, comm,
                                         stage)

        tasks = [(recvA[i][j], recvB[j][i],
                  mask.blocks[i][j] if mask is not None else None, origin,
                  tuple(partials[i][j]) if staged else ())
                 for (i, j), origin in zip(ij, origins)]
        weights = [task[0].nnz + task[1].nnz for task in tasks]
        with timer.superstep(stage) as step:
            results, secs = executor.run_timed(_spgemm_task, tasks,
                                               context=semiring,
                                               weights=weights)
            step.charge_many((grid.rank_of(i, j) for i, j in ij), secs)
            for (i, j), (part, path, work) in zip(ij, results):
                timer.count_kernel(stage, path)
                for name, n in work.items():
                    timer.count_work(stage, name, n)
                if part.nnz:
                    partials[i][j].append(part)

    # Final per-block accumulation (local, no communication).
    tasks = [(partials[i][j],
              (int(rb[i + 1] - rb[i]), int(cb[j + 1] - cb[j])))
             for i, j in ij]
    weights = [sum(p.nnz for p in plist) for plist, _ in tasks]
    with timer.superstep(stage) as step:
        merged, secs = executor.run_timed(_merge_task, tasks,
                                          context=semiring, weights=weights)
        step.charge_many((grid.rank_of(i, j) for i, j in ij), secs)
    blocks = [[merged[i * q + j] for j in range(q)] for i in range(q)]
    return DistMat((A.shape[0], B.shape[1]), grid, blocks, semiring.out_nfields)
