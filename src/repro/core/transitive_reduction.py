"""Distributed transitive reduction (paper Algorithm 2).

The loop body, expressed with the dsparse primitives:

====  ==========================================  =============================
line  paper                                        here
====  ==========================================  =============================
4     ``N ← R²`` (MinPlus semiring, Alg. 3)        :func:`~repro.dsparse.summa.summa`
                                                   with :class:`~repro.core.
                                                   semirings.BidirectedMinPlus`
5     ``v ← R.REDUCE(Row, 0, max)``                :func:`~repro.dsparse.
                                                   elementwise.reduce_rows`
6     ``v ← v.APPLY(x, add)``                      vector add of the fuzz ``x``
7     ``M ← R.DIMAPPLY(Row, v, return2nd)``        folded into the mask step
                                                   (M has R's pattern with v
                                                   values, so the comparison
                                                   only needs v)
8     ``I ← M ≥ N`` (+ end-orientation checks)     :func:`_mask_prune_task`
9     ``R ← R ∘ ¬I``                               fused into the same
                                                   per-block executor task
11    loop until nnz fixed                         :func:`transitive_reduction`
====  ==========================================  =============================

The orientation checks: products inside ``N = R²`` are masked unless the two
attachments at the middle read are opposite ends (valid walk — rule (a));
the mask step compares the direct edge's end pair against the same-slot
minimum of ``N`` (rules (b) and (c)), because ``N`` keeps one minimum per
(end_i, end_j) combination.

Before the loop, contained reads leave (Myers' order, :func:`_drop_contained`):
one row reduce over ``R``'s containment entries picks every contained read's
container, one allgather shares that vector, and the contained reads' rows
and columns go with every containment entry.  Reducing first and dropping
after would over-reduce: a contained read witnesses two-hop paths that vanish
with it.  ``S`` is the reduced dovetail matrix plus one ``R_CONTAINED`` entry
per contained read, pointing at its root container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsparse.backend import get_backend
from ..dsparse.coomat import CooMat
from ..dsparse.distmat import DistMat
from ..dsparse.elementwise import reduce_rows
from ..dsparse.membership import match_sorted
from ..dsparse.summa import summa
from ..exec import Executor, SERIAL
from ..mpisim.comm import SimComm
from ..mpisim.grid import block_bounds
from ..mpisim.tracker import StageTimer
from ..options import SPGEMM_IMPL
from .memory import coo_nbytes
from .semirings import (BidirectedMinPlus, R_CONTAINED, R_END_I, R_END_J,
                        R_NFIELDS, R_NO_END, R_OLEN, R_SUFFIX, n_slot)
from .string_graph import (NO_CONTAINER, container_key, containment_roots,
                           decode_container_key)

__all__ = ["TransitiveReductionResult", "transitive_reduction"]

STAGE = "TrReduction"


@dataclass
class TransitiveReductionResult:
    """Output of the transitive-reduction loop.

    Attributes
    ----------
    S:
        The string matrix: the transitively reduced dovetails between
        non-contained reads plus one containment entry per contained read.
    rounds:
        Iterations until the nonzero count stabilized (the small constant
        ``t`` in Table I's latency ``t√P``).
    removed:
        Directed entries of ``R`` not in ``S``.
    """

    S: DistMat
    rounds: int
    removed: int


def _mask_prune_task(_ctx, task):
    """Executor task: one block's fused transitive mask + prune.

    ``I ← M ≥ N`` with end-orientation agreement (Algorithm 2 line 8)
    composed with ``R ← R ∘ ¬I`` (line 9), per block: for each coordinate in
    ``nonzeros(R) ∩ nonzeros(N)``, the direct edge (with ends
    ``(e_i, e_j)``) is transitive — and dropped — iff the minimum valid
    two-hop suffix in slot ``(e_i, e_j)`` is at most
    ``M_ij = v[i] = rowmax_i + x``.  ``bound`` carries ``v`` gathered at the
    block's entries, so the task needs no global vector.  Fusing the two
    element-wise steps skips materializing ``I`` and lets blocks run as
    independent executor tasks, each charged to its owning grid rank.
    """
    rb, nb, bound = task
    if rb.nnz == 0 or nb.nnz == 0:
        return rb
    ir, inn = match_sorted(rb.keys(), nb.keys())
    if ir.shape[0] == 0:
        return rb
    slots = n_slot(rb.vals[ir, R_END_I], rb.vals[ir, R_END_J])
    transitive = nb.vals[inn, slots] <= bound[ir]
    if not transitive.any():
        return rb
    keep = np.ones(rb.nnz, dtype=bool)
    keep[ir[transitive]] = False
    return rb.select(keep)


def _drop_contained(R: DistMat, comm: SimComm, timer: StageTimer
                    ) -> tuple[DistMat, DistMat]:
    """Split ``R`` into the loop's input and ``S``'s containment entries.

    A row reduce (min) over the ``R_CONTAINED`` entries' container keys
    gives each contained read its container — longest overlap, then lowest
    index (:func:`~repro.core.string_graph.container_key`) — and an
    allgather hands the vector to every rank, which then knows the roots
    (:func:`~repro.core.string_graph.containment_roots`) and which rows and
    columns to drop.  Both collectives are charged to ``TrReduction``; the
    drop itself is block-local.  Returns ``(dovetails between non-contained
    reads, one R_CONTAINED entry per contained read → its root)``; each
    entry carries the overlap length of the read's own best containment.
    """
    grid, q, n = R.grid, R.grid.q, R.shape[0]
    keys = []
    for i in range(q):
        brow = []
        for j in range(q):
            b = R.blocks[i][j]
            inside = np.flatnonzero(b.vals[:, R_SUFFIX] == R_CONTAINED)
            brow.append(CooMat(b.shape, b.row[inside], b.col[inside],
                               container_key(b.col[inside] + R.col_bounds[j],
                                             b.vals[inside, R_OLEN], n),
                               checked=True))
        keys.append(brow)
    best = reduce_rows(DistMat(R.shape, grid, keys, 1), 0, np.minimum,
                       NO_CONTAINER, comm, STAGE)
    parent, olen = decode_container_key(best, n)
    bounds = block_bounds(n, comm.nprocs)
    comm.allgather([parent[bounds[p]:bounds[p + 1]]
                    for p in range(comm.nprocs)], stage=STAGE)
    root = containment_roots(parent)
    kept = root < 0

    blocks = []
    with timer.superstep(STAGE) as step:
        for i in range(q):
            brow = []
            for j in range(q):
                b = R.blocks[i][j]
                with step.rank(grid.rank_of(i, j)):
                    keep = (b.vals[:, R_SUFFIX] >= 0) & \
                        kept[b.row + R.row_bounds[i]] & \
                        kept[b.col + R.col_bounds[j]]
                    brow.append(b if keep.all() else b.select(keep))
            blocks.append(brow)
    inside = np.flatnonzero(~kept)
    vals = np.empty((inside.shape[0], R_NFIELDS), dtype=np.int64)
    vals[:, R_SUFFIX] = R_CONTAINED
    vals[:, R_END_I] = vals[:, R_END_J] = R_NO_END
    vals[:, R_OLEN] = olen[inside]
    return (DistMat(R.shape, grid, blocks, R.nfields),
            DistMat.from_coo(R.shape, grid, inside, root[inside], vals))


def _union(A: DistMat, B: DistMat) -> DistMat:
    """Blockwise union of two matrices with disjoint patterns."""
    q = A.grid.q
    blocks = []
    for i in range(q):
        brow = []
        for j in range(q):
            a, b = A.blocks[i][j], B.blocks[i][j]
            brow.append(a if b.nnz == 0 else CooMat(
                a.shape, np.concatenate([a.row, b.row]),
                np.concatenate([a.col, b.col]), np.vstack([a.vals, b.vals])))
        blocks.append(brow)
    return DistMat(A.shape, A.grid, blocks, A.nfields)


def transitive_reduction(R: DistMat, comm: SimComm,
                         timer: StageTimer | None = None, *,
                         fuzz: int = 150, max_rounds: int = 32,
                         backend: str | None = None,
                         executor: Executor | None = None,
                         spgemm_impl: str | None = None
                         ) -> TransitiveReductionResult:
    """Iterated distributed transitive reduction of the overlap matrix.

    Parameters
    ----------
    R:
        Symmetric overlap matrix with ``[suffix, end_i, end_j, olen]``
        dovetail payloads and marked containment entries
        (:mod:`repro.core.semirings`); the contained reads are dropped on
        entry, before the first squaring.
    comm:
        Simulated communicator; all traffic lands in stage ``TrReduction``.
    timer:
        Optional stage timer.
    fuzz:
        The scalar ``x`` of Algorithm 2 line 6 — tolerance for
        sequencing-error-induced endpoint shifts.
    max_rounds:
        Safety bound on iterations (the paper observes a small constant).
    backend:
        A ``backend`` option name (:data:`repro.options.BACKEND`): validated,
        selects nothing.
    executor:
        :class:`~repro.exec.Executor` parallelizing each round's repeated
        SUMMA products (the runtime-dominating part of the loop) and the
        per-block mask + prune tasks; ``None`` runs them serially.
    spgemm_impl:
        A ``spgemm_impl`` option name (:data:`repro.options.SPGEMM_IMPL`):
        validated, selects nothing.

    The transitive mask only consults ``N`` at ``nonzeros(R) ∩
    nonzeros(N)``, so the squaring passes ``R``'s own pattern as the
    output mask — every product landing outside it is wasted work, and on
    the symmetric overlap graph that is the overwhelming majority.  The
    recorded ``TrReduction`` live set is ``R`` plus that masked ``N``.
    """
    timer = timer if timer is not None else StageTimer()
    get_backend(backend)
    executor = executor if executor is not None else SERIAL
    SPGEMM_IMPL.resolve(spgemm_impl)
    grid = R.grid
    q = grid.q
    ij = [(i, j) for i in range(q) for j in range(q)]
    initial = R.nnz()
    R, contained = _drop_contained(R, comm, timer)
    rounds = 0
    while rounds < max_rounds:
        prev = R.nnz()
        if prev == 0:
            break
        rounds += 1
        N = summa(R, R, BidirectedMinPlus(), comm, STAGE, timer,
                  executor=executor, mask=R)
        # Live set while masking: the round's R plus its two-hop product N.
        timer.record_peak_bytes(STAGE, coo_nbytes(prev, R.nfields) +
                                coo_nbytes(N.nnz(), N.nfields))
        v = reduce_rows(R, R_SUFFIX, np.maximum, 0, comm, STAGE)
        v = v + np.int64(fuzz)
        # Mask + prune are embarrassingly parallel local block ops (no
        # communication, Section V-D): one executor task per block, with
        # in-worker compute charged to the owning rank — the SUMMA
        # charging convention.
        tasks = [(R.blocks[i][j], N.blocks[i][j],
                  v[R.blocks[i][j].row + int(R.row_bounds[i])])
                 for i, j in ij]
        weights = [rb.nnz + nb.nnz for rb, nb, _bound in tasks]
        with timer.superstep(STAGE) as step:
            pruned, secs = executor.run_timed(_mask_prune_task, tasks,
                                              weights=weights)
            step.charge_many((grid.rank_of(i, j) for i, j in ij), secs)
        R = DistMat(R.shape, grid,
                    [[pruned[i * q + j] for j in range(q)] for i in range(q)],
                    R.nfields)
        # Convergence test is an allreduce on the nonzero count.
        nnz_now = comm.allreduce([b.nnz for brow in R.blocks for b in brow],
                                 lambda a, b: a + b, stage=STAGE, item_bytes=8)
        if nnz_now == prev:
            break
    S = _union(R, contained)
    return TransitiveReductionResult(S=S, rounds=rounds,
                                     removed=initial - S.nnz())
