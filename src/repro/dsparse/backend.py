"""The local sparse-kernel surface the distributed layers call.

The paper's performance argument (Section IV-D) is that the *local multiply
kernel* inside Sparse SUMMA dominates runtime, and CombBLAS swaps kernels
per block to keep it fast.  Here that per-block choice is
:func:`~repro.dsparse.masked.masked_route` (the pruned ESC or the
mask-driven dot kernel).  This module is the surface it is reached
through: every local kernel the distributed layer needs — SpGEMM,
element-wise merge and filter, row reduction — is a method of
:class:`Backend`, and callers obtain it through :func:`get_backend`.  A
transpose is not a kernel: :attr:`~repro.dsparse.coomat.CooMat.T` is a
view every kernel reads as it is.

SpGEMM runs the vectorized expand-sort-compress kernel
(:func:`~repro.dsparse.spgemm.spgemm_esc`); with an output-pattern mask,
:func:`~repro.dsparse.masked.spgemm_masked`, which picks per block product
between the masked ESC and the mask-driven dot kernel; with a block
origin instead, :func:`~repro.dsparse.masked.spgemm_upper`, which keeps
the strict upper triangle by coordinate.  They handle every semiring,
including the multi-field ones the pipeline multiplies with
(:class:`~repro.core.semirings.PositionsSemiring`,
:class:`~repro.core.semirings.BidirectedMinPlus`).  Every product reports
which path it took through :meth:`Backend.spgemm_with_path` (``"esc" |
"masked_esc" | "masked_dot"``), the hook the per-stage kernel-dispatch
counters are built on, and the masked kernels add their exact work
(``products`` expanded, ``probes`` looked up) to the caller's ``tally``.

The ``backend`` axis still accepts ``numpy``, ``scipy`` and ``auto``, and
all three select these same kernels until the axis goes.
"""

from __future__ import annotations

import numpy as np

from ..options import BACKEND
from .coomat import CooMat
from .masked import spgemm_masked, spgemm_upper
from .semiring import Semiring
from .spgemm import multiway_merge, spgemm_esc

__all__ = ["Backend", "get_backend"]


class Backend:
    """The kernel surface every local sparse operation goes through.

    All methods take and return :class:`CooMat` blocks (canonical COO with
    ``(nnz, nf)`` int64 values, or transposed views of them); distributed
    layers (SUMMA, element-wise ops) call these per block and never touch
    kernel internals.
    """

    # -- SpGEMM -------------------------------------------------------------
    def spgemm_with_path(self, A: CooMat, B: CooMat, semiring: Semiring,
                         mask: CooMat | None = None,
                         tally: dict | None = None,
                         upper: tuple[int, int] | None = None
                         ) -> tuple[CooMat, str]:
        """Local semiring product ``C = A ⊗ B``, naming the kernel path.

        With ``mask`` (a :class:`CooMat` consulted for pattern only), the
        result is ``(A ⊗ B) ∩ mask`` — byte-identical to computing the full
        product and intersecting, but the kernels prune early.  ``upper``
        (the block's global origin, instead of a ``mask``) restricts the
        product to the strict upper triangle of the global frame by
        coordinate (:func:`~repro.dsparse.masked.spgemm_upper`).
        The path string (``"esc"``, ``"masked_esc"``, ``"masked_dot"``)
        feeds the per-stage dispatch counters
        (:meth:`repro.mpisim.StageTimer.count_kernel`); ``tally`` (optional
        dict) accumulates the masked kernels' exact work — ``products``
        expanded by ESC, ``probes`` looked up by the dot kernel — for
        :meth:`repro.mpisim.StageTimer.count_work`.  Executor tasks carry
        both back to the parent alongside the block product.
        """
        if A.shape[1] != B.shape[0]:
            raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
        if upper is not None:
            return spgemm_upper(A, B, semiring, upper, tally)
        if mask is not None:
            return spgemm_masked(A, B, semiring, mask, tally)
        return spgemm_esc(A, B, semiring), "esc"

    # -- element-wise merge -------------------------------------------------
    def merge(self, parts: list[CooMat], semiring: Semiring,
              shape: tuple[int, int]) -> CooMat:
        """Fold partial results coordinate-wise (SUMMA accumulation)."""
        return multiway_merge(parts, semiring, shape)

    # -- element-wise filter --------------------------------------------------
    def select(self, A: CooMat, mask: np.ndarray) -> CooMat:
        """Entries of ``A`` where ``mask`` is true (order preserved)."""
        return A.select(mask)

    # -- reduction ------------------------------------------------------------
    def row_reduce(self, A: CooMat, field: int, op_reduceat,
                   identity: int) -> np.ndarray:
        """Per-row fold of one value field into a dense length-rows vector.

        ``op_reduceat`` is a numpy ufunc (``np.maximum``, ``np.add``, ...);
        rows without nonzeros hold ``identity``.
        """
        out = np.full(A.shape[0], identity, dtype=np.int64)
        if A.nnz:
            indptr = A.csr_indptr()
            counts = np.diff(indptr)
            nz = counts > 0
            starts = indptr[:-1][nz]
            out[np.flatnonzero(nz)] = op_reduceat.reduceat(
                A.vals[:, field], starts)
        return out


_BACKEND = Backend()


def get_backend(name: "str | Backend | None" = None) -> Backend:
    """The kernel set selected by ``name``.

    ``None`` and unknown names go through the ``backend`` axis
    (:data:`repro.options.BACKEND`), which supplies the default or the
    named ``ValueError``; every accepted name selects the same kernels.
    Accepts an already-built :class:`Backend` unchanged, so plumbing
    layers can pass either form through.
    """
    if isinstance(name, Backend):
        return name
    BACKEND.resolve(name)
    return _BACKEND
