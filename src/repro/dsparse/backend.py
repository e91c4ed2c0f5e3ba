"""Pluggable local sparse-kernel backends.

The paper's performance argument (Section IV-D) is that the *local multiply
kernel* inside Sparse SUMMA dominates runtime, and CombBLAS swaps hash /
heap / hybrid kernels per block to keep it fast.  This module is the
reproduction's equivalent seam: every local kernel the distributed layer
needs — SpGEMM, product expansion, element-wise merge and filter, row
reduction — is a method of a :class:`Backend`, and callers select an
implementation by name through :func:`get_backend`.  A transpose is not a
kernel: :attr:`~repro.dsparse.coomat.CooMat.T` is a view every kernel
reads as it is.

Shipped backends
----------------

``numpy``
    The reference implementation: the vectorized expand-sort-compress
    SpGEMM (:func:`~repro.dsparse.spgemm.spgemm_esc`; with an
    output-pattern mask, :func:`~repro.dsparse.masked.spgemm_masked`, which
    picks per block product between the masked ESC and the mask-driven
    dot kernel) and pure-numpy element-wise kernels.
    Handles every semiring, including the multi-field ones
    (:class:`~repro.core.semirings.PositionsSemiring`,
    :class:`~repro.core.semirings.BidirectedMinPlus`).

``scipy``
    Lowers *scalar* semirings (single value field, a declared
    :attr:`~repro.dsparse.semiring.Semiring.lowering`) onto native
    ``scipy.sparse`` CSR matmul / addition, using the zero-copy CSR views
    cached on :class:`~repro.dsparse.coomat.CooMat`.  The C kernels run
    2–4x faster than the ESC path on counting/structural products at
    realistic sizes, and the gap widens as products densify.  Masked scalar products run native
    first, then intersect with the mask (``masked_csr``).
    Everything it cannot lower *byte-identically* falls back to the numpy
    kernels: multi-field semirings, MinPlus (scipy has no tropical product),
    and scalar operands whose values could cancel or vanish (scipy prunes
    explicit zeros that ESC keeps, so PlusTimes requires strictly positive
    values and BoolOr all-nonzero values to lower).

Multi-field semirings always execute on the ESC kernels, but since the
masked engine (``spgemm_impl="masked"``) the *consumers* prune them: the
overlap stage keeps the strict upper triangle by coordinate (``upper=``),
forming a scalar pattern product only on blocks large enough for the dot
kernel, and transitive reduction squares ``R`` under its own pattern.
Every product reports which path it took through
:meth:`Backend.spgemm_with_path` (``"esc" | "masked_esc" | "masked_dot" |
"csr" | "masked_csr"``), the hook the per-stage kernel-dispatch counters
are built on, and the masked kernels add their exact work (``products``
expanded, ``probes`` looked up) to the caller's ``tally``.

``auto``
    The default: per-call dispatch with exactly the ``scipy`` policy —
    scalar lowerable products take the CSR fast path, everything else the
    numpy reference.  Because fallback is bitwise-exact, results never
    depend on the backend choice.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..options import BACKEND
from .coomat import CooMat
from .masked import mask_select, spgemm_masked, spgemm_upper
from .semiring import Semiring
from .spgemm import expand_products, multiway_merge, spgemm_esc

__all__ = [
    "Backend", "NumpyBackend", "ScipyBackend", "AutoBackend", "get_backend",
]


class Backend:
    """Abstract kernel surface every local sparse operation goes through.

    All methods take and return :class:`CooMat` blocks (canonical COO with
    ``(nnz, nf)`` int64 values, or transposed views of them); distributed
    layers (SUMMA, element-wise ops) call these per block and never touch
    kernel internals.
    """

    #: Registry name; set by subclasses.
    name: str = "abstract"

    # -- SpGEMM -------------------------------------------------------------
    def spgemm(self, A: CooMat, B: CooMat, semiring: Semiring,
               mask: CooMat | None = None) -> CooMat:
        """Local semiring product ``C = A ⊗ B``.

        With ``mask`` (a :class:`CooMat` consulted for pattern only), the
        result is ``(A ⊗ B) ∩ mask`` — byte-identical to computing the full
        product and intersecting, but implementations prune early.
        """
        return self.spgemm_with_path(A, B, semiring, mask)[0]

    def spgemm_with_path(self, A: CooMat, B: CooMat, semiring: Semiring,
                         mask: CooMat | None = None,
                         tally: dict | None = None,
                         upper: tuple[int, int] | None = None
                         ) -> tuple[CooMat, str]:
        """Like :meth:`spgemm`, also naming the kernel path taken.

        ``upper`` (the block's global origin, instead of a ``mask``)
        restricts the product to the strict upper triangle of the global
        frame by coordinate (:func:`~repro.dsparse.masked.spgemm_upper`).
        The path string (``"esc"``, ``"masked_esc"``, ``"masked_dot"``,
        ``"csr"``, ``"masked_csr"``) feeds the per-stage dispatch counters
        (:meth:`repro.mpisim.StageTimer.count_kernel`); ``tally`` (optional
        dict) accumulates the masked kernels' exact work — ``products``
        expanded by ESC, ``probes`` looked up by the dot kernel — for
        :meth:`repro.mpisim.StageTimer.count_work`.  Executor tasks carry
        both back to the parent alongside the block product.
        """
        raise NotImplementedError

    def expand(self, A: CooMat, B: CooMat):
        """All elementary products of A entries with matching B rows.

        Returns ``(a_idx, b_at)``: indices into A's storage and positions
        in B's CSR (:func:`~repro.dsparse.spgemm.expand_products`; the
        expansion half of ESC, also the 1D baseline's per-k-mer outer
        product).
        """
        return expand_products(A, B)

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

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyBackend(Backend):
    """Reference backend: ESC SpGEMM + pure-numpy element-wise kernels."""

    name = "numpy"

    def spgemm_with_path(self, A, B, semiring, mask=None, tally=None,
                         upper=None):
        if upper is not None:
            return spgemm_upper(A, B, semiring, upper, tally)
        if mask is not None:
            return spgemm_masked(A, B, semiring, mask, tally)
        return spgemm_esc(A, B, semiring), "esc"


def _canonical(C: sp.csr_matrix) -> sp.csr_matrix:
    """Sort a CSR matmul result's row segments by column index.

    scipy's SpGEMM emits unsorted columns within each row; the two
    linear-time conversion passes of a CSC round-trip re-order them faster
    than the per-row comparison sort of ``sort_indices``.
    """
    if C.has_sorted_indices:
        return C
    return C.tocsc().tocsr()


class ScipyBackend(NumpyBackend):
    """CSR-native backend: scalar semirings run on scipy's C kernels.

    Lowering is attempted only when it is provably byte-identical to the ESC
    reference (see the guards in :meth:`can_lower`); anything else delegates
    to the inherited numpy kernels, so this backend is safe as a drop-in for
    every workload.
    """

    name = "scipy"

    @staticmethod
    def can_lower(A: CooMat, B: CooMat, semiring: Semiring) -> str | None:
        """The lowering to use for this product, or ``None`` for ESC.

        scipy's CSR arithmetic prunes entries whose accumulated value is
        zero, while ESC keeps every structural nonzero; the value guards
        exclude exactly the inputs where that difference could show (zero or
        cancelling products).
        """
        lowering = semiring.lowering
        if lowering is None or A.nfields != 1 or B.nfields != 1:
            return None
        if lowering == "plus_times":
            # Strictly positive values: no zero products, no cancellation.
            if (A.vals > 0).all() and (B.vals > 0).all():
                return lowering
            return None
        if lowering == "bool_or":
            # All-nonzero values: every product contributes a 1.
            if A.vals.all() and B.vals.all():
                return lowering
            return None
        return None

    def spgemm_with_path(self, A, B, semiring, mask=None, tally=None,
                         upper=None):
        if A.shape[1] != B.shape[0]:
            raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
        lowering = None if upper is not None else \
            self.can_lower(A, B, semiring)
        if lowering == "plus_times":
            C = CooMat.from_csr(_canonical(A.to_csr(0) @ B.to_csr(0)),
                                checked=True)
        elif lowering == "bool_or":
            raw = _canonical(A.pattern_csr() @ B.pattern_csr())
            np.minimum(raw.data, 1, out=raw.data)
            C = CooMat.from_csr(raw, checked=True)
        else:
            return super().spgemm_with_path(A, B, semiring, mask, tally,
                                            upper)
        if mask is not None:
            # Native product first, then intersect: byte-identical to the
            # masked ESC chain (masked_csr = csr ∩ mask = esc ∩ mask).
            return mask_select(C, mask), "masked_csr"
        return C, "csr"

    def merge(self, parts, semiring, shape):
        parts = [p for p in parts if p.nnz > 0]
        lowering = semiring.lowering
        # Strictly positive single-field values: union-add never prunes and
        # (for bool_or) clamping the counts reproduces ESC's max-based OR.
        # Parts must already live in the requested frame — CSR addition
        # cannot re-embed into a larger output shape.
        if len(parts) < 2 or lowering not in ("plus_times", "bool_or") or \
                not all(p.shape == shape and p.nfields == 1 and
                        (p.vals > 0).all() for p in parts):
            return super().merge(parts, semiring, shape)
        acc = parts[0].to_csr(0)
        for p in parts[1:]:
            acc = acc + p.to_csr(0)
        acc = _canonical(acc)
        if lowering == "bool_or":
            np.minimum(acc.data, 1, out=acc.data)
        return CooMat.from_csr(acc, checked=True)


class AutoBackend(ScipyBackend):
    """Per-call auto-selection (the default).

    Scalar lowerable semirings take the scipy CSR fast path; multi-field
    semirings take the numpy ESC reference — which is precisely
    :class:`ScipyBackend`'s dispatch, registered under its own name so the
    policy reads as a deliberate choice at call sites.
    """

    name = "auto"


_BACKENDS: dict[str, Backend] = {
    "numpy": NumpyBackend(), "scipy": ScipyBackend(), "auto": AutoBackend()}


def get_backend(name: "str | Backend | None" = None) -> Backend:
    """The backend called ``name``.

    ``None`` and unknown names go through the ``backend`` axis
    (:data:`repro.options.BACKEND`), which supplies the default (the
    dispatching ``"auto"`` backend) or the named ``ValueError``.  Accepts
    an already-built :class:`Backend` unchanged, so plumbing layers can
    pass either form through.
    """
    if isinstance(name, Backend):
        return name
    return _BACKENDS[BACKEND.resolve(name)]
