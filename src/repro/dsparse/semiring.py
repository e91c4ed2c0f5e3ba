"""Semiring abstraction for sparse matrix algebra.

The paper's central design device is overloading SpGEMM's scalar ``add`` and
``multiply`` with custom operations (Algorithms 1 and 3): a *positions*
semiring builds the candidate-overlap matrix ``C = A·Aᵀ`` and a *MinPlus*
semiring with bidirected-walk validity checks computes the two-hop matrix
``N = R²`` of the transitive reduction.

Because the local SpGEMM kernel is the vectorized expand-sort-compress (ESC)
algorithm (:mod:`repro.dsparse.spgemm`), a semiring here is expressed in
**batch form**:

* :meth:`Semiring.multiply` maps two aligned ``(n, nf)`` value arrays (the
  expanded products) to output values plus an optional validity mask — this
  is where "return ID()" of Algorithm 3 line 6 becomes "mask the product
  out";
* :meth:`Semiring.reduce` folds each sorted group of products that share an
  output coordinate into a single value row — ``np.minimum.reduceat`` for
  MinPlus, segment sums for PlusTimes, etc.

Matrix values are 2D ``int64`` arrays of shape ``(nnz, nfields)`` so that a
single container covers plain numbers (``nfields=1``) and structured payloads
(k-mer positions, overhang+orientations) without object arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Semiring", "PlusTimes", "MinPlus", "BoolOr", "INF"]

#: "Infinity" for MinPlus-style semirings; large enough that no genomic
#: suffix sum approaches it, small enough that sums of two never overflow.
INF = np.int64(2 ** 60)


class Semiring:
    """Base class: batch multiply + segmented reduce over int64 field arrays.

    Subclasses set :attr:`out_nfields` (the width of result value rows) and
    implement the two batch methods.
    """

    #: Number of int64 fields in this semiring's *output* values.
    out_nfields: int = 1

    #: Optional scalar lowering the ``scipy`` backend can execute with native
    #: CSR arithmetic (:mod:`repro.dsparse.backend`): ``"plus_times"`` or
    #: ``"bool_or"``.  ``None`` (the default) means the semiring only runs on
    #: the ESC kernel — multi-field semirings and MinPlus (scipy has no
    #: tropical product) stay here.
    lowering: str | None = None

    #: Optional ESC truncation capability.  When set to ``k``, the semiring
    #: promises that (a) :meth:`multiply` never returns a validity mask and
    #: (b) :meth:`reduce` applied to a sorted group of *freshly multiplied*
    #: products depends only on the group's first ``k`` products plus the
    #: true group size — so the masked ESC kernel may multiply just those
    #: ``k`` per group and fold them with :meth:`reduce_truncated` instead of
    #: materializing every product value, and the mask-driven dot kernel
    #: may fetch just those ``k`` without expanding any product
    #: (:mod:`repro.dsparse.masked`).  ``None`` (default) disables the
    #: fast path; reduces that consume every product (MinPlus-style minima,
    #: sums of non-constant values) must leave it off.
    product_reduce_depth: int | None = None

    def multiply(self, avals: np.ndarray, bvals: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Elementwise products of aligned A/B value rows.

        Returns ``(cvals, mask)`` where ``cvals`` has shape
        ``(n, out_nfields)`` and ``mask`` (optional boolean) marks the valid
        products; ``None`` means all valid.
        """
        raise NotImplementedError

    def reduce(self, vals: np.ndarray, starts: np.ndarray, counts: np.ndarray
               ) -> np.ndarray:
        """Fold sorted product groups into one value row per group.

        ``vals`` holds all products sorted so each output nonzero's
        contributions are contiguous; group ``g`` spans
        ``vals[starts[g] : starts[g] + counts[g]]``.
        """
        raise NotImplementedError

    def reduce_truncated(self, vals: np.ndarray, starts: np.ndarray,
                         counts: np.ndarray) -> np.ndarray:
        """Fold groups truncated to :attr:`product_reduce_depth` products.

        ``vals`` holds only the first ``min(depth, counts[g])`` freshly
        multiplied products of each group (``starts`` indexes into this
        truncated array); ``counts`` carries the **true** group sizes.  Must
        be byte-identical to :meth:`reduce` over the full groups — the
        contract that makes the masked kernel's truncation invisible.
        Required iff :attr:`product_reduce_depth` is set.
        """
        raise NotImplementedError


class PlusTimes(Semiring):
    """The ordinary (+, ×) semiring on single-field integer values.

    Used for structural tests (it must agree with ``scipy.sparse`` matrix
    multiplication) and for nnz/counting style products.
    """

    out_nfields = 1
    lowering = "plus_times"

    def multiply(self, avals, bvals):
        return avals[:, :1] * bvals[:, :1], None

    def reduce(self, vals, starts, counts):
        sums = np.add.reduceat(vals[:, 0], starts)
        return sums[:, None]


class MinPlus(Semiring):
    """Plain tropical (min, +) semiring on single-field values.

    The direction-checked MinPlus of Algorithm 3 lives in
    :class:`repro.core.semirings.BidirectedMinPlus`; this numeric version
    backs shortest-path style tests.
    """

    out_nfields = 1

    def multiply(self, avals, bvals):
        return avals[:, :1] + bvals[:, :1], None

    def reduce(self, vals, starts, counts):
        mins = np.minimum.reduceat(vals[:, 0], starts)
        return mins[:, None]


class BoolOr(Semiring):
    """Boolean (or, and) semiring: structural product (pattern of A·B)."""

    out_nfields = 1
    lowering = "bool_or"

    def multiply(self, avals, bvals):
        out = ((avals[:, :1] != 0) & (bvals[:, :1] != 0)).astype(np.int64)
        return out, None

    def reduce(self, vals, starts, counts):
        anys = np.maximum.reduceat(vals[:, 0], starts)
        return np.minimum(anys, 1)[:, None]
