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
  a MinPlus, a count sum plus the first two seeds for the positions
  semiring.

The pipeline's two semirings live in :mod:`repro.core.semirings`.

Matrix values are 2D ``int64`` arrays of shape ``(nnz, nfields)`` so that a
single container covers plain numbers (``nfields=1``) and structured payloads
(k-mer positions, overhang+orientations) without object arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Semiring", "INF"]

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

    #: Optional ESC truncation capability.  When set to ``k``, the semiring
    #: promises that (a) :meth:`multiply` never returns a validity mask and
    #: (b) :meth:`reduce` applied to a sorted group of *freshly multiplied*
    #: products depends only on the group's first ``k`` products plus the
    #: true group size — so the masked ESC kernel may multiply just those
    #: ``k`` per group and fold them with :meth:`reduce_truncated` instead of
    #: materializing every product value, and the mask-driven dot kernel
    #: may fetch just those ``k`` without expanding any product
    #: (:mod:`repro.dsparse.masked`); and (c) :meth:`reduce` over partial
    #: results (SUMMA's accumulation, rows in stage order) depends only on
    #: the rows' group sizes (:meth:`group_sizes`) and the first ``k``
    #: products of their concatenated product stream — so a stage whose
    #: earlier partials already hold ``s = Σ min(size, k)`` products of a
    #: group may fold just ``min(size, max(0, k − s))`` of its own (none: a
    #: row that carries only its size).  ``None`` (default) disables the
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
                         counts: np.ndarray, taken: np.ndarray) -> np.ndarray:
        """Fold groups truncated to their first ``taken`` products.

        ``vals`` holds only the first ``taken[g] ≤ min(depth, counts[g])``
        freshly multiplied products of each group (``starts`` indexes into
        this truncated array; a group may hold none); ``counts`` carries
        the **true** group sizes.  With ``taken = min(depth, counts)`` the
        result must be byte-identical to :meth:`reduce` over the full groups
        — the contract that makes the masked kernels' truncation invisible;
        with fewer, it is the row a later SUMMA stage may contribute under
        contract (c) of :attr:`product_reduce_depth`.  Required iff
        :attr:`product_reduce_depth` is set.
        """
        raise NotImplementedError

    def group_sizes(self, vals: np.ndarray) -> np.ndarray:
        """Group size each reduced value row stands for (the products
        folded into it).  Required iff :attr:`product_reduce_depth` is
        set."""
        raise NotImplementedError
