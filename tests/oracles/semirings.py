"""Scalar test semirings: plain (+, ×), (min, +) and (or, and) on one
value field.  The pipeline multiplies only with the multi-field semirings
of :mod:`repro.core.semirings`; these exercise the generic kernels on
values a dense or ``scipy.sparse`` reference can check.  Test-only:
nothing under ``src/`` imports them."""

from __future__ import annotations

import numpy as np

from repro.dsparse.semiring import Semiring


class PlusTimes(Semiring):
    """The ordinary (+, ×) semiring on single-field integer values.

    It must agree with ``scipy.sparse`` matrix multiplication, which makes
    it the structural reference for the kernels.
    """

    out_nfields = 1

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

    def multiply(self, avals, bvals):
        out = ((avals[:, :1] != 0) & (bvals[:, :1] != 0)).astype(np.int64)
        return out, None

    def reduce(self, vals, starts, counts):
        anys = np.maximum.reduceat(vals[:, 0], starts)
        return np.minimum(anys, 1)[:, None]
