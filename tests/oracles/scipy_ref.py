"""``scipy.sparse`` as an independent reference for the sparse kernels.

The package runs one scipy function (the pattern product's numeric kernel,
loaded on first use); the tests build operands from scipy's random
matrices and compare products, transpositions and patterns against scipy's
own.  These two converters are the whole bridge, test-side only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.dsparse.coomat import CooMat


def from_scipy(mat) -> CooMat:
    """A canonical :class:`CooMat` of a scipy sparse matrix (values cast
    to int64; coordinates re-sorted by the constructor)."""
    coo = sp.coo_matrix(mat)
    return CooMat(coo.shape, coo.row.astype(np.int64),
                  coo.col.astype(np.int64), coo.data.astype(np.int64))


def to_scipy(M: CooMat, field: int = 0) -> sp.coo_matrix:
    """One value field of ``M`` as a float scipy COO matrix."""
    return sp.coo_matrix((M.vals[:, field].astype(np.float64),
                          (M.row, M.col)), shape=M.shape)
