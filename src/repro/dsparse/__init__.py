"""Distributed sparse-matrix substrate (the CombBLAS substitution).

2D block-distributed matrices (:class:`~repro.dsparse.distmat.DistMat`) over
local COO/CSR blocks (:class:`~repro.dsparse.coomat.CooMat`), semiring
algebra (:mod:`~repro.dsparse.semiring`), vectorized local SpGEMM
(:mod:`~repro.dsparse.spgemm`), sorted-key membership
(:mod:`~repro.dsparse.membership`), distributed Sparse SUMMA
(:mod:`~repro.dsparse.summa`) and the row reduction of Algorithm 2
(:mod:`~repro.dsparse.elementwise`).

SUMMA calls its local kernels directly: CombBLAS switches the local
multiply kernel per block, the choice the paper identifies as
runtime-dominating, and here :func:`~repro.dsparse.masked.masked_route`
makes that choice per block product, between the pruned ESC and the
mask-driven dot kernel.  :func:`~repro.dsparse.backend.get_backend` only
validates the ``backend`` option's name.
"""

from .coomat import CooMat
from .distmat import DistMat
from .semiring import Semiring, INF
from .backend import get_backend
from .spgemm import expand_products, packed_order, spgemm_esc, \
    multiway_merge, stable_key_order
from .membership import in_sorted, match_sorted
from .masked import (mask_select, masked_route, spgemm_dot_masked,
                     spgemm_esc_masked, spgemm_masked)
from .summa import summa
from .elementwise import reduce_rows

__all__ = [
    "CooMat", "DistMat",
    "Semiring", "INF",
    "get_backend",
    "expand_products", "packed_order", "spgemm_esc",
    "multiway_merge", "stable_key_order",
    "in_sorted", "match_sorted",
    "mask_select", "masked_route", "spgemm_dot_masked", "spgemm_esc_masked",
    "spgemm_masked",
    "summa",
    "reduce_rows",
]
