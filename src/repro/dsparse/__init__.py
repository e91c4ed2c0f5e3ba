"""Distributed sparse-matrix substrate (the CombBLAS substitution).

2D block-distributed matrices (:class:`~repro.dsparse.distmat.DistMat`) over
local COO/CSR blocks (:class:`~repro.dsparse.coomat.CooMat`), semiring
algebra (:mod:`~repro.dsparse.semiring`), vectorized local SpGEMM
(:mod:`~repro.dsparse.spgemm`), sorted-key membership
(:mod:`~repro.dsparse.membership`), distributed Sparse SUMMA
(:mod:`~repro.dsparse.summa`) and the element-wise kernels of Algorithm 2
(:mod:`~repro.dsparse.elementwise`).

Local kernels are pluggable: :mod:`~repro.dsparse.backend` routes every
block-level operation (SpGEMM, merge, filter, reduction, transpose) through
a :class:`~repro.dsparse.backend.Backend` — ``numpy`` (the ESC
reference), ``scipy`` (native CSR matmul for scalar semirings), or ``auto``
(the default per-call dispatch) — mirroring CombBLAS's per-block kernel
switching that the paper identifies as the runtime-dominating choice.
"""

from .coomat import CooMat
from .distmat import DistMat
from .semiring import Semiring, PlusTimes, MinPlus, BoolOr, INF
from .backend import (
    Backend, NumpyBackend, ScipyBackend, AutoBackend, get_backend,
)
from .spgemm import expand_products, packed_order, spgemm_esc, \
    spgemm_gustavson, multiway_merge, stable_key_order
from .membership import in_sorted, match_sorted
from .masked import (mask_select, masked_route, spgemm_dot_masked,
                     spgemm_esc_masked, spgemm_masked)
from .summa import summa
from .elementwise import (
    reduce_rows, apply_vector, dimapply_rows, ewise_compare_mask,
    prune_mask, apply_entries, prune_entries,
)
from .redistrib import to_2d_grid, to_block_rows

__all__ = [
    "CooMat", "DistMat",
    "Semiring", "PlusTimes", "MinPlus", "BoolOr", "INF",
    "Backend", "NumpyBackend", "ScipyBackend", "AutoBackend", "get_backend",
    "expand_products", "packed_order", "spgemm_esc", "spgemm_gustavson",
    "multiway_merge", "stable_key_order",
    "in_sorted", "match_sorted",
    "mask_select", "masked_route", "spgemm_dot_masked", "spgemm_esc_masked",
    "spgemm_masked",
    "summa",
    "reduce_rows", "apply_vector", "dimapply_rows", "ewise_compare_mask",
    "prune_mask", "apply_entries", "prune_entries",
    "to_2d_grid", "to_block_rows",
]
