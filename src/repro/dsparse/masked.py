"""Masked semiring SpGEMM — two kernels and a pre-expansion choice.

CombBLAS's masked SpGEMM (paper Section IV-D) never forms products outside
a known output pattern and picks its local kernel per block.  Here
``(A ⊗ B) ∩ mask`` has two kernels, and :func:`spgemm_masked` picks one per
block product:

:func:`spgemm_esc_masked` — expand-sort-compress, pruned.
    Every elementary product of the *unmasked* ``A ⊗ B`` is expanded (as an
    index pair) and looked up in the mask
    (:func:`~repro.dsparse.membership.in_sorted`: one indexed byte per
    product while a block's key span is small, a binary search otherwise);
    only the survivors reach the semiring multiply and the sort.  So the
    two superlinear steps track the masked products, but expansion and the
    mask lookup still pay for every product, inside the mask or not.
    Handles every semiring.

:func:`spgemm_dot_masked` — mask-driven (the inner-product, "dot",
formulation).
    For semirings that declare ``product_reduce_depth = d`` (the positions
    semiring: its reduce reads a group's first two products plus the group
    size).  Group sizes come from the scalar pattern product
    ``pattern(A) @ pattern(B)`` (:func:`pattern_matmul`: scipy's numeric
    kernel ``scipy.sparse._sparsetools.csr_matmat`` called directly, 32-bit
    indices where the block fits, its output sized from ``min(flops, rows
    × cols)`` instead of ``@``'s symbolic ``csr_matmat_maxnnz`` pass —
    ``test_pattern_product_is_one_sized_kernel_pass`` pins the private
    name), intersected with the mask (or handed in already intersected,
    ``sized=True``); the first ``d`` products of each surviving ``(i, j)``
    come from intersecting row ``i`` of ``A`` with column ``j`` of ``B``:
    the shorter of the two is walked and looked up in the other operand's
    sorted keys until ``d`` commons have shown, in windows that start where
    the ``d``-th of the group's ``count`` commons would sit were they
    spread evenly (``⌈d·(len + 1)/(count + 1)⌉``) and double from there.
    No elementary product is expanded: cost tracks the mask's nnz and how
    deep into a line its pairs' first commons sit, not the product's flops.
    Under SUMMA a block task also gets its block's partials from earlier
    stages, and ``d`` shrinks per pair to what they left short (none: a
    count-only row), which the accumulating merge folds to the same bytes
    (contract (c) of :attr:`~repro.dsparse.semiring.Semiring.
    product_reduce_depth`).

Either kernel takes ``B`` as a transposed view (:attr:`~repro.dsparse.
coomat.CooMat.T`), which is how ``C = A·Aᵀ`` runs: both read ``B`` through
its lines (:meth:`~repro.dsparse.coomat.CooMat.csr` /
:meth:`~repro.dsparse.coomat.CooMat.csc`).  The dot kernel walks a view's
columns, which are its base's CSR rows — no permutation at all; ESC
expands along a view's rows, its base's CSC (one counting pass per view
block, kept by the view), and gathers values only for the products it
keeps.

The overlap product ``C = A·Aᵀ`` keeps only its strict upper triangle, and
needs no mask for it: :func:`spgemm_upper` takes the block's global origin
and keeps ``row < col`` by coordinate.  Every partial product of a SUMMA
stage lies inside the final product's pattern, so the predicate selects
exactly what a mask of the final pattern's triangle would.  A *symmetric*
diagonal block — origin row = origin column, ``B`` the view ``A.T`` of the
block itself — never forms the rest: ESC pairs each entry of a column of
``A`` only with the entries after it, ``Σ c(c − 1)/2`` products over the
column lengths ``c`` (no self-product, no mirror), and the route is sized
by that count.  Below ``2¹⁵`` products (a symmetric block's triangle ones)
ESC runs directly; above, the block's pattern product is formed once and
its upper part is both the route's mask and the dot kernel's group sizes
(ESC, if routed there, still expands only what it keeps).

Byte-identity with ``unmasked ∩ mask`` is structural in both.  ESC's
coordinate filter removes only *whole* output groups and the surviving
products keep their expansion order under the stable sort; expansion order
inside one group is ascending inner index ``k`` (``A``'s row ``i`` is
k-sorted and ``B`` holds at most one ``(k, j)``), which is exactly the
order in which the dot kernel's sorted-row/sorted-column intersection
meets the commons.  Order-sensitive reduces (``PositionsSemiring``'s
first-two-seeds backfill) are therefore preserved verbatim by either.

Which kernel wins depends on the block: ESC pays per product, the dot
kernel per probed row/column element.  :func:`masked_route` decides from
quantities known *before* expanding — see its docstring for the rule and
the sweep behind its constant.  The overlap product and the
transitive-reduction squaring always take these kernels; the test suite
checks them against a plain ESC product filtered afterwards.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
# scipy's numeric CSR product, the pass ``@`` runs after sizing its output
# with a symbolic one; renamed in a scipy release, this import fails loudly.
from scipy.sparse._sparsetools import csr_matmat as _csr_matmat

from ..mpisim.tracker import add_work
from .coomat import CooMat, Lines
from .membership import in_sorted
from .semiring import Semiring
from .spgemm import (_ranges, _sort_reduce, expand_products, spgemm_esc,
                     stable_key_sort)

__all__ = ["mask_select", "spgemm_masked", "spgemm_esc_masked",
           "spgemm_dot_masked", "spgemm_upper", "masked_route",
           "MaskedRoute", "pattern_matmul"]

#: The dot kernel is chosen when ESC's products outnumber its *estimated*
#: probes at least this many times, and there are enough of them for its
#: fixed cost to matter less (see :func:`masked_route`).
_DOT_MIN_GAIN = 8
_DOT_MIN_FLOPS = 2 ** 15

#: Largest dimension / nnz the pattern product runs on 32-bit indices.
_INDEX32_MAX = 2 ** 31 - 1


def _packable(shape: tuple[int, int]) -> bool:
    """Whether (row, col) coordinates of ``shape`` pack into one int64 key."""
    return not shape[0] or shape[0] <= (2 ** 63 - 1) // max(1, shape[1])


def _dot_packable(A: CooMat, B: CooMat) -> bool:
    """Whether the dot kernel's three key spaces fit int64: the output's
    (row, col), A's (row, k) and B's column-major (col, k)."""
    return _packable((A.shape[0], B.shape[1])) and _packable(A.shape) and \
        _packable((B.shape[1], B.shape[0]))


def mask_select(A: CooMat, mask: CooMat) -> CooMat:
    """Entries of ``A`` whose coordinates appear in ``mask`` (order kept).

    Both operands are canonical, so their packed key arrays are sorted and
    unique — membership is one
    :func:`~repro.dsparse.membership.in_sorted` over int64 keys.
    """
    if A.shape != mask.shape:
        raise ValueError(f"mask shape {mask.shape} != matrix shape {A.shape}")
    if A.nnz == 0 or mask.nnz == 0:
        return CooMat.empty(A.shape, A.nfields)
    keep = in_sorted(mask.keys(), A.keys())
    return A.select(keep)


def _output_shape(A: CooMat, B: CooMat,
                  mask: CooMat | None = None) -> tuple[int, int]:
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    out_shape = (A.shape[0], B.shape[1])
    if mask is not None and mask.shape != out_shape:
        raise ValueError(f"mask shape {mask.shape} != output shape "
                         f"{out_shape}")
    return out_shape


# -- kernel choice -------------------------------------------------------------

class MaskedRoute(NamedTuple):
    """The inputs and outcome of :func:`masked_route` (all pre-expansion)."""

    flops: int          #: elementary products ESC would expand
    nnz_mask: int       #: masked output coordinates
    span: int           #: Σ over masked (i, j) of min(len A row i, len B col j)
    est_probes: float   #: the dot kernel's estimated probes
    dot: bool           #: take the dot kernel


def _col_lens(M: CooMat) -> np.ndarray:
    """Entries per column: a view's are its base's cached row lengths; a
    stored matrix's are one ``bincount`` of its columns, with no pointer
    formed and nothing kept (a kept pointer per block outlived SUMMA and
    raised the run's peak resident memory)."""
    if M.transposed:
        return np.diff(M.T.csr_indptr())
    return np.bincount(M.col, minlength=M.shape[1])


def _flops(A: CooMat, B: CooMat) -> int:
    """Elementary products of ``A ⊗ B``: ``A``'s column lengths against
    ``B``'s row lengths, read off ``B``'s row pointer (for a view, its
    base's column counts) without a gather per entry."""
    return int(_col_lens(A) @ np.diff(B.csr_indptr()))


def masked_route(A: CooMat, B: CooMat, mask: CooMat, depth: int,
                 flops: int | None = None) -> MaskedRoute:
    """Choose the masked kernel for one block product, before expanding.

    ESC pays per elementary product: ``flops``, read off the two row
    pointers.  The dot kernel pays per element it looks up; walking the
    shorter line of every masked pair in full would be ``span`` look-ups,
    but a pair with ``c`` commons spread over that line shows its first
    ``depth`` of them after about ``depth / c`` of it, and ``c`` averages
    at most ``flops / nnz(mask)`` (the block's compression ratio), so

        ``est_probes = span · min(1, depth · nnz(mask) / flops)``

    and the dot kernel is taken when ``flops ≥ 8 · est_probes`` and
    ``flops ≥ 2¹⁵``.  Both constants are the crossover of a sweep timing
    the two kernels on synthetic read-by-k-mer operands (nnz 5 k / 40 k /
    200 k, row lengths 32–2048, k-mer retention 5–80 %, triangle mask) and
    on every block product of the four benchmark workloads.  With
    ``g = flops / est_probes``: ESC was ahead at every point with
    ``g ≤ 6`` (by 1.05–4.3×) and the dot kernel at every point with
    ``g ≥ 10`` (by 1.14–9×) except below ~2¹⁵ products, where a call is
    under a millisecond on either kernel and the dot kernel's fixed cost
    (one scipy matmul, a few window rounds) is most of it.
    The estimate itself is optimistic by 2–10× (sizes vary inside a
    block, a triangle mask across the diagonal holds part of the flops,
    windows round up); the factor absorbs that.  On the benchmark (seed
    14, a symmetric diagonal block's ``flops`` counted as its strict-upper
    products, as :func:`spgemm_upper` passes them): ``hifi_deep``'s
    blocks sit at
    ``g`` = 65–68 on the diagonal and 68 off it (dot; 291–304 on the
    diagonal under full flops), ``service_stream``'s deltas at 53–149
    (dot), ``chain_wide``'s at 0.12–0.15 (ESC; 2.6–3.3 on the diagonal
    under full flops) and ``clr_xdrop``'s at 0.27–0.48 with ≤ 1 500
    products a block (ESC; 5.3–7.1 on the diagonal under full flops).
    In the sweep the dot kernel was 5.1–7.6× faster on ``hifi_deep``
    (pattern product included, no earlier stage's seeds, a 2-vCPU x86
    host) and 1.7–2× on the deltas, ESC 1.5–2.4× on ``chain_wide`` and
    4× on ``clr_xdrop``.  A caller that has already counted ``flops``
    passes it in.
    """
    if flops is None:
        flops = _flops(A, B)
    a_len = np.diff(A.csr_indptr())
    b_len = _col_lens(B)
    span = int(np.minimum(a_len[mask.row], b_len[mask.col]).sum())
    est = span * min(1.0, depth * mask.nnz / max(1, flops))
    return MaskedRoute(flops, mask.nnz, span, est,
                       flops >= max(_DOT_MIN_GAIN * est, _DOT_MIN_FLOPS))


def spgemm_masked(A: CooMat, B: CooMat, semiring: Semiring, mask: CooMat,
                  tally: dict | None = None, prior: Sequence[CooMat] = ()
                  ) -> tuple[CooMat, str]:
    """``(A ⊗ B) ∩ mask`` on the kernel :func:`masked_route` picks.

    Returns the product and the path label (``"masked_dot"`` or
    ``"masked_esc"``); semirings without ``product_reduce_depth``, empty
    operands and non-packable shapes always take ESC.  ``tally`` receives
    the chosen kernel's exact work; ``prior`` (earlier SUMMA stages'
    partials of this block) goes to the dot kernel, see
    :func:`spgemm_dot_masked`.
    """
    _output_shape(A, B, mask)
    depth = semiring.product_reduce_depth
    if depth is not None and mask.nnz and A.nnz and B.nnz and \
            _dot_packable(A, B) and masked_route(A, B, mask, depth).dot:
        return spgemm_dot_masked(A, B, semiring, mask, tally,
                                 prior=prior), "masked_dot"
    return spgemm_esc_masked(A, B, semiring, mask, tally), "masked_esc"


def spgemm_upper(A: CooMat, B: CooMat, semiring: Semiring,
                 origin: tuple[int, int], tally: dict | None = None,
                 prior: Sequence[CooMat] = ()) -> tuple[CooMat, str]:
    """``A ⊗ B`` restricted to the strict upper triangle of a global frame.

    The block's entry ``(i, j)`` sits at global ``(r0 + i, c0 + j)`` for
    ``origin = (r0, c0)`` and is kept iff ``r0 + i < c0 + j``: a coordinate
    predicate stands in for a triangle mask, so no mask is formed.  The
    result and the path label are :func:`spgemm_masked`'s under the
    triangle of the product's own pattern:

    * a block wholly on or below the diagonal is empty without computing
      (``"masked_esc"``, as an empty mask is);
    * a *symmetric* block (``r0 == c0`` and ``B`` the view ``A.T``, as
      ``summa(A, A.T, upper=0)`` hands its diagonal blocks) counts the
      products ESC would really expand, its strict-upper pairs
      ``(flops − nnz(A))/2``, against the floor and in
      :func:`masked_route`; on ESC it expands only those
      (:func:`_upper_pairs`);
    * below ``2¹⁵`` products, where :func:`masked_route` never picks the
      dot kernel, ESC expands and keeps what the predicate selects (none
      is evaluated for a block wholly above the diagonal; shapes that
      cannot pack keys filter the unmasked product instead);
    * at or above, the pattern product is formed once and its upper part is
      both :func:`masked_route`'s mask and the dot kernel's group sizes.

    ``tally`` gains the chosen kernel's work and ``prior`` goes to the dot
    kernel, as in :func:`spgemm_masked`.
    """
    out_shape = _output_shape(A, B)
    diag = np.int64(origin[1] - origin[0])    # keep local (i, j): i - j < diag
    if A.nnz == 0 or B.nnz == 0 or diag <= 1 - out_shape[1]:
        return CooMat.empty(out_shape, semiring.out_nfields), "masked_esc"
    symmetric = diag == 0 and B.transposed and B.T is A
    depth = semiring.product_reduce_depth
    flops = _flops(A, B)
    # What ESC would expand: a symmetric block's strict-upper pairs.
    work = (flops - A.nnz) // 2 if symmetric else flops
    if depth is not None and _dot_packable(A, B) and \
            work >= _DOT_MIN_FLOPS:
        upper = _pattern_product(A, B, flops)
        upper = upper.select(upper.row - upper.col < diag)
        if upper.nnz == 0:
            return CooMat.empty(out_shape, semiring.out_nfields), "masked_esc"
        if masked_route(A, B, upper, depth, work).dot:
            return spgemm_dot_masked(A, B, semiring, upper, tally,
                                     sized=True, prior=prior), "masked_dot"
    if not _packable(out_shape):
        C = spgemm_esc(A, B, semiring)
        return C.select(C.row - C.col < diag), "masked_esc"
    if symmetric:
        return _esc_pruned(A, B, semiring, out_shape, None, tally,
                           _upper_pairs), "masked_esc"
    # A block wholly above the diagonal keeps every product.
    keep_of = None if diag >= out_shape[0] else \
        (lambda keys, ci, cj: ci - cj < diag)
    return _esc_pruned(A, B, semiring, out_shape, keep_of,
                       tally), "masked_esc"


def _upper_pairs(A: CooMat, B: CooMat) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.dsparse.spgemm.expand_products` of ``A ⊗ Aᵀ`` (``B``
    the view ``A.T``) cut to its strict upper triangle.

    ``B``'s rows are ``A``'s columns, rows ascending; pairing each entry of
    such a line with the entries *after* it gives every product ``(i, j)``
    with ``i < j`` once — ``Σ c(c − 1)/2`` over the line lengths ``c``, no
    self-product and no mirror — in line order, so each output group still
    meets its common ``k`` ascending.  Returns ``(a_idx, b_at)`` as
    ``expand_products`` does: ``A``'s storage indices and positions in
    ``B``'s CSR.
    """
    lines = B.csr()
    ptr = lines.indptr
    multi = np.flatnonzero(np.diff(ptr) > 1)      # lines holding a pair
    first, last = ptr[multi], ptr[multi + 1] - 1
    pos = _ranges(first, last - first)            # entries with partners
    after = np.repeat(last, last - first) - pos
    return lines.stored(np.repeat(pos, after)), _ranges(pos + 1, after)


# -- expand-sort-compress, pruned ----------------------------------------------

def spgemm_esc_masked(A: CooMat, B: CooMat, semiring: Semiring,
                      mask: CooMat, tally: dict | None = None) -> CooMat:
    """``(A ⊗ B) ∩ mask`` without materializing the unmasked product.

    ``mask`` is consulted for its coordinate pattern only (values ignored).
    Byte-identical to ``mask_select(spgemm_esc(A, B, semiring), mask)`` —
    see the module docstring for why.  Shapes whose coordinates cannot pack
    into int64 keys (beyond ~9.2e18 cells) fall back to exactly that
    compute-then-filter form rather than wrapping keys silently.  ``tally``
    (optional dict) gains ``products``: the index pairs expanded.
    """
    out_shape = _output_shape(A, B, mask)
    if not _packable(out_shape):
        return mask_select(spgemm_esc(A, B, semiring), mask)
    if mask.nnz == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    return _esc_pruned(A, B, semiring, out_shape,
                       lambda keys, ci, cj: in_sorted(mask.keys(), keys),
                       tally)


def _esc_pruned(A, B, semiring, out_shape, keep_of, tally,
                expand=expand_products) -> CooMat:
    """The pruned ESC both masked forms share: expand (``expand(A, B)``,
    :func:`~repro.dsparse.spgemm.expand_products`' contract), keep the
    products ``keep_of(keys, ci, cj)`` selects (all of them for ``None``),
    multiply and sort-compress those.  ``B`` is read along its CSR; its
    values are gathered (through the line order, for a view) only for the
    kept products."""
    if A.nnz == 0 or B.nnz == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    a_idx, b_at = expand(A, B)
    if a_idx.shape[0] == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    add_work(tally, products=a_idx.shape[0])
    b_rows = B.csr()
    ci = A.row[a_idx]
    cj = b_rows.index[b_at]
    # Coordinate prune FIRST: products outside the mask never reach the
    # semiring multiply or the sort.
    keys = ci * np.int64(out_shape[1]) + cj
    keep = None if keep_of is None else keep_of(keys, ci, cj)
    if keep is not None and keep.all():
        keep = None
    depth = semiring.product_reduce_depth
    if depth is not None:
        # The truncated reduce reads coordinates at group leads only, where
        # the packed key gives them back: nothing else rides along.
        del ci, cj
        if keep is not None:
            a_idx, b_at, keys = a_idx[keep], b_at[keep], keys[keep]
        if keys.shape[0] == 0:
            return CooMat.empty(out_shape, semiring.out_nfields)
        return _truncated_sort_reduce(out_shape, keys, a_idx, b_at, b_rows,
                                      A, B, semiring, depth)
    if keep is not None:
        a_idx, b_at, ci, cj = a_idx[keep], b_at[keep], ci[keep], cj[keep]
    if ci.shape[0] == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    cvals, valid = semiring.multiply(A.vals[a_idx],
                                     B.vals[b_rows.stored(b_at)])
    if valid is not None:
        ci, cj, cvals = ci[valid], cj[valid], cvals[valid]
        if ci.shape[0] == 0:
            return CooMat.empty(out_shape, semiring.out_nfields)
    return _sort_reduce(out_shape, ci, cj, cvals, semiring)


def _truncated_sort_reduce(out_shape, keys, a_idx, b_at, b_rows: Lines, A,
                           B, semiring, depth):
    """Sort-compress that multiplies only ``depth`` products per group.

    The semiring declared (``product_reduce_depth``) that a fresh group's
    reduce reads only its first ``depth`` products plus the group size, so
    once the products are ordered by key only those are gathered through
    the operand values and the semiring multiply — the wide value arrays
    never exist at elementary-product scale.  ``b_at`` are positions in
    ``B``'s CSR (``b_rows``).  Byte-identical to the full multiply +
    :func:`~repro.dsparse.spgemm._sort_reduce` by the ``reduce_truncated``
    contract: :func:`~repro.dsparse.spgemm.stable_key_sort` is a stable
    order, so groups keep expansion order, exactly as in the full path.
    """
    sk, order = stable_key_sort(keys, out_shape[0] * out_shape[1])
    new_group = np.ones(sk.shape[0], dtype=bool)
    new_group[1:] = sk[1:] != sk[:-1]
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, sk.shape[0]))
    clipped = np.minimum(counts, depth)
    tstarts = np.cumsum(clipped) - clipped
    sel = order[_ranges(starts, clipped)]
    ci, cj = np.divmod(sk[starts], np.int64(out_shape[1]))
    return _reduce_selected(out_shape, ci, cj, counts, clipped, tstarts,
                            a_idx[sel], b_rows.stored(b_at[sel]), A, B,
                            semiring)


def _reduce_selected(out_shape, ci, cj, counts, taken, tstarts, a_sel, b_sel,
                     A, B, semiring) -> CooMat:
    """The tail both kernels share: multiply each group's ``taken``
    selected products (``a_sel``/``b_sel`` index the operands' storage,
    groups back to back from ``tstarts``) and fold them with the true group
    sizes ``counts``."""
    # ``take`` along rows: a fancy index of a narrow 2-D array copies row
    # by row, several times slower.
    cvals, valid = semiring.multiply(A.vals.take(a_sel, axis=0),
                                     B.vals.take(b_sel, axis=0))
    if valid is not None:  # the depth contract forbids validity masks
        raise ValueError(f"{type(semiring).__name__} sets "
                         f"product_reduce_depth but multiply returned a "
                         f"validity mask")
    reduced = semiring.reduce_truncated(cvals, tstarts, counts, taken)
    return CooMat(out_shape, ci, cj, reduced, checked=True)


# -- mask-driven dot kernel ----------------------------------------------------

def _pattern(M: CooMat) -> sp.csr_matrix | sp.csc_matrix:
    """``pattern(M)`` as scipy sees it: unit data over ``M``'s row pointer
    and column indices, all 32-bit whenever ``M``'s dimensions and nnz fit
    (scipy picks its kernel's index type from these dtypes) and 64-bit
    otherwise.  A view is its base's pattern transposed — a CSC matrix
    over the same arrays, which the product converts in C."""
    if M.transposed:
        return _pattern(M.T).T
    dtype = np.int32 if max(*M.shape, M.nnz) <= _INDEX32_MAX else np.int64
    pat = sp.csr_matrix(M.shape, dtype=dtype)
    pat.indptr = M.csr_indptr().astype(dtype, copy=False)
    pat.indices = M.col.astype(dtype, copy=False)
    pat.data = np.ones(M.nnz, dtype=dtype)
    return pat


def pattern_matmul(a: sp.spmatrix, b: sp.spmatrix,
                   flops: int | None = None) -> sp.csr_matrix:
    """``a @ b`` in scipy's numeric pass alone, its indices unsorted.

    scipy's ``@`` runs a symbolic pass (``csr_matmat_maxnnz``) to size
    the output before its numeric one (``csr_matmat``).  Here the output
    of a range of ``a``'s rows is sized from an upper bound instead:
    ``min(flops, rows × cols)`` for all rows at once, and per row when
    that bound exceeds ``nnz(a) + nnz(b)`` entries, in which case the rows
    are cut greedily into ranges whose bounds stay within it.  A row
    without repeated indices bounds at most ``nnz(b)`` products, so no
    buffer outgrows the operands (a row that alone exceeds the budget gets
    a range of its own), and the pages a range does not fill are never
    touched.  The kernel writes without bounds checks; both bounds count
    products with multiplicity, so they hold for repeated indices too.
    ``flops`` (``Σ`` over ``a``'s entries of the matching row length of
    ``b``) is read off the operands unless the caller has it.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    a, b = a.tocsr(), b.tocsr()
    n_rows, n_cols = a.shape[0], b.shape[1]
    b_len = np.diff(b.indptr)
    if flops is None:
        flops = int(np.bincount(a.indices, minlength=a.shape[1]) @ b_len)
    budget = a.nnz + b.nnz
    if min(flops, n_rows * n_cols) <= budget:
        cuts = [0, n_rows]
        sizes = [min(flops, n_rows * n_cols)]
    else:
        cum = np.zeros(a.nnz + 1, dtype=np.int64)
        np.cumsum(b_len[a.indices], out=cum[1:])
        bound = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.minimum(np.diff(cum[a.indptr]), n_cols), out=bound[1:])
        cuts = [0]
        while cuts[-1] < n_rows:
            lo = cuts[-1]
            hi = int(np.searchsorted(bound, bound[lo] + budget, "right")) - 1
            cuts.append(max(hi, lo + 1))
        sizes = np.diff(bound[cuts]).tolist()
    arrays = (a.indptr, a.indices, b.indptr, b.indices)
    idx = np.int64 if sum(sizes) > _INDEX32_MAX else np.result_type(*arrays)
    a_ptr, a_idx, b_ptr, b_idx = (x.astype(idx, copy=False) for x in arrays)
    val = np.result_type(a.data, b.data)
    a_val, b_val = a.data.astype(val, copy=False), b.data.astype(val, copy=False)
    ptrs, cols, data = [np.zeros(1, dtype=idx)], [], []
    filled = 0
    for lo, hi, size in zip(cuts[:-1], cuts[1:], sizes):
        cp = np.empty(hi - lo + 1, dtype=idx)
        cj = np.empty(size, dtype=idx)
        cx = np.empty(size, dtype=val)
        _csr_matmat(hi - lo, n_cols, a_ptr[lo:hi + 1], a_idx, a_val, b_ptr,
                    b_idx, b_val, cp, cj, cx)
        nnz = int(cp[-1])
        ptrs.append(cp[1:] + filled)
        cols.append(cj[:nnz])
        data.append(cx[:nnz])
        filled += nnz
    return sp.csr_matrix((np.concatenate(data), np.concatenate(cols),
                          np.concatenate(ptrs)), shape=(n_rows, n_cols))


def _pattern_product(A: CooMat, B: CooMat, flops: int | None = None
                     ) -> CooMat:
    """``pattern(A) @ pattern(B)``: every coordinate of ``A ⊗ B`` with its
    group size (one product per common inner index, since the depth
    contract rules out validity masks), in one sized kernel pass."""
    return CooMat.from_csr(pattern_matmul(_pattern(A), _pattern(B), flops),
                           checked=True)


def spgemm_dot_masked(A: CooMat, B: CooMat, semiring: Semiring,
                      mask: CooMat, tally: dict | None = None, *,
                      sized: bool = False, prior: Sequence[CooMat] = ()
                      ) -> CooMat:
    """``(A ⊗ B) ∩ mask`` from one row and one column per masked pair.

    Requires ``semiring.product_reduce_depth``.  Byte-identical to
    :func:`spgemm_esc_masked` (module docstring); shapes that cannot pack
    fall back to it.  ``tally`` (optional dict) gains ``probes``: the
    row/column elements looked up, each at most once — so at most
    ``Σ min(len_i, len_j)`` over the masked pairs that have products,
    whatever their group sizes.

    The group sizes come from the pattern product intersected with
    ``mask``.  ``sized=True`` declares that ``mask`` already is such an
    intersection — a subset of ``pattern(A) @ pattern(B)`` carrying the
    group sizes as its values, as :func:`spgemm_upper` hands it on — so the
    pattern product is not formed a second time.

    ``prior`` are the partial results earlier SUMMA stages produced for
    this output block, in stage order.  A pair they already supplied
    ``Σ min(count, depth) ≥ depth`` products for needs none of its own,
    and otherwise only the ones left short (the semiring's depth contract:
    the accumulating reduce reads no more), so its row carries fewer
    products — none: a count-only row.  The merged result is unchanged.
    """
    depth = semiring.product_reduce_depth
    if depth is None:
        raise ValueError(f"{type(semiring).__name__} declares no "
                         f"product_reduce_depth; the dot kernel cannot "
                         f"truncate its groups")
    out_shape = _output_shape(A, B, mask)
    if not _dot_packable(A, B):
        return spgemm_esc_masked(A, B, semiring, mask, tally)
    if mask.nnz == 0 or A.nnz == 0 or B.nnz == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    groups = mask if sized else mask_select(_pattern_product(A, B), mask)
    if groups.nnz == 0:
        return CooMat.empty(out_shape, semiring.out_nfields)
    counts = groups.vals[:, 0]
    need = np.minimum(counts, np.maximum(
        0, depth - _supplied(groups.keys(), prior, semiring, depth)))
    tstarts = np.cumsum(need) - need
    a_sel, b_sel, probes = _first_commons(A, B, groups.row, groups.col,
                                          counts, need, tstarts)
    add_work(tally, probes=probes)
    return _reduce_selected(out_shape, groups.row, groups.col, counts, need,
                            tstarts, a_sel, b_sel, A, B, semiring)


def _supplied(keys: np.ndarray, prior: Sequence[CooMat], semiring: Semiring,
              depth: int) -> np.ndarray | int:
    """``Σ min(count, depth)`` over the ``prior`` rows at each of the
    (sorted) output ``keys``: the products earlier stages already hold."""
    supplied = np.zeros(keys.shape[0], dtype=np.int64) if prior else 0
    for part in prior:
        held = part.keys()
        at = np.searchsorted(held, keys)
        at[at == held.shape[0]] = 0       # past the end: cannot be equal
        hit = np.flatnonzero(held[at] == keys)
        supplied[hit] += np.minimum(
            semiring.group_sizes(part.vals)[at[hit]], depth)
    return supplied


def _line_keys(lines: Lines, inner: np.int64) -> np.ndarray:
    """Packed ``(line, index)`` keys of every entry in line order: sorted."""
    n_lines = lines.indptr.shape[0] - 1
    return np.repeat(np.arange(n_lines, dtype=np.int64) * inner,
                     np.diff(lines.indptr)) + lines.index


def _first_commons(A, B, pi, pj, counts, need, tstarts):
    """Storage indices of each pair's first ``need`` common inner indices.

    Pair ``p`` is row ``pi[p]`` of ``A`` against column ``pj[p]`` of ``B``,
    known to share exactly ``counts[p] ≥ need[p]`` inner indices ``k``;
    pairs with ``need[p] = 0`` are not walked.  The shorter of the two is
    walked k-ascending and each element looked up in the other operand's
    sorted ``(row | column, k)`` keys: ``A``'s rows come from its CSR,
    ``B``'s columns from its CSC — for a view ``B`` its base's CSR rows, so
    neither operand is permuted.  Returns ``(a_sel, b_sel, probes)``, the
    selections laid out group by group from ``tstarts``, k ascending inside
    a group.
    """
    inner = np.int64(A.shape[1])
    a_rows, b_cols = A.csr(), B.csc()
    a_ptr, b_ptr = a_rows.indptr, b_cols.indptr
    a_len = a_ptr[pi + 1] - a_ptr[pi]
    b_len = b_ptr[pj + 1] - b_ptr[pj]
    a_at = np.empty(int(need.sum()), dtype=np.int64)
    b_at = np.empty_like(a_at)
    by_row = (a_len <= b_len) & (need > 0)
    by_col = (a_len > b_len) & (need > 0)
    probes = 0
    if by_row.any():
        probes += _probe(a_ptr[pi[by_row]], a_len[by_row], a_rows.index,
                         _line_keys(b_cols, inner), pj[by_row] * inner,
                         counts[by_row], need[by_row], tstarts[by_row], a_at,
                         b_at)
    if by_col.any():
        probes += _probe(b_ptr[pj[by_col]], b_len[by_col], b_cols.index,
                         _line_keys(a_rows, inner), pi[by_col] * inner,
                         counts[by_col], need[by_col], tstarts[by_col], b_at,
                         a_at)
    return a_rows.stored(a_at), b_cols.stored(b_at), probes


def _probe(lo, length, inner_of, hay, base, count, need, dest, walked_sel,
           found_sel) -> int:
    """Walk each pair's segment in growing windows until ``need`` hits.

    Pair ``p`` walks ``inner_of[lo[p] : lo[p] + length[p]]`` (ascending)
    and looks each ``k`` up as ``base[p] + k`` in the sorted ``hay``.  Its
    first window is ``⌈need·(length + 1) / (count + 1)⌉`` elements, where
    its ``need``-th of ``count`` commons spread evenly over the segment
    would sit, and each window it does not resolve doubles the next.  A
    window's hits are exactly the pair's commons up to the window's end,
    i.e. its *next* commons in order, so a pair retires once it has
    ``need[p]`` of them and no element is looked up twice.  The ``r``-th
    hit of pair ``p`` lands at ``dest[p] + r`` of ``walked_sel`` (position
    in ``inner_of``) and ``found_sel`` (position in ``hay``).  Returns the
    elements looked up.
    """
    window = -(-need * (length + 1) // (count + 1))
    used = np.zeros(lo.shape[0], dtype=np.int64)
    got = np.zeros_like(used)
    active = np.arange(lo.shape[0], dtype=np.int64)
    probes = 0
    while active.shape[0]:
        width = np.minimum(length[active] - used[active], window[active])
        walked = _ranges(lo[active] + used[active], width)
        probes += walked.shape[0]
        pair = np.repeat(active, width)
        key = base[pair] + inner_of[walked]
        found = np.searchsorted(hay, key)
        found[found == hay.shape[0]] = 0    # past the end: cannot be equal
        hit = np.flatnonzero(hay[found] == key)
        pair = pair[hit]
        hits = np.bincount(pair, minlength=lo.shape[0])[active]
        rank = got[pair] + np.arange(hit.shape[0], dtype=np.int64) - \
            np.repeat(np.cumsum(hits) - hits, hits)
        take = rank < need[pair]
        at = dest[pair[take]] + rank[take]
        walked_sel[at] = walked[hit[take]]
        found_sel[at] = found[hit[take]]
        used[active] += width
        got[active] += hits
        window[active] *= 2
        active = active[got[active] < need[active]]
    return probes
