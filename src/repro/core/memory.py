"""Memory-budget planning for the strip-mined (blocked) overlap mode.

The paper's Section VIII names strip-mined candidate-matrix formation as
*the* memory-reduction path for large genomes at low concurrency: form only
one column strip of ``C = A·Aᵀ`` at a time, align it, prune it, move on.
What that section leaves open is **how many strips** — this module answers
it from a byte budget.

The estimate uses the measured ``nnz(A)`` and the BELLA density model the
paper builds its Table II/III statistics on: with the reliable-k-mer ceiling
applied, the average A-column density is ``a = nnz(A)/m`` (nonzeros per
k-mer), each column contributes ``~a²`` SUMMA products, and the strict upper
triangle halves them — so the candidate matrix tops out near
``m·a²/2`` entries of ``(2 + nfields)·8`` bytes each (COO row + col + the
:class:`~repro.core.semirings.PositionsSemiring` payload).  Duplicate seed
pairs merge during accumulation, so this is a deliberate over-estimate: a
budget chosen with it is safe, not merely likely.

:func:`plan_strips` turns the estimate into a strip count:
``n_strips = ceil(estimated_bytes / budget)``, clamped to ``[1, n_reads]``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from ..dsparse.coomat import coo_nbytes
from .semirings import C_NFIELDS

__all__ = [
    "DEFAULT_N_STRIPS",
    "coo_nbytes", "estimate_candidate_nnz",
    "StripPlan", "plan_strips",
    "BudgetPlan", "apportion_budget",
    "parse_bytes", "format_bytes",
]

#: Strip count used in blocked mode when neither ``n_strips`` nor a
#: ``memory_budget`` is given.
DEFAULT_N_STRIPS = 4


def estimate_candidate_nnz(nnz_a: int, n_kmers: int) -> int:
    """BELLA-model upper estimate of ``nnz(C)`` for ``C = A·Aᵀ``.

    ``m`` columns of average density ``a = nnz(A)/m`` yield ``~m·a²``
    products; the strict upper triangle keeps half.  Merging of duplicate
    (read, read) pairs only shrinks the true count, so this bounds the
    expansion peak the SpGEMM must hold.  Because it starts from the
    *measured* ``nnz(A)``, the estimate is self-correcting under sketched
    seeding (``seed_mode=minimizer|syncmer``): a scheme that keeps a
    fraction ``f`` of the windows shrinks ``a`` by ``~f`` and the modeled
    candidate count by ``~f²``.
    """
    if nnz_a <= 0 or n_kmers <= 0:
        return 0
    a = nnz_a / n_kmers
    return int(math.ceil(n_kmers * a * a / 2.0))


@dataclass(frozen=True)
class StripPlan:
    """A scheduler decision: how many strips, and why.

    Attributes
    ----------
    n_strips:
        Chosen strip count (``>= 1``, ``<= n_reads``).
    est_candidate_nnz:
        Model estimate of the monolithic candidate-matrix entry count.
    est_candidate_bytes:
        The same estimate in bytes (:func:`coo_nbytes` of the C payload).
    memory_budget:
        The byte budget the plan honored, or ``None`` when the count came
        from an explicit ``n_strips`` or the default.
    """

    n_strips: int
    est_candidate_nnz: int
    est_candidate_bytes: int
    memory_budget: int | None

    @property
    def est_strip_bytes(self) -> int:
        """Expected per-strip candidate bytes under this plan."""
        return -(-self.est_candidate_bytes // self.n_strips)


def plan_strips(nnz_a: int, n_kmers: int, n_reads: int, *,
                memory_budget: int | None = None,
                n_strips: int | None = None) -> StripPlan:
    """Pick a strip count for the blocked overlap mode.

    Precedence: an explicit ``n_strips`` wins; otherwise ``memory_budget``
    (bytes the live candidate strip may occupy) drives
    ``ceil(estimate / budget)``; otherwise :data:`DEFAULT_N_STRIPS`.  An
    explicit count below 1 is refused.  The result is clamped to
    ``[1, n_reads]`` — more strips than matrix columns only add empty
    SUMMA launches.
    """
    est_nnz = estimate_candidate_nnz(nnz_a, n_kmers)
    est_bytes = coo_nbytes(est_nnz, C_NFIELDS)
    if n_strips is not None:
        if n_strips < 1:
            raise ValueError(f"n_strips must be >= 1, got {n_strips}")
        chosen = int(n_strips)
        budget = None
    elif memory_budget is not None:
        if memory_budget <= 0:
            raise ValueError(f"memory_budget must be positive, got "
                             f"{memory_budget}")
        chosen = -(-est_bytes // memory_budget) if est_bytes else 1
        budget = int(memory_budget)
    else:
        chosen = DEFAULT_N_STRIPS
        budget = None
    chosen = max(1, min(chosen, max(1, int(n_reads))))
    return StripPlan(n_strips=chosen, est_candidate_nnz=est_nnz,
                     est_candidate_bytes=est_bytes, memory_budget=budget)


_BYTES_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([kmgt]?)i?b?\s*$",
                       re.IGNORECASE)
_BYTES_SCALE = {"": 1, "k": 2**10, "m": 2**20, "g": 2**30, "t": 2**40}


def parse_bytes(text: str | int) -> int:
    """Parse a byte count like ``"64M"``, ``"1.5GiB"``, or a plain int.

    Suffixes are binary (K/M/G/T = 2¹⁰/2²⁰/2³⁰/2⁴⁰), case-insensitive,
    with optional ``iB``/``B``.
    """
    if isinstance(text, int):
        return text
    m = _BYTES_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse byte count {text!r} "
                         f"(expected e.g. 67108864, 64M, 1.5G)")
    return int(float(m.group(1)) * _BYTES_SCALE[m.group(2).lower()])


def format_bytes(n_bytes: int) -> str:
    """Human-readable binary-suffixed rendering (inverse of parse_bytes).

    Covers every tier :func:`parse_bytes` accepts — through TiB — so the
    round trip ``parse_bytes(format_bytes(n))`` always lands within the
    one-decimal rendering error (``format_bytes(parse_bytes("1.5T"))`` is
    ``"1.5 TiB"``, not ``"1536.0 GiB"``).
    """
    n = float(n_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if n < 1024 or suffix == "TiB":
            return f"{n:.0f} {suffix}" if suffix == "B" else f"{n:.1f} {suffix}"
        n /= 1024
    return f"{n:.1f} TiB"  # pragma: no cover - unreachable


@dataclass(frozen=True)
class BudgetPlan:
    """How one ``--memory-budget`` is apportioned across the big consumers.

    The three resident giants of a run are the live candidate strip, the
    per-rank k-mer histograms, and everything else (matrices under SpGEMM,
    alignment scratch, the interpreter).  One budget covers all three:

    ==========  =====  ================================================
    share       split  enforced by
    ==========  =====  ================================================
    candidate    1/2   :func:`plan_strips` (strip count ceil(est/share))
    tables       1/4   spill threshold in ``count_kmers`` (per-rank)
    headroom    rest   unmanaged slack for transient scratch
    ==========  =====  ================================================

    The split is deliberately static (not measured): both enforcement
    mechanisms are safe-side — a smaller candidate share only adds strips,
    a smaller table share only adds spill runs — and a static split keeps
    the plan deterministic across backends, which the byte-identity
    contract requires.
    """

    total: int
    candidate: int
    tables: int

    @property
    def headroom(self) -> int:
        """Bytes left unassigned for transient scratch."""
        return self.total - self.candidate - self.tables


def apportion_budget(total: int) -> BudgetPlan:
    """Split one byte budget across candidate strip + k-mer tables.

    Candidate gets half, tables a quarter, the rest is headroom; every
    share is at least one byte so the downstream ceilings stay positive.
    """
    total = int(total)
    if total <= 0:
        raise ValueError(f"memory budget must be positive, got {total}")
    return BudgetPlan(total=total, candidate=max(1, total // 2),
                      tables=max(1, total // 4))
