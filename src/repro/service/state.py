"""Versioned assembly sessions: immutable state snapshots + their store.

Every ingested batch produces a brand-new :class:`AssemblyState` with
``version + 1`` — copy-on-write, never mutation, so a request handler that
grabbed version ``v`` keeps a fully consistent view (reads, tables, R, S,
contigs all from the same refresh) while the next batch commits ``v + 1``
behind it.  Each version owns its read buffer (a refresh concatenates
the batch onto a fresh copy), so no later read is ever visible to an
older version; other arrays are shared with the successor wherever the
refresh left them untouched (unchanged histogram prefixes), which is what
keeps snapshots cheap.

:class:`SessionStore` is the one mutable cell: it holds the current state
behind a lock and hands out whatever version was current at call time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..align.xdrop import Scoring
from ..core.contigs import Contig
from ..core.overlap import AlignmentFilter
from ..core.string_graph import StringGraph
from ..dsparse.coomat import CooMat
from ..mpisim.tracker import CommTracker, StageTimer
from ..seqs.fasta import ReadSet
from ..seqs.kmer_counter import KmerTable

__all__ = ["AssemblyState", "Basis", "SessionStore"]


def _empty_u64() -> np.ndarray:
    return np.empty(0, np.uint64)


def _empty_i64() -> np.ndarray:
    return np.empty(0, np.int64)


class Basis(NamedTuple):
    """The resolved settings a state's cached intermediates and R depend on.

    ``scheme`` is the seeding scheme's
    :attr:`~repro.seqs.seeding.SeedScheme.scheme_id` (it names ``k``), and
    ``lower``/``upper`` the reliable bounds: histogram, occurrence table
    and census are seed streams of the scheme, and which keys enter or
    leave the reliable set is read off the batch's keys alone only while
    the bounds stay put.  ``align_mode``, ``scoring``, ``filt`` and
    ``fuzz`` decide R's kept rows, and ``nprocs`` the census's columns.
    A refresh under another basis rebuilds from the empty state.
    """

    scheme: str
    lower: int
    upper: int
    align_mode: str
    scoring: Scoring
    filt: AlignmentFilter
    fuzz: int
    nprocs: int


@dataclass(frozen=True)
class AssemblyState:
    """One immutable version of the live assembly.

    Beyond the user-facing products (``S``, ``contigs``) the state carries
    exactly the intermediates the incremental refresh needs to fold the
    next batch in without recomputation:

    * ``hist_keys``/``hist_counts`` — the exact global k-mer histogram
      (sorted), the mergeable form of the counting state; the reliable
      table is a pure filter of it.
    * ``occ_read``/``occ_pos``/``occ_flip`` — the first-window occurrence
      per (read, distinct canonical k-mer), sorted by (read, k-mer key),
      *independent* of reliability, so admission churn never forces a
      rescan of old reads, and a batch's occurrences (new, larger read
      ids) are appended.
    * ``occ_col`` — each occurrence's column in this version's A, ``-1``
      while its key is unreliable: A is the occurrences that have one,
      already in A's row-major order.  A refresh renumbers it through the
      old → new column map and sets the added keys' occurrences.
    * ``key_ptr``/``key_occ`` — the occurrence table's key-major index,
      a CSR over ``hist_keys``: the occurrences of ``hist_keys[h]`` are
      ``key_occ[key_ptr[h]:key_ptr[h + 1]]``, ascending.  It lists an
      added or removed key's reads, and a batch key's sharers, without a
      scan; each refresh splices the batch's occurrences in.
    * ``R`` — the pre-reduction overlap matrix, which delta refreshes
      splice rows into.
    * ``c_ri``/``c_rj`` — the strict-upper candidate pair list (sorted
      lexicographically), so ``nnz_c`` stays exact without re-forming the
      full ``A·Aᵀ`` pattern each refresh.
    * ``route_counts`` — the ``(n_reads, P)`` CountKmer routing census:
      per read, how many of its k-mer windows hash to each owner rank.  A
      read's row never changes, so the census grows by appending the
      batch's rows, and the CountKmer traffic replay becomes prefix-sum
      arithmetic instead of re-extracting every old read's k-mers.
    * ``basis`` — the :class:`Basis` every cached intermediate and R
      were built under (``None`` before the first read arrives).  A delta
      under another basis would splice incompatible state, so the refresh
      engine rebuilds instead: the whole read set, as one batch, on the
      empty state.
    """

    version: int
    reads: ReadSet
    hist_keys: np.ndarray
    hist_counts: np.ndarray
    table: KmerTable | None
    occ_read: np.ndarray
    occ_pos: np.ndarray
    occ_flip: np.ndarray
    occ_col: np.ndarray
    key_ptr: np.ndarray
    key_occ: np.ndarray
    R: CooMat | None
    S: CooMat | None
    graph: StringGraph | None
    contigs: list[Contig]
    c_ri: np.ndarray
    c_rj: np.ndarray
    route_counts: np.ndarray
    counts: dict[str, int]
    tracker: CommTracker | None
    timer: StageTimer | None
    basis: Basis | None = None
    refresh_seconds: float = 0.0

    @classmethod
    def initial(cls) -> "AssemblyState":
        """Version 0: the empty session every service starts from."""
        return cls(
            version=0, reads=ReadSet([], []),
            hist_keys=_empty_u64(), hist_counts=_empty_i64(),
            table=None,
            occ_read=_empty_i64(), occ_pos=_empty_i64(),
            occ_flip=_empty_i64(), occ_col=_empty_i64(),
            key_ptr=np.zeros(1, np.int64), key_occ=_empty_i64(),
            R=None, S=None, graph=None, contigs=[],
            c_ri=_empty_i64(), c_rj=_empty_i64(),
            route_counts=np.empty((0, 0), np.int64),
            counts={"n_reads": 0, "n_kmers": 0, "nnz_a": 0, "nnz_c": 0,
                    "nnz_r": 0, "nnz_s": 0, "tr_rounds": 0},
            tracker=None, timer=None)

    @property
    def scheme_id(self) -> str:
        """The seeding scheme the state was built under (``""`` if none)."""
        return self.basis.scheme if self.basis is not None else ""


class SessionStore:
    """Thread-safe holder of the current :class:`AssemblyState`.

    ``commit`` enforces the version discipline (each commit must advance
    the version by exactly one) so two racing refreshes cannot silently
    drop one another's batches; the service serializes ingests with its own
    lock and this check is the backstop.
    """

    def __init__(self, state: AssemblyState | None = None) -> None:
        self._lock = threading.Lock()
        self._state = state if state is not None else AssemblyState.initial()

    def current(self) -> AssemblyState:
        with self._lock:
            return self._state

    def commit(self, state: AssemblyState) -> AssemblyState:
        with self._lock:
            if state.version != self._state.version + 1:
                raise ValueError(
                    f"stale commit: version {state.version} on top of "
                    f"{self._state.version}")
            self._state = state
            return state
