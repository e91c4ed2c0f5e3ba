"""Versioned assembly sessions: immutable state snapshots + their store.

Every ingested batch produces a brand-new :class:`AssemblyState` with
``version + 1`` — copy-on-write, never mutation, so a request handler that
grabbed version ``v`` keeps a fully consistent view (reads, tables, R, S,
contigs all from the same refresh) while the next batch commits ``v + 1``
behind it.  The arrays inside a state are shared with its successor
wherever the refresh left them untouched (old read codes, unchanged
histogram prefixes), which is what keeps snapshots cheap.

:class:`SessionStore` is the one mutable cell: it holds the current state
behind a lock and hands out whatever version was current at call time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..core.contigs import Contig
from ..core.string_graph import StringGraph
from ..dsparse.coomat import CooMat
from ..mpisim.tracker import CommTracker, StageTimer
from ..seqs.fasta import ReadSet
from ..seqs.kmer_counter import KmerTable

__all__ = ["AssemblyState", "SessionStore"]


def _empty_u64() -> np.ndarray:
    return np.empty(0, np.uint64)


def _empty_i64() -> np.ndarray:
    return np.empty(0, np.int64)


@dataclass(frozen=True)
class AssemblyState:
    """One immutable version of the live assembly.

    Beyond the user-facing products (``S``, ``contigs``) the state carries
    exactly the intermediates the incremental refresh needs to fold the
    next batch in without recomputation:

    * ``hist_keys``/``hist_counts`` — the exact global k-mer histogram
      (sorted), the mergeable form of the counting state; the reliable
      table is a pure filter of it.
    * ``occ_*`` — the first-window occurrence per (read, distinct canonical
      k-mer), sorted by (read, k-mer key), *independent* of reliability; A
      for any version is the occurrence table filtered through that
      version's reliable set — already in A's row-major order — so
      admission churn never forces a rescan of old reads, and a batch's
      occurrences (new, larger read ids) are appended.
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
    * ``scheme_id`` — the seeding scheme
      (:attr:`repro.seqs.seeding.SeedScheme.scheme_id`) every cached
      intermediate was extracted under.  Histogram, occurrence table, and
      census are all seed streams of that scheme, so a delta refresh under
      a *different* scheme would splice incompatible state — the refresh
      engine refuses cross-scheme deltas (recompute rebuilds and re-tags).
    """

    version: int
    reads: ReadSet
    hist_keys: np.ndarray
    hist_counts: np.ndarray
    table: KmerTable | None
    occ_key: np.ndarray
    occ_read: np.ndarray
    occ_pos: np.ndarray
    occ_flip: np.ndarray
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
    refresh_mode: str
    refresh_seconds: float = 0.0
    scheme_id: str = ""

    @classmethod
    def initial(cls) -> "AssemblyState":
        """Version 0: the empty session every service starts from."""
        return cls(
            version=0, reads=ReadSet([], []),
            hist_keys=_empty_u64(), hist_counts=_empty_i64(),
            table=None,
            occ_key=_empty_u64(), occ_read=_empty_i64(),
            occ_pos=_empty_i64(), occ_flip=_empty_i64(),
            R=None, S=None, graph=None, contigs=[],
            c_ri=_empty_i64(), c_rj=_empty_i64(),
            route_counts=np.empty((0, 0), np.int64),
            counts={"n_reads": 0, "n_kmers": 0, "nnz_a": 0, "nnz_c": 0,
                    "nnz_r": 0, "nnz_s": 0, "tr_rounds": 0},
            tracker=None, timer=None, refresh_mode="none")


class SessionStore:
    """Thread-safe holder of the current :class:`AssemblyState`.

    ``commit`` enforces the version discipline (each commit must advance
    the version by exactly one) so two racing refreshes cannot silently
    drop one another's batches; the service serializes ingests with its own
    lock and this check is the backstop.
    """

    def __init__(self, state: AssemblyState | None = None,
                 keep_versions: int = 4) -> None:
        self._lock = threading.Lock()
        self._state = state if state is not None else AssemblyState.initial()
        self._keep = max(1, keep_versions)
        self._history: list[AssemblyState] = [self._state]

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
            self._history.append(state)
            del self._history[:-self._keep]
            return state

    def history(self) -> list[AssemblyState]:
        """The retained trailing versions, oldest first (current last)."""
        with self._lock:
            return list(self._history)
