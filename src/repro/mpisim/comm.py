"""Simulated MPI communicator with exact traffic accounting.

:class:`SimComm` reproduces the data movement of the MPI collectives the
pipeline uses (``MPI_Alltoallv``, broadcast, allreduce, gather — Section IV
of the paper) inside a single process.  Per-rank payloads live in ordinary
Python lists indexed by rank; a collective call moves the data between those
per-rank slots *and* charges every rank's sent bytes/messages to a
:class:`~repro.mpisim.tracker.CommTracker` stage.

Self-messages (rank → itself) are moved but **not** charged, matching the
paper's accounting where each processor "keeps (1/P)th of the data for
itself and communicates the rest" (Section V-A).

The communicator also supports sub-communicators over arbitrary rank subsets
(:meth:`sub`), which Sparse SUMMA uses for its process-row and process-column
broadcasts.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .tracker import CommTracker

__all__ = ["SimComm", "nbytes_of"]


def nbytes_of(obj) -> int:
    """Payload size in bytes for accounting purposes.

    numpy arrays report their true buffer size; a
    :class:`~repro.dsparse.coomat.CooMat` (or a view of one) the sum of its
    ``row``, ``col`` and ``vals`` arrays; ``bytes``/``str`` their encoded
    length; lists/tuples/dicts recurse.  Anything else — a scipy sparse
    matrix included — raises :class:`TypeError` naming its type rather than
    being charged a made-up size.
    """
    if obj is None:
        return 0
    # True payload for raw byte/character buffers — checked before the
    # duck-typed array probes (an MPI rank would ship every one of these
    # characters).
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, memoryview):
        return int(obj.nbytes)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    # CooMat-shaped objects: row/col index arrays + a vals field array.
    vrow = getattr(obj, "row", None)
    vcol = getattr(obj, "col", None)
    vvals = getattr(obj, "vals", None)
    if isinstance(vrow, np.ndarray) and isinstance(vcol, np.ndarray) \
            and isinstance(vvals, np.ndarray):
        return int(vrow.nbytes) + int(vcol.nbytes) + int(vvals.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(nbytes_of(x) for x in obj)
    if isinstance(obj, dict):
        return sum(nbytes_of(v) for v in obj.values())
    raise TypeError(f"cannot size a {type(obj).__name__} payload")


class SimComm:
    """In-process stand-in for an MPI communicator of ``nprocs`` ranks."""

    def __init__(self, nprocs: int, tracker: CommTracker | None = None,
                 ranks: Sequence[int] | None = None) -> None:
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.tracker = tracker if tracker is not None else CommTracker(nprocs)
        # Global rank ids of this communicator's members (for accounting when
        # this is a sub-communicator of a larger world).
        self._global_ranks = list(ranks) if ranks is not None else list(range(nprocs))
        if len(self._global_ranks) != nprocs:
            raise ValueError("ranks must have nprocs entries")

    # -- sub-communicators ------------------------------------------------
    def sub(self, ranks: Sequence[int]) -> "SimComm":
        """Sub-communicator over the given *local* rank subset.

        Accounting still lands on the original global ranks, exactly like an
        ``MPI_Comm_split`` result sharing the parent's network.
        """
        global_subset = [self._global_ranks[r] for r in ranks]
        return SimComm(len(ranks), self.tracker, global_subset)

    def _charge(self, stage: str, local_rank: int, n_bytes: int, n_msgs: int
                ) -> None:
        self.tracker.record(stage, self._global_ranks[local_rank],
                            n_bytes, n_msgs)

    # -- collectives -------------------------------------------------------
    def alltoallv(self, send: list[list], stage: str) -> list[list]:
        """All-to-all variable exchange.

        ``send[p][q]`` is the payload rank ``p`` sends to rank ``q``; the
        result ``recv[q][p]`` is that same object (zero-copy hand-off, as the
        simulation shares one address space).  Each rank is charged one
        message per *non-empty* off-rank destination plus the payload bytes,
        matching ``MPI_Alltoallv``'s per-destination accounting.
        """
        P = self.nprocs
        if len(send) != P or any(len(row) != P for row in send):
            raise ValueError("send must be a PxP nested list")
        recv: list[list] = [[None] * P for _ in range(P)]
        for p in range(P):
            for q in range(P):
                payload = send[p][q]
                recv[q][p] = payload
                if p != q:
                    nb = nbytes_of(payload)
                    self._charge(stage, p, nb, 1 if nb > 0 else 0)
        return recv

    def bcast(self, obj, root: int, stage: str) -> list:
        """Broadcast from ``root``; returns the per-rank received list.

        Charged as ``P - 1`` messages and ``(P-1) * nbytes`` at the root —
        the volume a flat-tree broadcast injects; tree algorithms change
        constants, not the asymptotics the paper analyzes.
        """
        nb = nbytes_of(obj)
        if self.nprocs > 1:
            self._charge(stage, root, nb * (self.nprocs - 1), self.nprocs - 1)
        return [obj for _ in range(self.nprocs)]

    def allreduce(self, values: list, op, stage: str, item_bytes: int | None = None):
        """Allreduce of one value per rank; returns the reduced value.

        Charged as one message of the item size per rank (recursive-doubling
        volume is ``log P`` messages; we charge the dominant single-item
        volume per rank and one message, again preserving asymptotics).
        """
        if len(values) != self.nprocs:
            raise ValueError("one value per rank required")
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        # A single rank ships nothing, so its payload is never sized.
        if self.nprocs > 1:
            nb = item_bytes if item_bytes is not None else nbytes_of(values[0])
            for p in range(self.nprocs):
                self._charge(stage, p, nb, 1)
        return acc

    def gather(self, values: list, root: int, stage: str) -> list:
        """Gather one value per rank at ``root``."""
        if len(values) != self.nprocs:
            raise ValueError("one value per rank required")
        for p in range(self.nprocs):
            if p != root:
                self._charge(stage, p, nbytes_of(values[p]), 1)
        return list(values)

    def allgather(self, values: list, stage: str) -> list[list]:
        """Allgather: every rank receives every rank's value."""
        if len(values) != self.nprocs:
            raise ValueError("one value per rank required")
        for p in range(self.nprocs):
            nb = nbytes_of(values[p])
            if self.nprocs > 1:
                self._charge(stage, p, nb * (self.nprocs - 1), self.nprocs - 1)
        return [list(values) for _ in range(self.nprocs)]
