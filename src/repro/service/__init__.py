"""Incremental assembly service: versioned states, delta refresh, HTTP API.

The batch pipeline answers one question once; this package keeps an
assembly *alive*: a long-running server accepts read batches over HTTP,
folds each batch into the current :class:`~repro.service.state.AssemblyState`
with an incremental refresh (new k-mers merged into the sorted SoA
histogram, delta candidate products over only the affected read pairs,
spliced R rows, a re-run transitive reduction), bumps the dataset version,
and serves overlap/contig/stats queries through a cache keyed on that
version.

Layers
------
``config``
    :class:`ServiceConfig` + the ``refresh_mode`` axis
    (``incremental | recompute``, mirroring ``align_impl``/``kmer_impl``).
``state``
    Versioned, copy-on-write :class:`AssemblyState` snapshots and the
    thread-safe :class:`SessionStore` holding the current one.
``incremental``
    The refresh engine: :func:`refresh` produces version ``v+1`` from
    version ``v`` plus a read batch, byte-identical to a from-scratch
    :func:`~repro.core.pipeline.run_pipeline` either way (``recompute``
    *is* the scratch run — the oracle the incremental path is pinned to).
``query_cache`` / ``server``
    LRU result cache keyed on ``(endpoint, params, dataset_version)`` and
    the stdlib ``http.server`` JSON API around it.
"""

from .config import ServiceConfig
from .incremental import refresh
from .query_cache import QueryCache
from .server import (AssemblyService, BadBatch, RefreshFailed, make_server)
from .state import AssemblyState, SessionStore

__all__ = [
    "ServiceConfig",
    "AssemblyState", "SessionStore", "refresh",
    "QueryCache", "AssemblyService", "make_server",
    "BadBatch", "RefreshFailed",
]
