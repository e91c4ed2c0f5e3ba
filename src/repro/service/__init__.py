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
    :class:`ServiceConfig`: host, port, cache size and the pipeline
    config every refresh runs.
``state``
    Versioned, copy-on-write :class:`AssemblyState` snapshots, the
    :class:`~repro.service.state.Basis` each was built on, and the
    thread-safe :class:`SessionStore` holding the current one.
``incremental``
    The one refresh engine: :func:`refresh` produces version ``v+1`` from
    version ``v`` plus a read batch, byte-identical to a from-scratch
    :func:`~repro.core.pipeline.run_pipeline` on all reads.  The bootstrap
    and every rebuild (a batch under another basis) are deltas from the
    empty state; the scratch run itself is a test oracle
    (``tests/oracles/service.py``).
``query_cache`` / ``server``
    LRU result cache keyed on ``(endpoint, params, dataset_version)`` and
    the HTTP/1.1 JSON API around it: one selector loop answers queries
    inline and hands ingests to one thread.
"""

from .config import ServiceConfig
from .incremental import refresh
from .query_cache import QueryCache
from .server import (AssemblyService, BadBatch, RefreshFailed, UnknownRead,
                     make_server)
from .state import AssemblyState, SessionStore

__all__ = [
    "ServiceConfig",
    "AssemblyState", "SessionStore", "refresh",
    "QueryCache", "AssemblyService", "make_server",
    "BadBatch", "RefreshFailed", "UnknownRead",
]
