"""The HTTP face of the incremental assembly service.

:class:`AssemblyService` is the transport-free core — ingest a batch,
answer overlap/contig/stats queries against the current version through
the cache — and :func:`make_server` wraps it in a stdlib
``ThreadingHTTPServer`` speaking JSON:

========  =================  ==========================================
method    path               effect
========  =================  ==========================================
``POST``  ``/reads``         ingest ``{"reads": [{"name", "seq"}, ...]}``
                             → refresh → version bump
``GET``   ``/version``       current dataset version + read count
``GET``   ``/overlaps/<i>``  read ``i``'s R row, containment entries
                             included (negative ``suffix`` markers;
                             cached)
``GET``   ``/contigs``       contig layout, largest first, each with its
                             ``contained`` reads (cached)
``GET``   ``/stats``         counts, per-stage comm, cache counters
========  =================  ==========================================

Queries are served from whatever state is current when they arrive;
ingests serialize on a lock, refresh *outside* the store (readers keep
the old version meanwhile), then commit and sweep stale cache entries.
Commits are transactional: a refresh that fails for *any* reason —
including faults injected via a :class:`~repro.resilience.FaultPlan` —
leaves the store at the old version and the query cache unswept, and
surfaces as a structured ``503`` (:class:`RefreshFailed`) so clients can
retry the same batch against the unchanged state.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.semirings import R_END_I, R_END_J, R_OLEN, R_SUFFIX
from ..options import FAULT_PLAN
from ..resilience.faults import FaultPlan, active_plan
from ..seqs.dna import encode
from ..seqs.fasta import ReadSet
from .config import ServiceConfig
from .incremental import refresh
from .query_cache import QueryCache
from .state import AssemblyState, SessionStore

__all__ = ["AssemblyService", "BadBatch", "RefreshFailed", "make_server",
           "MAX_BODY_BYTES"]

#: Largest ``POST /reads`` body the server will read (413 beyond this) —
#: far above any sane batch, present so a bogus Content-Length cannot make
#: the handler allocate unboundedly.
MAX_BODY_BYTES = 256 * 1024 * 1024


class BadBatch(ValueError):
    """The ingest payload itself is invalid (e.g. non-DNA characters) —
    a client error (HTTP 400), distinct from a state conflict (409)."""


class RefreshFailed(RuntimeError):
    """A refresh died mid-flight; nothing was committed (HTTP 503).

    The session store still holds the pre-ingest version and the query
    cache was not swept — retrying the same batch is safe.
    """

    def __init__(self, version: int, cause: BaseException) -> None:
        super().__init__(f"refresh failed, still at version {version}: "
                         f"{cause!r}")
        self.version = version
        self.cause = cause


class AssemblyService:
    """Session store + refresh engine + query cache, behind plain methods.

    ``fault_spec`` arms a *persistent* fault plan
    (:class:`repro.resilience.FaultPlan` grammar; ``None`` defers to
    ``REPRO_FAULT_SPEC``, ``""`` pins the service fault-free) whose
    per-site counters live as long as the service — so ``service.refresh:exc@3`` fails exactly the third ingest
    of the process, whichever client sends it.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 fault_spec: str | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.store = SessionStore(AssemblyState.initial())
        self.cache = QueryCache(self.config.cache_entries)
        spec = FAULT_PLAN.resolve(fault_spec)
        self.fault_plan = FaultPlan(spec) if spec is not None else None
        self._ingest_lock = threading.Lock()

    # -- mutation ----------------------------------------------------------
    def ingest(self, names: list[str], seqs: list[str]) -> dict:
        """Fold a batch of reads in; returns the new version's summary.

        All-or-nothing: the new state is built entirely outside the store,
        so a refresh failure (raised as :class:`RefreshFailed`) leaves the
        current version, its cache entries, and concurrent readers
        untouched.
        """
        try:
            batch = ReadSet(list(names), [encode(s) for s in seqs])
        except ValueError as exc:
            raise BadBatch(str(exc)) from exc
        with self._ingest_lock:
            old = self.store.current()
            try:
                with active_plan(self.fault_plan):
                    state = refresh(old, batch, self.config)
            except ValueError:
                # State conflicts (cross-scheme deltas) pass through: the
                # client must change its request, not retry it.
                raise
            except Exception as exc:
                raise RefreshFailed(old.version, exc) from exc
            self.store.commit(state)
            self.cache.invalidate_stale(state.version)
        return {"version": state.version, "ingested": len(batch),
                "refresh_mode": state.refresh_mode,
                "refresh_seconds": state.refresh_seconds,
                "counts": state.counts}

    # -- queries -----------------------------------------------------------
    def _cached(self, endpoint: str, params: dict, compute):
        state = self.store.current()
        key = self.cache.key(endpoint, params, state.version)
        result = self.cache.get(key)
        if result is None:
            result = compute(state)
            self.cache.put(key, result)
        return result

    def version(self) -> dict:
        state = self.store.current()
        return {"version": state.version,
                "n_reads": state.counts["n_reads"]}

    def overlaps(self, read: int) -> dict:
        def compute(state: AssemblyState) -> dict:
            out = []
            R = state.R
            # R is canonical, so row ``read`` is one slice of its cached row
            # pointer — guarded, as a negative id would index from the end.
            if R is not None and 0 <= read < R.shape[0]:
                indptr = R.csr_indptr()
                sel = slice(int(indptr[read]), int(indptr[read + 1]))
                for col, vals in zip(R.col[sel].tolist(),
                                     R.vals[sel].tolist()):
                    out.append({"read": col,
                                "suffix": vals[R_SUFFIX],
                                "end_i": vals[R_END_I],
                                "end_j": vals[R_END_J],
                                "overlap_len": vals[R_OLEN]})
            return {"version": state.version, "read": read,
                    "overlaps": out}
        return self._cached("overlaps", {"read": int(read)}, compute)

    def contigs(self) -> dict:
        def compute(state: AssemblyState) -> dict:
            ordered = sorted(state.contigs, key=len, reverse=True)
            return {"version": state.version,
                    "contigs": [{"reads": list(c.reads),
                                 "orientations": list(c.orientations),
                                 "contained": list(c.contained)}
                                for c in ordered]}
        return self._cached("contigs", {}, compute)

    def stats(self) -> dict:
        def compute(state: AssemblyState) -> dict:
            comm = {}
            if state.tracker is not None:
                for stage, rec in sorted(state.tracker.records.items()):
                    comm[stage] = {"bytes": int(rec.total_bytes),
                                   "messages": int(rec.total_messages)}
            return {"version": state.version, "counts": state.counts,
                    "refresh_mode": state.refresh_mode,
                    "refresh_seconds": state.refresh_seconds,
                    "scheme": state.scheme_id,
                    "comm": comm}
        result = dict(self._cached("stats", {}, compute))
        # Cache counters ride on top uncached (they change on every query).
        result["cache"] = self.cache.stats()
        return result


class _Handler(BaseHTTPRequestHandler):
    """JSON request handler bound to one :class:`AssemblyService`."""

    service: AssemblyService  # set by make_server's subclass

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test output and demo terminals quiet

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, status: int, code: str, message: str) -> None:
        """Structured error body: machine-readable code + human message."""
        self._reply({"error": message, "code": code}, status)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` after replying with the error.

        Socket-level malformations get precise statuses instead of a
        hang or a stack trace: missing Content-Length → 411, non-integer
        or negative → 400, absurdly large → 413, a body shorter than the
        header promised (client died mid-send) → 400.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            self._fail(411, "length-required",
                       "Content-Length header is required")
            return None
        try:
            length = int(raw)
        except ValueError:
            self._fail(400, "bad-content-length",
                       f"Content-Length must be an integer, got {raw!r}")
            return None
        if length < 0:
            self._fail(400, "bad-content-length",
                       f"Content-Length must be non-negative, got {length}")
            return None
        if length > MAX_BODY_BYTES:
            self._fail(413, "payload-too-large",
                       f"body of {length} bytes exceeds the "
                       f"{MAX_BODY_BYTES}-byte limit")
            return None
        body = self.rfile.read(length)
        if len(body) < length:
            self._fail(400, "truncated-body",
                       f"body ended after {len(body)} of the {length} "
                       f"bytes Content-Length promised")
            return None
        return body

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.rstrip("/") or "/"
        try:
            if path == "/version":
                self._reply(self.service.version())
            elif path == "/stats":
                self._reply(self.service.stats())
            elif path == "/contigs":
                self._reply(self.service.contigs())
            elif path.startswith("/overlaps/"):
                try:
                    read = int(path.rsplit("/", 1)[1])
                except ValueError:
                    self._reply({"error": "read id must be an integer"}, 400)
                    return
                self._reply(self.service.overlaps(read))
            else:
                self._reply({"error": f"unknown endpoint {path}"}, 404)
        except Exception as exc:  # pragma: no cover - defensive
            self._reply({"error": str(exc)}, 500)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path.rstrip("/") != "/reads":
            self._reply({"error": f"unknown endpoint {self.path}"}, 404)
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body or b"{}")
        except ValueError as exc:
            self._fail(400, "bad-json", f"body is not valid JSON: {exc}")
            return
        try:
            if not isinstance(payload, dict):
                raise TypeError(f"expected a JSON object, got "
                                f"{type(payload).__name__}")
            reads = payload.get("reads", [])
            names = [str(r["name"]) for r in reads]
            seqs = [str(r["seq"]) for r in reads]
        except (ValueError, KeyError, TypeError) as exc:
            self._fail(400, "bad-batch", f"bad request body: {exc}")
            return
        try:
            self._reply(self.service.ingest(names, seqs))
        except BadBatch as exc:
            self._fail(400, "bad-batch", str(exc))
        except RefreshFailed as exc:
            # Nothing was committed; the client may retry the same batch.
            self._reply({"error": str(exc), "code": "refresh-failed",
                         "version": exc.version, "retryable": True}, 503)
        except ValueError as exc:
            # Refused ingests (e.g. a cross-scheme delta against the
            # session's seeding scheme) are a client-state conflict, not a
            # server fault.
            self._reply({"error": str(exc), "code": "conflict"}, 409)
        except Exception as exc:  # pragma: no cover - defensive
            self._reply({"error": str(exc)}, 500)


def make_server(service: AssemblyService, host: str | None = None,
                port: int | None = None) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``service``.

    ``port=0`` asks the OS for a free port (the test suite's mode); the
    bound address is on ``server.server_address``.
    """
    host = host if host is not None else service.config.host
    port = port if port is not None else service.config.port

    class BoundHandler(_Handler):
        pass

    BoundHandler.service = service
    return ThreadingHTTPServer((host, port), BoundHandler)
