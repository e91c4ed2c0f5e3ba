"""The HTTP face of the incremental assembly service.

:class:`AssemblyService` is the transport-free core — ingest a batch,
answer overlap/contig/stats queries against the current version through
the cache — and :func:`make_server` serves it as an HTTP/1.1 JSON API:

========  =================  ==========================================
method    path               effect
========  =================  ==========================================
``POST``  ``/reads``         ingest ``{"reads": [{"name", "seq"}, ...]}``
                             → refresh → version bump
``GET``   ``/version``       current dataset version + read count
``GET``   ``/overlaps/<i>``  read ``i``'s R row, containment entries
                             included (negative ``suffix`` markers;
                             cached); ``404`` for a read the version
                             does not hold
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
retry the same batch against the unchanged state.  Every error reply
carries a machine-readable ``code`` beside its ``error`` message.

**Transport.**  One selector loop, run by ``serve_forever``, owns every
socket.  It accepts a connection and tries a read at once; a connection
whose request has not arrived yet is parked in the selector, not in a
thread.  The loop parses the request line and headers itself (at most
64 KiB of them) and answers each ``GET`` inline from the current
version: answering costs microseconds, less than handing the socket to
another thread.  A complete ``POST /reads`` body goes to one long-lived
ingest thread, so readers keep being answered from the old version while
a refresh runs; ingests serialize on a lock anyway.  Each reply leaves
in one write when the socket buffer takes it, the rest on
write-readiness.  An HTTP/1.1 request without ``Connection: close``
keeps its connection open for the next request (pipelined requests are
answered in order); HTTP/1.0 and HTTP/0.9 requests close after their
reply.  A connection that stays silent for :data:`READ_TIMEOUT_S` —
before its request line, inside its headers or body, or between
keep-alive requests — is dropped.  ``server_close()`` waits for a
running ingest, sends the replies still owed, closes every connection
and joins the ingest thread.
"""

from __future__ import annotations

import collections
import contextlib
import json
import math
import re
import selectors
import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus

from ..core.pipeline import _require_nonempty_reads
from ..core.semirings import R_END_I, R_END_J, R_OLEN, R_SUFFIX
from ..options import FAULT_PLAN
from ..resilience.faults import FaultPlan, active_plan
from ..seqs.dna import encode
from ..seqs.fasta import ReadSet
from .config import ServiceConfig
from .incremental import refresh, service_pipeline
from .query_cache import QueryCache
from .state import AssemblyState, SessionStore

__all__ = ["AssemblyService", "BadBatch", "RefreshFailed", "UnknownRead",
           "make_server", "MAX_BODY_BYTES", "READ_TIMEOUT_S"]

#: Largest ``POST /reads`` body the server will read (413 beyond this) —
#: far above any sane batch, present so a bogus Content-Length cannot make
#: the handler allocate unboundedly.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Seconds a connection may stay silent before the server drops it.
READ_TIMEOUT_S = 30.0


class BadBatch(ValueError):
    """The ingest payload itself is invalid (non-DNA characters, an empty
    sequence) — a client error (HTTP 400), distinct from a failed refresh
    (503)."""


class UnknownRead(LookupError):
    """An overlap query names a read the answering version does not hold
    (HTTP 404) — told apart from a read with no overlaps."""


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


#: What a sequence may hold: ``encode`` would turn any other character
#: into a base, so text that is not DNA would commit as reads.
_NOT_DNA = re.compile(r"[^ACGTNacgtn]")


def _require_dna(names: list[str], seqs: list[str]) -> None:
    """Refuse a sequence holding anything but ``ACGTN`` (either case),
    naming the read, the character and its position."""
    for name, seq in zip(names, seqs):
        bad = _NOT_DNA.search(seq)
        if bad is not None:
            raise ValueError(
                f"read {name!r} holds {bad.group()!r} at position "
                f"{bad.start()}; a sequence may hold only A, C, G, T or N "
                f"(either case)")


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
        # A config no refresh could run (say, unusable depth/error hints)
        # is refused here, before any read arrives.
        service_pipeline(self.config)
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
            _require_dna(names, seqs)
            batch = ReadSet(list(names), [encode(s) for s in seqs])
            _require_nonempty_reads(batch)
        except ValueError as exc:
            raise BadBatch(str(exc)) from exc
        with self._ingest_lock:
            old = self.store.current()
            try:
                with active_plan(self.fault_plan):
                    state = refresh(old, batch, self.config)
            except Exception as exc:
                raise RefreshFailed(old.version, exc) from exc
            self.store.commit(state)
            self.cache.invalidate_stale(state.version)
        return {"version": state.version, "ingested": len(batch),
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
            # Refused here, against the state that would answer; a negative
            # id would otherwise index R from the end.
            n = len(state.reads)
            if not 0 <= read < n:
                raise UnknownRead(f"read {read} does not exist: version "
                                  f"{state.version} holds {n} reads")
            # R is canonical, so row ``read`` is one slice of its cached row
            # pointer.
            R = state.R
            indptr = R.csr_indptr()
            sel = slice(int(indptr[read]), int(indptr[read + 1]))
            out = [{"read": col, "suffix": vals[R_SUFFIX],
                    "end_i": vals[R_END_I], "end_j": vals[R_END_J],
                    "overlap_len": vals[R_OLEN]}
                   for col, vals in zip(R.col[sel].tolist(),
                                        R.vals[sel].tolist())]
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
                    "refresh_seconds": state.refresh_seconds,
                    "scheme": state.scheme_id,
                    "comm": comm}
        result = dict(self._cached("stats", {}, compute))
        # Cache counters ride on top uncached (they change on every query).
        result["cache"] = self.cache.stats()
        return result


#: Largest request line plus headers the loop will buffer (431 beyond).
_HEAD_LIMIT = 64 * 1024
_RECV_BYTES = 64 * 1024
_HEAD_END = re.compile(rb"\n\r?\n")
_HTTP_VERSION = re.compile(r"HTTP/(\d+)\.(\d+)")


class _HttpError(Exception):
    """A request refused before it is routed: answered with ``status`` and
    ``code``, then the connection closes (its body, if any, is unread)."""

    def __init__(self, status: int, code: str, message: str,
                 headers: str = "") -> None:
        super().__init__(message)
        self.status, self.code, self.headers = status, code, headers


def _json(status: int, payload: dict) -> tuple[int, bytes]:
    return status, json.dumps(payload).encode()


def _error(status: int, code: str, message: str) -> tuple[int, bytes]:
    """Structured error body: machine-readable code + human message."""
    return _json(status, {"error": message, "code": code})


def _internal(exc: Exception) -> tuple[int, bytes]:
    """A handler bug: log the traceback, answer a structured 500."""
    traceback.print_exc()
    return _error(500, "internal", str(exc))


def _render(status: int, body: bytes, keep_alive: bool,
            headers: str = "") -> bytes:
    """Status line, headers and body as one buffer, for one write."""
    if not keep_alive:
        headers += "Connection: close\r\n"
    return (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{headers}\r\n"
            ).encode("latin-1") + body


def _incomplete(buf: bytearray) -> None:
    """A head still arriving, unless it has outgrown the limit."""
    if len(buf) >= _HEAD_LIMIT:
        raise _HttpError(431, "headers-too-large", f"request head exceeds "
                         f"the {_HEAD_LIMIT}-byte limit")


def _parse_head(buf: bytearray):
    """The request head at the front of ``buf``, or ``None`` while it is
    incomplete.

    Returns ``(size, method, path, headers, bare, keep_alive)``: ``size``
    bytes of ``buf`` are the head, ``headers`` maps lower-case names to
    their first value, and ``bare`` marks an HTTP/0.9 request, whose reply
    is the body alone.
    """
    eol = buf.find(b"\n", 0, _HEAD_LIMIT)
    if eol < 0:
        return _incomplete(buf)
    line = buf[:eol].decode("latin-1")
    words = line.split()
    if len(words) == 2 and words[0] == "GET":
        return eol + 1, "GET", words[1], {}, True, False
    version = _HTTP_VERSION.fullmatch(words[2]) if len(words) == 3 else None
    if version is None:
        raise _HttpError(400, "bad-request-line",
                         f"malformed request line {line.strip()[:80]!r}")
    if version[1] != "1":
        raise _HttpError(505, "bad-http-version",
                         f"{words[2]} is not supported; speak HTTP/1.x")
    if words[0] not in ("GET", "POST"):
        raise _HttpError(405, "method-not-allowed",
                         f"method {words[0]} is not allowed",
                         "Allow: GET, POST\r\n")
    end = _HEAD_END.search(buf, eol, _HEAD_LIMIT)
    if end is None:
        return _incomplete(buf)
    headers: dict[str, str] = {}
    for line in buf[eol + 1:end.start()].decode("latin-1").splitlines():
        name, sep, value = line.partition(":")
        if sep:
            headers.setdefault(name.strip().lower(), value.strip())
    connection = {t.strip() for t in
                  headers.get("connection", "").lower().split(",")}
    keep_alive = version[2] != "0" and "close" not in connection
    return end.end(), words[0], words[1], headers, False, keep_alive


def _content_length(headers: dict[str, str]) -> int:
    """The POST body's length, refused with a precise status: missing
    Content-Length → 411, non-integer or negative → 400, absurdly
    large → 413."""
    raw = headers.get("content-length")
    if raw is None:
        raise _HttpError(411, "length-required",
                         "Content-Length header is required")
    try:
        length = int(raw)
    except ValueError:
        raise _HttpError(400, "bad-content-length", f"Content-Length must "
                         f"be an integer, got {raw!r}") from None
    if length < 0:
        raise _HttpError(400, "bad-content-length", f"Content-Length must "
                         f"be non-negative, got {length}")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, "payload-too-large", f"body of {length} bytes "
                         f"exceeds the {MAX_BODY_BYTES}-byte limit")
    return length


class _Conn:
    """One client connection, owned by the loop thread."""

    __slots__ = ("sock", "inbuf", "out", "deadline", "events",
                 "body_length", "keep_alive")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.out: memoryview | None = None  # reply bytes not yet sent
        self.deadline = time.monotonic() + READ_TIMEOUT_S
        self.events = 0                     # selector interest
        self.body_length: int | None = None  # a POST body is arriving
        self.keep_alive = False


class _Server:
    """The selector loop of :func:`make_server`; see the module docstring.

    Only the loop thread touches connections; the ingest thread hands its
    replies back through ``_done`` and a wake-up socket.
    """

    def __init__(self, service: AssemblyService, host: str,
                 port: int) -> None:
        self.service = service
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ,
                           self._accept)
        self._sel.register(self._wake_r, selectors.EVENT_READ, self._collect)
        self._conns: set[_Conn] = set()
        self._done: collections.deque = collections.deque()
        self._ingests = ThreadPoolExecutor(
            1, thread_name_prefix=f"repro-http-{self.server_address[1]}")
        self._stop = False
        self._stopped = threading.Event()

    # -- the loop ----------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the loop until :meth:`shutdown` (from another thread)."""
        self._stopped.clear()
        try:
            while not self._stop:
                for key, events in self._sel.select(poll_interval):
                    conn = key.data
                    try:
                        if not isinstance(conn, _Conn):
                            conn()  # the listener or the wake-up socket
                        elif events & selectors.EVENT_WRITE:
                            if self._flush(conn):
                                self._advance(conn)
                        else:
                            self._read(conn)
                    except Exception:  # a bug must not stop the loop
                        traceback.print_exc()
                        if isinstance(conn, _Conn):
                            self._close(conn)
                now = time.monotonic()
                for conn in [c for c in self._conns if c.deadline <= now]:
                    self._close(conn)
        finally:
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stop = True
        self._wake()
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listener, finish the running ingest, send the replies
        still owed, close every connection and join the ingest thread."""
        self._listener.close()
        self._ingests.shutdown(wait=True, cancel_futures=True)
        while self._done:
            conn, status, body = self._done.popleft()
            conn.out = memoryview(_render(status, body, conn.keep_alive))
        for conn in list(self._conns):
            if conn.out is not None:
                with contextlib.suppress(OSError):  # peer gone or stuck
                    conn.sock.settimeout(READ_TIMEOUT_S)
                    conn.sock.sendall(conn.out)
            self._close(conn)
        self._sel.close()
        self._wake_r.close()
        self._wake_w.close()

    def _wake(self) -> None:
        with contextlib.suppress(BlockingIOError):  # a wake-up is pending
            self._wake_w.send(b"\0")

    def _watch(self, conn: _Conn, events: int) -> None:
        if events == conn.events:
            return
        if not conn.events:
            self._sel.register(conn.sock, events, conn)
        elif not events:
            self._sel.unregister(conn.sock)
        else:
            self._sel.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Conn) -> None:
        self._watch(conn, 0)
        conn.sock.close()
        self._conns.discard(conn)

    # -- connections -------------------------------------------------------
    def _accept(self) -> None:
        # One per readiness: the selector reports the listener again while
        # connections are pending.
        try:
            sock, _addr = self._listener.accept()
        except OSError:  # none pending after all, or the client gave up
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock)
        self._conns.add(conn)
        self._watch(conn, selectors.EVENT_READ)
        self._read(conn)

    def _read(self, conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if chunk:
            conn.inbuf += chunk
            conn.deadline = time.monotonic() + READ_TIMEOUT_S
            self._advance(conn)
        elif conn.body_length is None:
            self._close(conn)
        else:  # the client died mid-send
            conn.keep_alive = False
            self._send(conn, *_error(
                400, "truncated-body", f"body ended after "
                f"{len(conn.inbuf)} of the {conn.body_length} bytes "
                f"Content-Length promised"))

    def _advance(self, conn: _Conn) -> None:
        """Answer the requests at the front of ``conn.inbuf`` in order,
        until one is incomplete, a reply is pending or an ingest runs."""
        while True:
            try:
                if conn.body_length is None:
                    head = _parse_head(conn.inbuf) if conn.inbuf else None
                    if head is None:
                        return
                    size, method, path, headers, bare, conn.keep_alive = head
                    del conn.inbuf[:size]
                    if method == "GET":
                        if not self._send(conn, *self._get(path), bare=bare):
                            return
                        continue
                    if path.rstrip("/") != "/reads":
                        raise _HttpError(404, "not-found",
                                         f"unknown endpoint {path}")
                    conn.body_length = _content_length(headers)
            except _HttpError as exc:
                conn.keep_alive = False
                self._send(conn, *_error(exc.status, exc.code, str(exc)),
                           headers=exc.headers)
                return
            if len(conn.inbuf) < conn.body_length:
                return
            body = conn.inbuf[:conn.body_length]
            del conn.inbuf[:conn.body_length]
            conn.body_length = None
            conn.deadline = math.inf  # the server is busy, not the client
            self._watch(conn, 0)
            self._ingests.submit(self._ingest, conn, body)
            return

    def _send(self, conn: _Conn, status: int, body: bytes,
              bare: bool = False, headers: str = "") -> bool:
        """Queue one reply and write it; True when it left whole and the
        connection waits for its next request.  An HTTP/0.9 (``bare``)
        reply is the body alone."""
        conn.out = memoryview(body if bare else _render(
            status, body, conn.keep_alive, headers))
        return self._flush(conn)

    def _flush(self, conn: _Conn) -> bool:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return False
        conn.out = conn.out[sent:]
        conn.deadline = time.monotonic() + READ_TIMEOUT_S
        if conn.out:
            self._watch(conn, selectors.EVENT_WRITE)
            return False
        conn.out = None
        if not conn.keep_alive:
            with contextlib.suppress(OSError):  # peer already gone
                conn.sock.shutdown(socket.SHUT_WR)
            self._close(conn)
            return False
        self._watch(conn, selectors.EVENT_READ)
        return True

    def _collect(self) -> None:
        """Send the replies of finished ingests (wake-up readable)."""
        with contextlib.suppress(BlockingIOError):
            self._wake_r.recv(4096)
        while self._done:
            conn, status, body = self._done.popleft()
            if self._send(conn, status, body):
                self._advance(conn)

    # -- answers -----------------------------------------------------------
    def _get(self, path: str) -> tuple[int, bytes]:
        path = path.rstrip("/") or "/"
        try:
            if path == "/version":
                return _json(200, self.service.version())
            if path == "/stats":
                return _json(200, self.service.stats())
            if path == "/contigs":
                return _json(200, self.service.contigs())
            if path.startswith("/overlaps/"):
                try:
                    read = int(path.rsplit("/", 1)[1])
                except ValueError:
                    return _error(400, "bad-read-id",
                                  "read id must be an integer")
                return _json(200, self.service.overlaps(read))
            return _error(404, "not-found", f"unknown endpoint {path}")
        except UnknownRead as exc:
            return _error(404, "unknown-read", str(exc))
        except Exception as exc:
            return _internal(exc)

    def _ingest(self, conn: _Conn, body: bytearray) -> None:
        """On the ingest thread: answer one POST body, hand the reply to
        the loop."""
        try:
            reply = self._post(body)
        except Exception as exc:
            reply = _internal(exc)
        self._done.append((conn, *reply))
        self._wake()

    def _post(self, body: bytearray) -> tuple[int, bytes]:
        try:
            payload = json.loads(body or b"{}")
        except ValueError as exc:
            return _error(400, "bad-json", f"body is not valid JSON: {exc}")
        try:
            if not isinstance(payload, dict):
                raise TypeError(f"expected a JSON object, got "
                                f"{type(payload).__name__}")
            reads = payload.get("reads", [])
            names = [str(r["name"]) for r in reads]
            seqs = [str(r["seq"]) for r in reads]
        except (ValueError, KeyError, TypeError) as exc:
            return _error(400, "bad-batch", f"bad request body: {exc}")
        try:
            return _json(200, self.service.ingest(names, seqs))
        except BadBatch as exc:
            return _error(400, "bad-batch", str(exc))
        except RefreshFailed as exc:
            # Nothing was committed; the client may retry the same batch.
            return _json(503, {"error": str(exc), "code": "refresh-failed",
                               "version": exc.version, "retryable": True})


def make_server(service: AssemblyService, host: str | None = None,
                port: int | None = None) -> _Server:
    """A ready-to-``serve_forever`` HTTP server bound to ``service``.

    ``port=0`` asks the OS for a free port (the test suite's mode); the
    bound address is on ``server.server_address``.  The server's one
    ingest thread starts with its first ``POST`` and stops in
    ``server_close()``.
    """
    host = host if host is not None else service.config.host
    port = port if port is not None else service.config.port
    return _Server(service, host, port)
