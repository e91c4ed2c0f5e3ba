"""HTTP layer: endpoints, cache behaviour, ingest → version bump, and the
transport (one loop, read timeout, keep-alive, readers beside writers)."""

import contextlib
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.options import REFRESH_MODE
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.dna import decode
from repro.service import (AssemblyService, BadBatch, ServiceConfig,
                           make_server)
from repro.service import server as server_mod

K = 17
NPROCS = 4


@pytest.fixture(scope="module")
def server_reads():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=5_000, seed=7), depth=8,
                    mean_len=600, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=8))
    return reads


@pytest.fixture()
def service():
    return AssemblyService(ServiceConfig(
        pipeline=PipelineConfig(k=K, nprocs=NPROCS, kmer_upper=12, fuzz=60)))


@contextlib.contextmanager
def _serving(service):
    """Serve ``service`` on a free port for the block; yields the base URL."""
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def base_url(service):
    with _serving(service) as url:
        yield url


def _get(url: str):
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


def _batch_payload(reads, lo: int, hi: int) -> dict:
    sub = reads.subset(np.arange(lo, hi))
    return {"reads": [{"name": name, "seq": decode(seq)}
                      for name, seq in zip(sub.names, sub.seqs)]}


def test_version_starts_at_zero(base_url):
    status, body = _get(f"{base_url}/version")
    assert status == 200
    assert body == {"version": 0, "n_reads": 0}


def test_ingest_then_query(base_url, service, server_reads):
    half = len(server_reads) // 2
    status, body = _post(f"{base_url}/reads",
                         _batch_payload(server_reads, 0, half))
    assert status == 200
    assert body["version"] == 1
    assert body["ingested"] == half

    status, body = _post(f"{base_url}/reads",
                         _batch_payload(server_reads, half,
                                        len(server_reads)))
    assert status == 200
    assert body["version"] == 2

    status, body = _get(f"{base_url}/version")
    assert body == {"version": 2, "n_reads": len(server_reads)}

    # Overlap payload mirrors the R matrix row for that read.
    state = service.store.current()
    read = int(state.R.row[0])
    status, body = _get(f"{base_url}/overlaps/{read}")
    assert status == 200
    assert body["version"] == 2
    assert len(body["overlaps"]) == int((state.R.row == read).sum())
    partners = sorted(o["read"] for o in body["overlaps"])
    assert partners == sorted(state.R.col[state.R.row == read].tolist())
    for o in body["overlaps"]:
        assert o["overlap_len"] > 0

    # Contigs arrive largest-first and cover the graph's layout.
    status, body = _get(f"{base_url}/contigs")
    assert status == 200
    sizes = [len(c["reads"]) for c in body["contigs"]]
    assert sizes == sorted(sizes, reverse=True)
    assert sum(sizes) > 0
    for c in body["contigs"]:
        assert len(c["reads"]) == len(c["orientations"])

    status, body = _get(f"{base_url}/stats")
    assert body["counts"]["n_reads"] == len(server_reads)
    assert set(body["comm"]) == {"CountKmer", "CreateSpMat", "ExchangeRead",
                                 "SpGEMM", "TrReduction"}
    for rec in body["comm"].values():
        assert rec["bytes"] > 0 and rec["messages"] > 0


def test_query_cache_hits_and_invalidation(base_url, service, server_reads):
    third = len(server_reads) // 3
    _post(f"{base_url}/reads", _batch_payload(server_reads, 0, third))

    _get(f"{base_url}/contigs")               # miss, fills cache
    _get(f"{base_url}/contigs")               # hit
    stats = service.cache.stats()
    assert stats["hits"] >= 1

    before = service.cache.stats()["entries"]
    assert before >= 1
    _post(f"{base_url}/reads",
          _batch_payload(server_reads, third, 2 * third))
    stats = service.cache.stats()
    assert stats["invalidations"] >= before   # old-version entries swept
    assert stats["entries"] == 0

    # Same query against the new version recomputes (a miss, not a hit).
    misses_before = stats["misses"]
    _get(f"{base_url}/contigs")
    assert service.cache.stats()["misses"] == misses_before + 1


def _error(request, *args):
    """Status and JSON body of a request that must fail."""
    with pytest.raises(urllib.error.HTTPError) as e:
        request(*args)
    with e.value:
        return e.value.code, json.loads(e.value.read())


def test_error_paths(base_url, service, monkeypatch):
    cases = [((_get, f"{base_url}/nope"), 404, "not-found"),
             ((_get, f"{base_url}/overlaps/banana"), 400, "bad-read-id"),
             ((_get, f"{base_url}/overlaps/0"), 404, "unknown-read"),
             ((_post, f"{base_url}/reads", {"reads": [{"name": "x"}]}),
              400, "bad-batch"),  # no seq
             ((_post, f"{base_url}/nope", {}), 404, "not-found")]
    for args, status, code in cases:
        got_status, body = _error(*args)
        assert (got_status, body["code"]) == (status, code)
        assert body["error"]

    # A handler bug is a structured 500, on GET and on POST alike.
    def broken(*_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(service, "version", broken)
    monkeypatch.setattr(service, "ingest", broken)
    for args in ((_get, f"{base_url}/version"),
                 (_post, f"{base_url}/reads", {"reads": []})):
        status, body = _error(*args)
        assert (status, body["code"], body["error"]) == (500, "internal",
                                                         "boom")


def test_overlaps_unknown_read_is_404(base_url, server_reads):
    """A read the version does not hold is a 404 naming the id and the
    version's read count, not an empty overlap list."""
    _post(f"{base_url}/reads", _batch_payload(server_reads, 0, 20))
    for read in (20, 999999, -1):
        status, body = _error(_get, f"{base_url}/overlaps/{read}")
        assert (status, body["code"]) == (404, "unknown-read")
        assert f"read {read} " in body["error"]
        assert "version 1 holds 20 reads" in body["error"]
    assert _get(f"{base_url}/overlaps/19")[0] == 200


@pytest.mark.parametrize("first", [True, False])
def test_zero_length_read_is_bad_batch(base_url, server_reads, first):
    """An empty sequence is refused as 400 ``bad-batch`` naming the read,
    as the first batch or into a live session, and commits nothing."""
    if not first:
        _post(f"{base_url}/reads", _batch_payload(server_reads, 0, 20))
    version = _get(f"{base_url}/version")[1]
    batch = _batch_payload(server_reads, 20, 22)
    batch["reads"].append({"name": "e", "seq": ""})
    status, body = _error(_post, f"{base_url}/reads", batch)
    assert (status, body["code"]) == (400, "bad-batch")
    assert "'e'" in body["error"]
    assert _get(f"{base_url}/version")[1] == version


@pytest.mark.parametrize("seq,char,at", [
    ("hello world, not dna", "h", 0),
    (12345, "1", 0),
    ("ACGTNacgtn" * 30 + "ACGU", "U", 303),
])
def test_non_dna_read_is_bad_batch(base_url, server_reads, seq, char, at):
    """A sequence holding anything but ACGTN (either case) is refused as
    400 ``bad-batch`` naming the read, the character and its position,
    and commits nothing (it used to commit as a run of ``A``)."""
    _post(f"{base_url}/reads", _batch_payload(server_reads, 0, 20))
    batch = _batch_payload(server_reads, 20, 22)
    batch["reads"].append({"name": "junk", "seq": seq})
    status, body = _error(_post, f"{base_url}/reads", batch)
    assert (status, body["code"]) == (400, "bad-batch")
    assert f"read 'junk' holds {char!r} at position {at}" in body["error"]
    assert _get(f"{base_url}/version")[1] == {"version": 1, "n_reads": 20}


@pytest.mark.parametrize("mode", REFRESH_MODE.choices)
def test_non_dna_read_refused_in_both_refresh_modes(server_reads, mode):
    """The DNA check runs before the refresh, as the first batch (a
    rebuild from the empty state) or into a live session (a delta), so
    both refuse the same input under every ``refresh_mode``; ``N`` and
    lower case are still accepted."""
    service = AssemblyService(ServiceConfig(
        refresh_mode=mode,
        pipeline=PipelineConfig(k=K, nprocs=NPROCS, kmer_upper=12,
                                fuzz=60)))
    good = _batch_payload(server_reads, 0, 20)["reads"]
    names = [r["name"] for r in good]
    seqs = [r["seq"] for r in good]
    for version in (0, 1):
        with pytest.raises(BadBatch, match=r"read 'x' holds '-' at "
                                           r"position 2"):
            service.ingest(names[:3] + ["x"], seqs[:3] + ["AC-GT"])
        assert service.store.current().version == version
        service.ingest(names, [s.lower() if version else "N" + s[1:]
                               for s in seqs])
        assert service.store.current().version == version + 1


def _address(base_url: str) -> tuple[str, int]:
    host, port = base_url[len("http://"):].rsplit(":", 1)
    return host, int(port)


def _raw_reply(base_url: str, request: bytes) -> bytes:
    """Send raw bytes over a socket; return every byte sent back.

    Drives malformations urllib cannot produce (missing or lying
    Content-Length headers, truncated bodies, bad request lines).  A
    server that refuses a request before reading all of it may reset the
    connection after its reply; the reply still counts."""
    with socket.create_connection(_address(base_url), timeout=10) as s:
        s.sendall(request)
        with contextlib.suppress(OSError):  # already reset: read the reply
            s.shutdown(socket.SHUT_WR)
        resp = b""
        while True:
            try:
                chunk = s.recv(65536)
            except ConnectionResetError:
                if not resp:
                    raise
                break
            if not chunk:
                break
            resp += chunk
    return resp


def _raw_request(base_url: str, request: bytes):
    """Status and JSON body of the reply to raw request bytes."""
    resp = _raw_reply(base_url, request)
    status = int(resp.split(b" ", 2)[1])
    return status, json.loads(resp.split(b"\r\n\r\n", 1)[1])


def test_post_missing_content_length_is_411(base_url):
    status, body = _raw_request(
        base_url, b"POST /reads HTTP/1.1\r\nHost: t\r\n\r\n")
    assert status == 411
    assert body["code"] == "length-required"


def test_post_bad_content_length_is_400(base_url):
    for raw in (b"banana", b"-5"):
        status, body = _raw_request(
            base_url, b"POST /reads HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: " + raw + b"\r\n\r\n{}")
        assert status == 400
        assert body["code"] == "bad-content-length"


def test_post_oversized_content_length_is_413(base_url):
    status, body = _raw_request(
        base_url, b"POST /reads HTTP/1.1\r\nHost: t\r\n"
                  b"Content-Length: 999999999999\r\n\r\n")
    assert status == 413
    assert body["code"] == "payload-too-large"


def test_post_truncated_body_is_400(base_url):
    # Client promises 500 bytes, sends 11, hangs up: structured 400, no
    # hang, no stack trace.
    status, body = _raw_request(
        base_url, b"POST /reads HTTP/1.1\r\nHost: t\r\n"
                  b"Content-Length: 500\r\n\r\n{\"reads\": [")
    assert status == 400
    assert body["code"] == "truncated-body"


def test_post_malformed_json_is_structured_400(base_url):
    payload = b"{not json"
    status, body = _raw_request(
        base_url, b"POST /reads HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        str(len(payload)).encode() + b"\r\n\r\n" + payload)
    assert status == 400
    assert body["code"] == "bad-json"
    # A JSON body that isn't an object is equally a 400, not a 500.
    payload = b"[1, 2]"
    status, body = _raw_request(
        base_url, b"POST /reads HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        str(len(payload)).encode() + b"\r\n\r\n" + payload)
    assert status == 400
    assert body["code"] == "bad-batch"


@pytest.mark.parametrize("request_bytes, status, code", [
    (b"PUT /reads HTTP/1.1\r\nHost: t\r\n\r\n", 405, "method-not-allowed"),
    (b"DELETE /reads HTTP/1.1\r\n\r\n", 405, "method-not-allowed"),
    (b"HEAD /version HTTP/1.1\r\n\r\n", 405, "method-not-allowed"),
    (b"garbage\r\n\r\n", 400, "bad-request-line"),
    (b"GET /version HTTP/one\r\n\r\n", 400, "bad-request-line"),
    (b"GET /version HTTP/2.0\r\n\r\n", 505, "bad-http-version"),
    (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 431,
     "headers-too-large"),
    (b"GET /version HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
     431, "headers-too-large"),
], ids=["put", "delete", "head", "garbage", "bad-version", "http2",
        "long-uri", "long-headers"])
def test_unparseable_requests_get_structured_errors(base_url, request_bytes,
                                                    status, code):
    reply = _raw_reply(base_url, request_bytes)
    head, body = reply.split(b"\r\n\r\n", 1)
    lines = head.decode().split("\r\n")
    assert lines[0].startswith(f"HTTP/1.1 {status} ")
    assert "Connection: close" in lines
    assert ("Allow: GET, POST" in lines) == (status == 405)
    body = json.loads(body)
    assert body["code"] == code and body["error"]
    assert _get(f"{base_url}/version") == (200, {"version": 0, "n_reads": 0})


def test_malformed_posts_leave_version_untouched(base_url):
    _raw_request(base_url, b"POST /reads HTTP/1.1\r\nHost: t\r\n"
                           b"Content-Length: 500\r\n\r\n{\"reads\": [")
    status, body = _get(f"{base_url}/version")
    assert status == 200
    assert body["version"] == 0


# -- the transport ------------------------------------------------------------

def _closed_by_server(sock: socket.socket) -> bool:
    """True if the server closes ``sock`` (EOF or reset) within 5 s."""
    sock.settimeout(5.0)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    except TimeoutError:
        return False


def test_stalled_clients_do_not_hold_the_pool(service, monkeypatch):
    monkeypatch.setattr(server_mod, "READ_TIMEOUT_S", 0.2)
    with _serving(service) as base_url, contextlib.ExitStack() as stack:
        addr = _address(base_url)
        # Ten silent connections, plus a POST whose body stops short of
        # its Content-Length and stays open.
        stalled = [stack.enter_context(socket.create_connection(addr))
                   for _ in range(10)]
        post = stack.enter_context(socket.create_connection(addr))
        post.sendall(b"POST /reads HTTP/1.0\r\nContent-Length: 500\r\n\r\n"
                     b'{"reads": [')
        stalled.append(post)

        t0 = time.perf_counter()
        status, body = _get(f"{base_url}/version")
        assert time.perf_counter() - t0 < 2.0
        assert (status, body["version"]) == (200, 0)
        assert all(_closed_by_server(s) for s in stalled)
        assert _get(f"{base_url}/version")[1]["version"] == 0


def test_readers_are_not_serialized_behind_a_writer(service, server_reads,
                                                     monkeypatch):
    entered, release = threading.Event(), threading.Event()
    real_refresh = server_mod.refresh

    def held_refresh(*args, **kwargs):
        entered.set()
        release.wait(timeout=60)
        return real_refresh(*args, **kwargs)

    half = len(server_reads) // 2
    with _serving(service) as base_url:
        _post(f"{base_url}/reads", _batch_payload(server_reads, 0, half))
        monkeypatch.setattr(server_mod, "refresh", held_refresh)
        replies = []
        writer = threading.Thread(target=lambda: replies.append(_post(
            f"{base_url}/reads",
            _batch_payload(server_reads, half, len(server_reads)))))
        writer.start()
        try:
            assert entered.wait(timeout=30)
            for i in range(24):
                path = f"/overlaps/{i}" if i % 2 else "/version"
                t0 = time.perf_counter()
                status, body = _get(f"{base_url}{path}")
                assert time.perf_counter() - t0 < 1.0
                assert (status, body["version"]) == (200, 1)
        finally:
            release.set()
            writer.join(timeout=60)
        assert not writer.is_alive()
    assert [(status, body["version"]) for status, body in replies] == [
        (200, 2)]


def test_no_thread_per_request(base_url, monkeypatch):
    _get(f"{base_url}/version")  # warm-up
    before = threading.active_count()
    started = []
    real_start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for _ in range(300):
        _get(f"{base_url}/version")
    assert started == []
    assert threading.active_count() == before


def test_server_close_stops_the_pool_despite_a_silent_client(service):
    """``server_close()`` returns promptly with a silent client connected,
    closes that client, and joins every thread the server started."""
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"

    def server_threads():
        return [t for t in threading.enumerate()
                if t.name.startswith(f"repro-http-{port}")]

    with socket.create_connection((host, port)) as silent:
        # An ingest starts the server's one ingest thread.
        assert _post(f"{base_url}/reads", {"reads": []})[1]["version"] == 1
        assert len(server_threads()) == 1
        server.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        t0 = time.perf_counter()
        server.server_close()
        assert time.perf_counter() - t0 < 2.0
        assert server_threads() == []
        assert _closed_by_server(silent)


@contextlib.contextmanager
def _counting_sends(port: int):
    """Record every write the server makes on its client sockets."""
    writes = []

    def counting(real):
        def counted(self, data, *args):
            if (self.family == socket.AF_INET
                    and self.getsockname()[1] == port):
                writes.append(bytes(data))
            return real(self, data, *args)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        for name in ("send", "sendall"):
            mp.setattr(socket.socket, name,
                       counting(getattr(socket.socket, name)))
        yield writes


def test_each_reply_is_one_write(service):
    with _serving(service) as base_url, \
            _counting_sends(_address(base_url)[1]) as writes:
        status, body = _get(f"{base_url}/version")
        assert status == 200
        assert len(writes) == 1
        head, payload = writes[0].split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nConnection: close" in head  # urllib asked for it
        assert json.loads(payload) == body

        status, body = _error(_get, f"{base_url}/nope")
        assert (status, len(writes)) == (404, 2)
        assert writes[1].endswith(json.dumps(body).encode())

        # HTTP/0.9 has no status line or headers: the body alone.
        with socket.create_connection(_address(base_url), timeout=10) as s:
            s.sendall(b"GET /version\r\n\r\n")
            reply = b"".join(iter(lambda: s.recv(65536), b""))
        assert json.loads(reply) == {"version": 0, "n_reads": 0}
        assert writes[2:] == [reply]


def test_keep_alive_gets_reuse_one_connection(base_url):
    # One write per reply, so no request waits on a delayed ACK: that
    # defect stalls every reply by about 40 ms, so the median GET shows it,
    # while a host scheduling hiccup on one GET does not fail the test.
    conn = http.client.HTTPConnection(*_address(base_url), timeout=10)
    try:
        sock, took = None, []
        for i in range(200):
            t0 = time.perf_counter()
            conn.request("GET", "/version" if i % 2 else "/contigs")
            reply = conn.getresponse()
            body = json.loads(reply.read())
            took.append(time.perf_counter() - t0)
            assert (reply.status, reply.version, body["version"]) == (
                200, 11, 0)
            assert sock in (None, conn.sock)
            sock = conn.sock
    finally:
        conn.close()
    assert float(np.median(took)) < 0.005


def _split_replies(data: bytes) -> list[tuple[int, dict]]:
    """(status, JSON body) of each reply in a stream of HTTP/1.1 replies."""
    replies = []
    while data:
        head, data = data.split(b"\r\n\r\n", 1)
        lines = head.decode().split("\r\n")
        length = next(int(line.split(":", 1)[1]) for line in lines
                      if line.lower().startswith("content-length:"))
        replies.append((int(lines[0].split()[1]), json.loads(data[:length])))
        data = data[length:]
    return replies


def test_pipelined_requests_are_answered_in_order(base_url):
    # The POST between the GETs runs on the ingest thread; the GET behind
    # it must still be answered after it, from the version it committed.
    post = b'{"reads": []}'
    reply = _raw_reply(base_url, (
        b"GET /version HTTP/1.1\r\nHost: t\r\n\r\n"
        b"POST /reads HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        str(len(post)).encode() + b"\r\n\r\n" + post +
        b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
        b"GET /version HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"))
    replies = _split_replies(reply)
    assert [(status, body.get("version", body.get("code")))
            for status, body in replies] == [
        (200, 0), (200, 1), (404, "not-found"), (200, 1)]


def test_reply_larger_than_the_send_buffer_arrives_whole(service,
                                                        monkeypatch):
    blob = "x" * (8 << 20)
    monkeypatch.setattr(service, "stats",
                        lambda: {"version": 0, "blob": blob})
    with _serving(service) as base_url, \
            _counting_sends(_address(base_url)[1]) as writes:
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        with slow:
            slow.connect(_address(base_url))
            slow.sendall(b"GET /stats HTTP/1.1\r\nHost: t\r\n"
                         b"Connection: close\r\n\r\n")
            # While this reader lags, the loop keeps answering others.
            time.sleep(0.2)
            assert _get(f"{base_url}/version")[1]["version"] == 0
            slow.settimeout(10)
            reply = b"".join(iter(lambda: slow.recv(1 << 20), b""))
        [(status, body)] = _split_replies(reply)
        assert (status, body["blob"] == blob) == (200, True)
        # One write for /version; the big reply's tail went out on
        # write-readiness, so it took more than one.
        assert len(writes) > 2


def test_concurrent_ingests_commit_in_turn_while_readers_are_served(
        service, server_reads, monkeypatch):
    entered, release = threading.Event(), threading.Event()
    real_refresh = server_mod.refresh

    def held_refresh(*args, **kwargs):
        entered.set()
        release.wait(timeout=60)
        return real_refresh(*args, **kwargs)

    third = len(server_reads) // 3
    with _serving(service) as base_url:
        _post(f"{base_url}/reads", _batch_payload(server_reads, 0, third))
        monkeypatch.setattr(server_mod, "refresh", held_refresh)
        replies = []
        writers = [threading.Thread(target=lambda lo=lo: replies.append(
            _post(f"{base_url}/reads",
                  _batch_payload(server_reads, lo, lo + third))[1]))
            for lo in (third, 2 * third)]
        for writer in writers:
            writer.start()
        try:
            assert entered.wait(timeout=30)
            time.sleep(0.2)  # let the second POST reach the server
            for _ in range(10):
                t0 = time.perf_counter()
                assert _get(f"{base_url}/version")[1]["version"] == 1
                assert time.perf_counter() - t0 < 1.0
        finally:
            release.set()
            for writer in writers:
                writer.join(timeout=60)
        assert not any(writer.is_alive() for writer in writers)
        assert sorted(body["version"] for body in replies) == [2, 3]
        assert sorted(body["ingested"] for body in replies) == [third, third]
        assert _get(f"{base_url}/version")[1] == {"version": 3,
                                                 "n_reads": 3 * third}
