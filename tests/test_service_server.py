"""HTTP layer: endpoints, cache behaviour, ingest → version bump, and the
handler pool (bounded threads, read timeout, readers beside a writer)."""

import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.dna import decode
from repro.service import AssemblyService, ServiceConfig, make_server
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
        refresh_mode="incremental",
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
    assert body["refresh_mode"] == "recompute"  # bootstrap from empty

    status, body = _post(f"{base_url}/reads",
                         _batch_payload(server_reads, half,
                                        len(server_reads)))
    assert status == 200
    assert body["version"] == 2
    assert body["refresh_mode"] == "incremental"

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


def test_overlaps_unknown_read_is_empty(base_url, server_reads):
    _post(f"{base_url}/reads", _batch_payload(server_reads, 0, 20))
    for read in (999999, -1):
        status, body = _get(f"{base_url}/overlaps/{read}")
        assert status == 200
        assert body["overlaps"] == []


def _address(base_url: str) -> tuple[str, int]:
    host, port = base_url[len("http://"):].rsplit(":", 1)
    return host, int(port)


def _raw_request(base_url: str, request: bytes):
    """Send raw bytes over a socket; parse the status + JSON body back.

    Drives malformations urllib cannot produce (missing or lying
    Content-Length headers, truncated bodies)."""
    with socket.create_connection(_address(base_url), timeout=10) as s:
        s.sendall(request)
        s.shutdown(socket.SHUT_WR)
        resp = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            resp += chunk
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


def test_malformed_posts_leave_version_untouched(base_url):
    _raw_request(base_url, b"POST /reads HTTP/1.1\r\nHost: t\r\n"
                           b"Content-Length: 500\r\n\r\n{\"reads\": [")
    status, body = _get(f"{base_url}/version")
    assert status == 200
    assert body["version"] == 0


# -- the handler pool ---------------------------------------------------------

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
        # More silent connections than the pool has threads, plus a POST
        # whose body stops short of its Content-Length and stays open.
        stalled = [stack.enter_context(socket.create_connection(addr))
                   for _ in range(server_mod.POOL_THREADS + 2)]
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
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"
    pool = [t for t in threading.enumerate()
            if t.name.startswith(f"repro-http-{port}-")]
    assert len(pool) == server_mod.POOL_THREADS
    with socket.create_connection((host, port)) as silent:
        assert _get(f"{base_url}/version")[0] == 200
        server.shutdown()
        thread.join(timeout=5)
        t0 = time.perf_counter()
        server.server_close()
        assert time.perf_counter() - t0 < 2.0
        assert not any(t.is_alive() for t in pool)  # joined by the close
        assert _closed_by_server(silent)


def test_each_reply_is_one_write(service, monkeypatch):
    writes = []
    real_setup = server_mod._Handler.setup

    def counting_setup(self):
        real_setup(self)
        write = self.wfile.write

        def counted(data):
            writes.append(bytes(data))
            return write(data)
        self.wfile.write = counted

    monkeypatch.setattr(server_mod._Handler, "setup", counting_setup)
    with _serving(service) as base_url:
        status, body = _get(f"{base_url}/version")
        assert status == 200
        assert len(writes) == 1
        head, payload = writes[0].split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.0 200 OK\r\n")
        assert json.loads(payload) == body

        status, body = _error(_get, f"{base_url}/nope")
        assert (status, len(writes)) == (404, 2)
        assert writes[1].endswith(json.dumps(body).encode())

        # HTTP/0.9 has no status line or headers: the body alone.
        with socket.create_connection(_address(base_url), timeout=10) as s:
            s.sendall(b"GET /version\r\n\r\n")
            reply = b"".join(iter(lambda: s.recv(65536), b""))
        assert json.loads(reply) == {"version": 0, "n_reads": 0}
