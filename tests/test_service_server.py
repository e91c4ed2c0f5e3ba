"""HTTP layer: endpoints, cache behaviour, ingest → version bump."""

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.dna import decode
from repro.service import AssemblyService, ServiceConfig, make_server

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


@pytest.fixture()
def base_url(service):
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(url: str):
    with urllib.request.urlopen(url) as resp:
        return resp.status, json.loads(resp.read())


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req) as resp:
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


def test_error_paths(base_url):
    with pytest.raises(urllib.error.HTTPError) as e:
        _get(f"{base_url}/nope")
    assert e.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as e:
        _get(f"{base_url}/overlaps/banana")
    assert e.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as e:
        _post(f"{base_url}/reads", {"reads": [{"name": "x"}]})  # no seq
    assert e.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as e:
        _post(f"{base_url}/nope", {})
    assert e.value.code == 404


def test_overlaps_unknown_read_is_empty(base_url, server_reads):
    _post(f"{base_url}/reads", _batch_payload(server_reads, 0, 20))
    for read in (999999, -1):
        status, body = _get(f"{base_url}/overlaps/{read}")
        assert status == 200
        assert body["overlaps"] == []


def _raw_request(base_url: str, request: bytes):
    """Send raw bytes over a socket; parse the status + JSON body back.

    Drives malformations urllib cannot produce (missing or lying
    Content-Length headers, truncated bodies)."""
    host, port = base_url[len("http://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as s:
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
