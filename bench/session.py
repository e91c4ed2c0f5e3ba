"""The ``service_stream`` workload: one scripted ingest+query session.

A closed loop of one client against ``make_server`` on loopback: every
delta ``POST /reads`` is followed by a block of ``GET``s, each sent only
after the previous reply arrived.  Setup bootstraps the bulk of the reads
once and keeps that immutable state; every session starts a fresh service
on it, so sessions are independent and their final states comparable.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.seqs.dna import decode
from repro.seqs.fasta import ReadSet
from repro.service import (AssemblyService, AssemblyState, ServiceConfig,
                           SessionStore, make_server)

from spans import Tracer
from workloads import Outcome

__all__ = ["Script", "make_script", "run_session", "SessionLog"]

BULK_FRACTION = 0.7
N_INGESTS = 8
GETS_PER_INGEST = 150
N_HOT_READS = 20


@dataclass
class Script:
    """The request sequence of one session (fixed by the seed)."""

    bulk: ReadSet
    posts: list[bytes]               # JSON bodies of the delta ingests
    gets: list[list[str]]            # GET paths following each ingest


@dataclass
class SessionLog:
    wall: float
    attempted: int
    failed: int
    outcome: Outcome
    state: AssemblyState
    cache: dict


def make_script(reads: ReadSet, seed: int, smoke: bool) -> tuple[Script,
                                                                 np.ndarray]:
    """Shuffle arrival order, split bulk/deltas, draw the query mix.

    Returns the script and the arrival order (service read ``i`` is
    simulator read ``order[i]``).  96% of GETs are ``/overlaps/<id>`` with
    half the ids drawn from ``N_HOT_READS`` hot reads (cache hits) and half
    uniform (mostly misses); 2% ``/contigs``; 2% ``/stats``.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(reads))
    arrived = reads.subset(order)
    n = len(arrived)
    n_bulk = int(round(BULK_FRACTION * n))
    cuts = np.linspace(n_bulk, n, N_INGESTS + 1).round().astype(int)
    n_gets = GETS_PER_INGEST // 10 if smoke else GETS_PER_INGEST
    posts, gets = [], []
    hot = rng.choice(n_bulk, size=min(N_HOT_READS, n_bulk), replace=False)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        batch = [{"name": arrived.names[i], "seq": decode(arrived.seqs[i])}
                 for i in range(lo, hi)]
        posts.append(json.dumps({"reads": batch}).encode())
        kind = rng.random(n_gets)
        use_hot = rng.random(n_gets) < 0.5
        ids = np.where(use_hot, rng.choice(hot, size=n_gets),
                       rng.integers(0, hi, size=n_gets))
        gets.append(["/contigs" if u < 0.02 else
                     "/stats" if u < 0.04 else f"/overlaps/{i}"
                     for u, i in zip(kind.tolist(), ids.tolist())])
    return Script(arrived.subset(np.arange(n_bulk)), posts, gets), order


def run_session(script: Script, snapshot: AssemblyState,
                config: ServiceConfig, tracer: Tracer | None = None
                ) -> SessionLog:
    """One session on a fresh service; ``tracer`` spans every request.

    A request fails on a non-200 status or a ``version`` below the last
    one seen.  The timed wall is first request sent to last reply read.
    """
    service = AssemblyService(config)
    service.store = SessionStore(snapshot)
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address
    attempted = failed = 0
    last_version = snapshot.version

    def request(method: str, path: str, body: bytes | None = None) -> dict:
        nonlocal attempted, failed, last_version
        attempted += 1
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"}
                         if body else {})
            reply = conn.getresponse()
            payload = json.loads(reply.read())
        finally:
            conn.close()
        version = payload.get("version", -1)
        if reply.status != 200 or version < last_version:
            failed += 1
        else:
            last_version = version
        return payload

    # Untraced sessions annotate a throwaway dict instead of a span.
    span = tracer.span if tracer else (lambda _name: nullcontext({}))
    try:
        t0 = time.perf_counter()
        for body, paths in zip(script.posts, script.gets):
            with span("ingest") as sp:
                sp["refresh_s"] = request("POST", "/reads",
                                          body).get("refresh_seconds")
            for path in paths:
                hits = service.cache.hits
                with span("query") as sp:
                    request("GET", path)
                sp["hit"] = service.cache.hits > hits
        wall = time.perf_counter() - t0
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    state = service.store.current()
    out = Outcome(S=state.S, R=state.R, tracker=state.tracker,
                  graph=state.graph, cp=state.timer.breakdown())
    return SessionLog(wall=wall, attempted=attempted, failed=failed,
                      outcome=out, state=state, cache=service.cache.stats())
