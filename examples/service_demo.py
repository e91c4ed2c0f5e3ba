#!/usr/bin/env python
"""Drive the incremental assembly service end to end over HTTP.

Starts the JSON server on a free port, streams a simulated read set in as
one bulk load plus a few delta batches (the serving pattern the service
is built for), and queries it between ingests: version, a read's
overlaps, the contig layout, and the stats endpoint's cache counters —
which show the second identical query hitting the version-keyed cache
and every ingest sweeping the stale entries.

The pipeline's k-mer hints match the simulated reads (depth 10, no
errors), so the reliable band keeps their true k-mers as batches arrive
and the assembly improves with the data: the demo exits non-zero if the
last version has more contigs than the bulk load did.

Usage::

    python examples/service_demo.py
"""

import json
import sys
import threading
import urllib.request

import numpy as np

from repro.core.pipeline import PipelineConfig
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.dna import decode
from repro.service import AssemblyService, ServiceConfig, make_server


def _get(url: str) -> dict:
    with urllib.request.urlopen(url) as resp:
        return json.loads(resp.read())


def _post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


DEPTH, ERROR = 10, 0.0


def main() -> int:
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=30_000, seed=11), depth=DEPTH,
                    mean_len=1_500, min_len=700,
                    error=ErrorModel(rate=ERROR), seed=12))
    print(f"simulated {len(reads)} reads from a 30 kb genome")

    service = AssemblyService(ServiceConfig(
        pipeline=PipelineConfig(k=17, nprocs=4, depth_hint=DEPTH,
                                error_hint=ERROR)))
    server = make_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"serving on {base}\n")

    # One bulk load, then a stream of small delta batches.
    n = len(reads)
    splits = [0, int(0.7 * n), int(0.8 * n), int(0.9 * n), n]
    n_contigs = []
    for lo, hi in zip(splits[:-1], splits[1:]):
        sub = reads.subset(np.arange(lo, hi))
        reply = _post(f"{base}/reads", {"reads": [
            {"name": name, "seq": decode(seq)}
            for name, seq in zip(sub.names, sub.seqs)]})
        c = reply["counts"]
        n_contigs.append(len(_get(f"{base}/contigs")["contigs"]))
        print(f"v{reply['version']}: +{reply['ingested']} reads in "
              f"{reply['refresh_seconds']:.2f}s "
              f"-> {c['n_reads']} reads, nnz(R)={c['nnz_r']}, "
              f"{n_contigs[-1]} contigs")

    print()
    contigs = _get(f"{base}/contigs")["contigs"]
    print(f"largest contig spans {len(contigs[0]['reads'])} reads")

    probe = contigs[0]["reads"][1]  # an interior read has overlaps
    overlaps = _get(f"{base}/overlaps/{probe}")["overlaps"]
    print(f"read {probe} overlaps {len(overlaps)} reads; first: "
          f"{overlaps[0] if overlaps else None}")

    _get(f"{base}/contigs")  # identical query: served from the cache
    stats = _get(f"{base}/stats")
    print(f"comm totals: "
          f"{ {s: v['bytes'] for s, v in stats['comm'].items()} }")
    print(f"cache counters after a repeat query: {stats['cache']}")

    server.shutdown()
    server.server_close()
    if n_contigs[-1] > n_contigs[0]:
        print(f"FAIL: the assembly degraded as reads arrived: "
              f"{n_contigs[0]} contigs after the bulk load, "
              f"{n_contigs[-1]} after the last batch", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
