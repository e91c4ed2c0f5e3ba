"""One workload in one process, driven by the parent over stdin/stdout.

The parent (``run.py``) spawns this with a scrubbed environment and sends
one command per line; every reply is one JSON line.  Being a process per
workload makes ``ru_maxrss`` the workload's own and lets the parent time
set-up from the outside, interpreter start included.

    (start)  set-up + warm-up iteration -> {"event": "ready", ...}
    iter     one timed iteration        -> {"wall": s, "failed": n, ...}
    finish   re-score, read peak RSS    -> {"exact": {...}, "rss_mb": x}
    trace    the traced pass            -> {"layers": {...}, "spans": [...]}
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.core.pipeline import run_pipeline_from_fasta  # noqa: E402
from repro.seqs.fasta import write_fasta  # noqa: E402
from repro.service import (AssemblyState, ServiceConfig,  # noqa: E402
                           refresh)

import session  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from staged import run_staged  # noqa: E402
from workloads import (WORKLOADS, Outcome, dataset, digests,  # noqa: E402
                       permuted, pipeline_config, score)

#: Per-layer metrics only the service workload measures (0 elsewhere, so
#: every workload reports every declared name).
SVC_METRICS = ("svc.bootstrap_s", "svc.ingest.s", "svc.query.s",
               "svc.ingest_p50_ms", "svc.ingest_max_ms",
               "svc.refresh_p50_ms", "svc.ingest_share", "svc.query_p50_us",
               "svc.query_p99_us", "svc.query_hit_p50_us",
               "svc.query_miss_p50_us", "svc.cache_hit_ratio",
               "svc.cache_invalidations", "svc.http_errors")


class BatchRun:
    """``run_pipeline_from_fasta`` on the workload's FASTA, once per call."""

    def __init__(self, wl, seed: int, smoke: bool, scratch: str) -> None:
        reads, self.layout = dataset(wl, seed, smoke)
        self.cfg = pipeline_config(wl)
        self.fasta = os.path.join(scratch, f"{wl.name}.fa")
        write_fasta(self.fasta, reads)
        self.setup_layers: dict[str, float] = {}

    def iterate(self):
        t0 = time.perf_counter()
        result = run_pipeline_from_fasta(self.fasta, self.cfg)
        wall = time.perf_counter() - t0
        out = Outcome(S=result.S, R=result.R, tracker=result.tracker,
                      graph=result.string_graph, cp=result.stage_compute())
        return wall, 1, 0, out

    def traced(self, tracer: Tracer):
        staged = run_staged(self.cfg, tracer, fasta=self.fasta)
        return staged.wall, staged.outcome, staged.layers, []


class ServiceRun:
    """The scripted HTTP session against a fresh service per call."""

    def __init__(self, wl, seed: int, smoke: bool, scratch: str) -> None:
        reads, layout = dataset(wl, seed, smoke)
        self.config = ServiceConfig(refresh_mode="incremental",
                                    pipeline=pipeline_config(wl))
        self.script, order = session.make_script(reads, seed * 1000 + 3,
                                                 smoke)
        self.layout = permuted(layout, order)
        self.arrived = reads.subset(order)
        t0 = time.perf_counter()
        # Version 1: the bulk load every session starts from.
        self.snapshot = refresh(AssemblyState.initial(), self.script.bulk,
                                self.config)
        self.setup_layers = {"svc.bootstrap_s": time.perf_counter() - t0}

    def iterate(self):
        log = session.run_session(self.script, self.snapshot, self.config)
        return log.wall, log.attempted, log.failed, log.outcome

    def traced(self, tracer: Tracer):
        """A spanned session, then the from-scratch oracle on all reads."""
        with tracer.span("session") as root:
            log = session.run_session(self.script, self.snapshot,
                                      self.config, tracer)
        spans = [s for s in tracer.spans if s["id"] > root["id"]]
        oracle = run_staged(self.config.pipeline, tracer, reads=self.arrived)
        problems = []
        if digests(oracle.outcome) != digests(log.outcome):
            problems.append("final service state differs from the "
                            "from-scratch oracle (S/R/comm digests)")
        counts = log.state.counts
        for key, name in [("n_kmers", "kmer.n_reliable"),
                          ("nnz_a", "spmat.nnz_a"),
                          ("nnz_c", "spgemm.nnz_c"), ("nnz_r", "tr.nnz_r"),
                          ("nnz_s", "tr.nnz_s"), ("tr_rounds", "tr.rounds")]:
            if counts[key] != oracle.layers[name]:
                problems.append(f"service count {key}={counts[key]} but "
                                f"oracle {name}={oracle.layers[name]}")

        def ms(seq):
            return [1e3 * (s["end"] - s["start"]) for s in seq]
        ingests = [s for s in spans if s["name"] == "ingest"]
        queries = [s for s in spans if s["name"] == "query"]
        q_us = sorted(1e3 * v for v in ms(queries))
        own = self_times(spans + [root])
        lookups = log.cache["hits"] + log.cache["misses"]
        layers = dict(oracle.layers)
        layers["glue.s"] += own["session"]
        layers.update({
            "svc.ingest.s": own["ingest"],
            "svc.query.s": own["query"],
            "svc.ingest_p50_ms": statistics.median(ms(ingests)),
            "svc.ingest_max_ms": max(ms(ingests)),
            "svc.refresh_p50_ms": 1e3 * statistics.median(
                s["refresh_s"] for s in ingests),
            "svc.ingest_share": own["ingest"] / log.wall,
            "svc.query_p50_us": statistics.median(q_us),
            "svc.query_p99_us": q_us[int(0.99 * len(q_us))],
            "svc.query_hit_p50_us": 1e3 * statistics.median(
                ms([s for s in queries if s["hit"]])),
            "svc.query_miss_p50_us": 1e3 * statistics.median(
                ms([s for s in queries if not s["hit"]])),
            "svc.cache_hit_ratio": log.cache["hits"] / lookups,
            "svc.cache_invalidations": log.cache["invalidations"],
            "svc.http_errors": log.failed,
        })
        return log.wall, log.outcome, layers, problems


@contextmanager
def quiesced():
    """Collect garbage now and keep the collector out of the timed region."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()

    # Replies own fd 1; anything the library prints goes to stderr.
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(obj: dict) -> None:
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    wl = WORKLOADS[args.workload]
    run = (ServiceRun if wl.service else BatchRun)(wl, args.seed, args.smoke,
                                                   args.scratch)
    _wall, attempted, failed, last = run.iterate()
    reference = digests(last)
    exact = score(last, run.layout)
    reply({"event": "ready", "attempted": attempted, "failed": failed,
           "digests": reference, "exact": exact})

    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "iter":
            try:
                with quiesced():
                    wall, attempted, failed, last = run.iterate()
            except Exception:  # one failed operation; the run goes on
                traceback.print_exc()
                reply({"wall": None, "attempted": 1, "failed": 1,
                       "error": "iteration raised (traceback on stderr)"})
                continue
            error = None
            if digests(last) != reference:
                failed = max(failed, 1)
                error = "S/R/comm digests differ from the warm-up's"
            reply({"wall": wall, "attempted": attempted, "failed": failed,
                   "cp": last.cp, "error": error})
        elif cmd == "finish":
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            reply({"exact": score(last, run.layout), "rss_mb": rss_mb})
        elif cmd == "trace":
            tracer = Tracer(wl.name)
            with quiesced():
                wall, out, layers, problems = run.traced(tracer)
            if digests(out)["S"] != reference["S"]:
                problems.append("traced pass did not reproduce the untraced "
                                "run's S digest")
            layers = {**dict.fromkeys(SVC_METRICS, 0.0), **layers,
                      **run.setup_layers}
            reply({"wall": wall, "layers": layers, "problems": problems,
                   "spans": tracer.spans})
        else:
            raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    main()
