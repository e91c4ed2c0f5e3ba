"""CountKmer + CreateSpMat wall-clock: dict-loop oracle vs histogram engine.

With the alignment stage batched (PR 4), the k-mer stages became the
dominant serial cost: the loop engine dispatches one ``read_kmers`` call
per read, folds every admitted key through a Python ``dict``, and scans
reads one by one when building A.  The batch engine runs each rank's
extraction, per-round histograms, selection, and A scan as whole-array
column operations over the ReadSet's structure-of-arrays view.

This micro-benchmark isolates those two stages on a read-count-heavy
dataset (many short reads — the shape that stresses per-read dispatch,
which is exactly what the batch engine vectorizes away), times
``count_kmers`` + ``build_a_matrix`` under both engines, asserts the
byte-identity contract (table, counts, and the full A matrix), and writes
``BENCH_kmer.json`` at the repo root for the cross-PR perf record.

Acceptance gate: the batch engine must be ≥ ``MIN_KMER_SPEEDUP``× faster
serially (best-of-``ROUNDS`` per engine, one core, so the gate holds on
any host); ``REPRO_BENCH_MIN_KMER_SPEEDUP`` overrides the threshold
(``0`` records without gating).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.overlap import build_a_matrix
from repro.eval.report import format_table
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.kmer_counter import count_kmers, reliable_upper_bound

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_kmer.json"

#: Read-count-heavy dataset: deep coverage of short fragments maximizes the
#: per-read / per-key dispatch the loop engine pays and the batch engine
#: amortizes.  (The e2e bench keeps the paper-like long-read shape.)
GENOME_LENGTH = 100_000
DEPTH = 35
MEAN_LEN = 150
MIN_LEN = 75
ERROR_RATE = 0.10
K = 17
NPROCS = 4

#: Timed rounds per engine (best-of to shed scheduler noise).
ROUNDS = 2

#: The PR's acceptance gate: batch vs loop, serial, 1 core.
MIN_KMER_SPEEDUP = 3.0


def _dataset():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=GENOME_LENGTH, seed=42),
                    depth=DEPTH, mean_len=MEAN_LEN, min_len=MIN_LEN,
                    error=ErrorModel(rate=ERROR_RATE), seed=1))
    reads.soa()  # build the SoA cache outside the timed region
    return reads


def _run_stages(reads, impl):
    comm = SimComm(NPROCS, CommTracker(NPROCS))
    timer = StageTimer()
    t0 = time.perf_counter()
    table = count_kmers(reads, K, comm, timer,
                        upper=reliable_upper_bound(DEPTH, ERROR_RATE, K),
                        impl=impl)
    t_count = time.perf_counter()
    A = build_a_matrix(reads, table, ProcessGrid2D(NPROCS), comm, timer,
                       impl=impl)
    t_a = time.perf_counter()
    return (t_count - t0, t_a - t_count), table, A.to_global()


def test_kmer_batch_speedup(benchmark):
    reads = _dataset()

    def run():
        walls: dict[str, tuple[float, float]] = {}
        results: dict[str, tuple] = {}
        for r in range(ROUNDS):
            for impl in ("loop", "batch"):
                secs, table, g = _run_stages(reads, impl)
                prev = walls.get(impl)
                if prev is None or sum(secs) < sum(prev):
                    walls[impl] = secs
                results[impl] = (table, g)
        return walls, results

    walls, results = benchmark.pedantic(run, rounds=1, iterations=1)

    table_l, g_l = results["loop"]
    table_b, g_b = results["batch"]
    identical = (np.array_equal(table_l.kmers, table_b.kmers) and
                 np.array_equal(table_l.counts, table_b.counts) and
                 np.array_equal(g_l.row, g_b.row) and
                 np.array_equal(g_l.col, g_b.col) and
                 np.array_equal(g_l.vals, g_b.vals))
    assert identical, "batch k-mer engine diverged from the loop oracle"

    total = {impl: sum(walls[impl]) for impl in ("loop", "batch")}
    speedup = total["loop"] / max(total["batch"], 1e-9)
    rows = [{
        "stage": stage,
        "loop (s)": f"{walls['loop'][i]:.2f}",
        "batch (s)": f"{walls['batch'][i]:.2f}",
        "speedup": f"{walls['loop'][i] / max(walls['batch'][i], 1e-9):.2f}x",
    } for i, stage in enumerate(("CountKmer", "CreateSpMat"))]
    rows.append({"stage": "total", "loop (s)": f"{total['loop']:.2f}",
                 "batch (s)": f"{total['batch']:.2f}",
                 "speedup": f"{speedup:.2f}x"})
    print(format_table(rows, title=(
        f"K-mer stages: loop vs batch engine ({len(reads)} reads, "
        f"{len(table_b)} reliable k-mers, nnz(A)={g_b.nnz}, serial)")))

    record = {
        "bench": "kmer_batch",
        "dataset": {"genome_length": GENOME_LENGTH, "depth": DEPTH,
                    "mean_len": MEAN_LEN, "min_len": MIN_LEN,
                    "error_rate": ERROR_RATE, "n_reads": len(reads),
                    "k": K, "nprocs": NPROCS,
                    "n_kmers": len(table_b), "nnz_a": int(g_b.nnz)},
        "count_kmers": {"loop_seconds": round(walls["loop"][0], 4),
                        "batch_seconds": round(walls["batch"][0], 4)},
        "create_spmat": {"loop_seconds": round(walls["loop"][1], 4),
                         "batch_seconds": round(walls["batch"][1], 4)},
        "total": {"loop_seconds": round(total["loop"], 4),
                  "batch_seconds": round(total["batch"], 4),
                  "speedup": round(speedup, 3)},
        "identical_to_loop": True,
    }
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {JSON_PATH.name} (CountKmer+CreateSpMat speedup "
          f"{speedup:.2f}x)")

    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_KMER_SPEEDUP",
                                       str(MIN_KMER_SPEEDUP)))
    if min_speedup > 0.0:
        assert speedup >= min_speedup, (
            f"expected >= {min_speedup}x CountKmer+CreateSpMat speedup "
            f"(batch vs loop, serial), measured {speedup:.2f}x")
