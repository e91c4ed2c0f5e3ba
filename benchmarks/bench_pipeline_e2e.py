"""End-to-end pipeline wall-clock: serial vs. parallel executors.

PR 1 made the local kernels fast; this benchmark starts the *wall-clock*
trajectory for the whole pipeline by measuring ``run_pipeline`` end to end
under the repro.exec engine: the serial reference against thread and
process pools with ``--workers 4``, on the default simulated CLR dataset in
x-drop mode (the alignment-dominated regime the paper's Figs. 5–8 show).

Beyond the timing table, it asserts the executor contract — every parallel
run must be byte-identical to serial — and writes ``BENCH_pipeline.json``
at the repo root so the perf trajectory is machine-readable across PRs.

It also records the **memory trajectory**: the per-stage live-matrix peaks
of the monolithic run against the blocked (strip-mined) overlap mode at
``N_STRIPS`` strips, gating that the candidate-matrix high-water mark drops
at least ``MIN_MEMORY_REDUCTION``-fold while S stays byte-identical — the
paper's Section VIII memory-reduction plan, measured end to end.

Acceptance gate: with ≥ 4 usable cores, the best parallel run must be
≥ 2× faster than serial.  Hosts without that parallelism (CI containers
pinned to one core) still record results; the determinism assertions hold
everywhere.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.eval.report import format_table
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_pipeline.json"

#: The default simulated dataset: quickstart's genome at benchmark scale.
GENOME_LENGTH = 12_000
DEPTH = 12
ERROR_RATE = 0.05

WORKERS = 4
RUNS = [("serial", 1), ("thread", WORKERS), ("process", WORKERS)]

#: Strip count for the blocked-mode memory run, and the factor by which it
#: must cut the candidate-matrix peak (the PR's acceptance gate).
N_STRIPS = 4
MIN_MEMORY_REDUCTION = 3.0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _dataset():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=GENOME_LENGTH, seed=42),
                    depth=DEPTH, mean_len=800, min_len=400,
                    error=ErrorModel(rate=ERROR_RATE), seed=1))
    return reads


def _config(executor: str, workers: int, **kw) -> PipelineConfig:
    # Pin the mode so the monolithic-vs-blocked memory comparison stays
    # meaningful even when REPRO_OVERLAP_MODE forces blocked elsewhere.
    kw.setdefault("overlap_mode", "monolithic")
    return PipelineConfig(k=17, nprocs=4, align_mode="xdrop",
                          depth_hint=DEPTH, error_hint=ERROR_RATE,
                          executor=executor, workers=workers, **kw)


def test_pipeline_e2e_speedup(benchmark):
    reads = _dataset()
    cpus = _usable_cpus()

    def run():
        results, walls = {}, {}
        for executor, workers in RUNS:
            t0 = time.perf_counter()
            results[executor] = run_pipeline(reads,
                                             _config(executor, workers))
            walls[executor] = time.perf_counter() - t0
        t0 = time.perf_counter()
        results["blocked"] = run_pipeline(
            reads, _config("serial", 1, overlap_mode="blocked",
                           n_strips=N_STRIPS))
        walls["blocked"] = time.perf_counter() - t0
        return results, walls

    results, walls = benchmark.pedantic(run, rounds=1, iterations=1)

    ref = results["serial"]
    rows = []
    record = {
        "bench": "pipeline_e2e",
        "dataset": {"genome_length": GENOME_LENGTH, "depth": DEPTH,
                    "error_rate": ERROR_RATE, "n_reads": len(reads),
                    "align_mode": "xdrop", "align_impl": ref.config.align_impl,
                    "nprocs": 4},
        "host_cpus": cpus,
        "workers": WORKERS,
        "runs": [],
    }
    for executor, workers in RUNS:
        res = results[executor]
        identical = (np.array_equal(res.S.row, ref.S.row) and
                     np.array_equal(res.S.col, ref.S.col) and
                     np.array_equal(res.S.vals, ref.S.vals) and
                     res.tracker.summary() == ref.tracker.summary())
        assert identical, f"{executor} output diverged from serial"
        speedup = walls["serial"] / walls[executor]
        rows.append({"executor/workers": f"{executor}/{workers}",
                     "wall (s)": f"{walls[executor]:.2f}",
                     "speedup": f"{speedup:.2f}x",
                     "byte-identical": "yes"})
        record["runs"].append({
            "executor": executor, "workers": workers,
            "wall_seconds": round(walls[executor], 4),
            "speedup_vs_serial": round(speedup, 3),
            "identical_to_serial": True,
        })

    print(format_table(rows, title=(
        f"End-to-end pipeline wall-clock ({len(reads)} reads, x-drop, "
        f"{cpus} usable cores)")))

    best = max(r["speedup_vs_serial"] for r in record["runs"][1:])
    record["best_parallel_speedup"] = best

    # -- memory trajectory: monolithic vs. blocked at N_STRIPS strips ------
    blk = results["blocked"]
    assert (np.array_equal(blk.S.row, ref.S.row) and
            np.array_equal(blk.S.col, ref.S.col) and
            np.array_equal(blk.S.vals, ref.S.vals)), \
        "blocked mode output diverged from monolithic"
    mono_peak = ref.peak_candidate_bytes
    blk_peak = blk.peak_candidate_bytes
    reduction = mono_peak / max(1, blk_peak)
    record["memory"] = {
        "monolithic_peak_bytes_per_stage": ref.peak_bytes,
        "blocked_peak_bytes_per_stage": blk.peak_bytes,
        "monolithic_peak_candidate_bytes": mono_peak,
        "blocked_n_strips": N_STRIPS,
        "blocked_peak_candidate_bytes": blk_peak,
        "blocked_wall_seconds": round(walls["blocked"], 4),
        "candidate_memory_reduction": round(reduction, 3),
        "blocked_identical_to_monolithic": True,
    }
    print(f"peak candidate memory: monolithic {mono_peak:,} B, blocked "
          f"({N_STRIPS} strips) {blk_peak:,} B -> {reduction:.2f}x lower")
    assert reduction >= MIN_MEMORY_REDUCTION, (
        f"expected >= {MIN_MEMORY_REDUCTION}x lower candidate-memory peak "
        f"at {N_STRIPS} strips, measured {reduction:.2f}x")

    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {JSON_PATH.name} (best parallel speedup {best:.2f}x)")

    # Gate only where the hardware can deliver; REPRO_BENCH_MIN_SPEEDUP
    # overrides the threshold ("0" records without gating — e.g. noisy
    # shared runners).
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))
    if cpus >= WORKERS and min_speedup > 0.0:
        assert best >= min_speedup, (
            f"expected >= {min_speedup}x end-to-end speedup with {WORKERS} "
            f"workers on {cpus} cores, measured {best:.2f}x")
