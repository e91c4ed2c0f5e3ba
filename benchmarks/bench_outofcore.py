"""Out-of-core acceptance gate: bounded RSS under a memory budget.

The PR's contract, measured end to end in fresh interpreter processes:
with ``read_store="mmap"`` and a ``memory_budget`` several times smaller
than the dataset (read bases + k-mer table), the pipeline

* completes **byte-identically** to the in-memory run (S digest and the
  communication-tracker summary digest match), and
* keeps its peak RSS within ``budget + SLACK`` of an import-only python
  baseline — the bases live in page cache behind ``np.memmap``, spilled
  k-mer runs live on disk, and the candidate matrix is strip-mined.

Each measurement runs in a subprocess (``--child``) so ``ru_maxrss`` —
a high-water mark, unresettable within a process — reflects exactly one
configuration.  The slack covers the python/numpy runtime beyond the
baseline plus transient per-strip working arrays; override with
``REPRO_BENCH_OUTOFCORE_SLACK`` (bytes) on hosts with unusual allocators.

Results are merged into ``BENCH_pipeline.json`` under ``"outofcore"``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
JSON_PATH = REPO_ROOT / "BENCH_pipeline.json"

#: Dataset: ~2.9 MiB of bases + a k-mer table, several times the budget.
GENOME_LENGTH = 480_000
DEPTH = 6
MEAN_LEN = 2_000
ERROR_RATE = 0.02

BUDGET = 1 << 20  # 1 MiB

#: RSS allowance over the import-only baseline: interpreter growth from
#: the extra imports, numpy scratch, and per-superstep transients.
DEFAULT_SLACK = 256 << 20


def _slack() -> int:
    return int(os.environ.get("REPRO_BENCH_OUTOFCORE_SLACK", DEFAULT_SLACK))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # The child measures the *configured* store/budget path only.
    for var in ("REPRO_READ_STORE", "REPRO_OVERLAP_MODE"):
        env.pop(var, None)
    return env


def _run_child(mode: str, fasta: str, workdir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         fasta, workdir],
        capture_output=True, text=True, env=_child_env(), timeout=1800)
    assert proc.returncode == 0, \
        f"child {mode} failed:\n{proc.stdout}\n{proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


def _child_main(mode: str, fasta: str, workdir: str) -> None:
    import resource

    def rss() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    if mode == "baseline":
        # Import everything the measured children import, run nothing:
        # the RSS floor of the python + numpy + repro runtime itself.
        from repro.core.pipeline import (PipelineConfig,  # noqa: F401
                                         run_pipeline_from_fasta)
        print(json.dumps({"mode": mode, "peak_rss": rss()}))
        return

    from repro.core.pipeline import PipelineConfig, run_pipeline_from_fasta
    cfg = PipelineConfig(k=17, nprocs=4, align_mode="chain",
                         depth_hint=DEPTH, error_hint=ERROR_RATE, fuzz=30,
                         kmer_batches=8, kmer_upper=24,
                         seed_mode="syncmer", seed_w=8,
                         overlap_mode="blocked", memory_budget=BUDGET,
                         read_store=mode, store_dir=workdir)
    result = run_pipeline_from_fasta(fasta, cfg)
    h = hashlib.sha256()
    for arr in (result.S.row, result.S.col, result.S.vals):
        h.update(arr.tobytes())
    tracker = hashlib.sha256(json.dumps(
        result.tracker.summary(), sort_keys=True).encode()).hexdigest()
    print(json.dumps({
        "mode": mode, "peak_rss": rss(),
        "s_digest": h.hexdigest(), "tracker_digest": tracker,
        "n_reads": result.n_reads, "n_kmers": result.n_kmers,
        "nnz_s": result.nnz_s, "n_strips": result.n_strips,
        "read_store": result.config.read_store,
    }))


def test_outofcore_bounded_rss_and_identity(tmp_path):
    from repro.eval.report import format_table
    from repro.seqs import (ErrorModel, GenomeSpec, ReadSimSpec,
                            simulate_reads, write_fasta)

    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=GENOME_LENGTH, seed=17), depth=DEPTH,
                    mean_len=MEAN_LEN, min_len=800,
                    error=ErrorModel(rate=ERROR_RATE), seed=23))
    fasta = str(tmp_path / "reads.fa")
    write_fasta(fasta, reads)
    total_bases = int(reads.total_bases())

    baseline = _run_child("baseline", fasta, str(tmp_path / "b"))
    inmem = _run_child("inmem", fasta, str(tmp_path / "inmem"))
    mmap = _run_child("mmap", fasta, str(tmp_path / "mmap"))

    # The dataset genuinely exceeds the budget (bases alone, and again
    # with the 16-byte-per-entry k-mer pairs on top).
    dataset_bytes = total_bases + mmap["n_kmers"] * 16
    assert dataset_bytes > 3 * BUDGET, \
        f"dataset {dataset_bytes} B does not exceed budget {BUDGET} B"

    # Byte-identity across backends: same S, same communication record.
    assert mmap["s_digest"] == inmem["s_digest"]
    assert mmap["tracker_digest"] == inmem["tracker_digest"]
    assert mmap["read_store"] == "mmap" and inmem["read_store"] == "inmem"
    assert mmap["n_strips"] > 1  # the budget actually drove strip-mining

    # The RSS gate: the mmap run's growth over the import-only baseline
    # stays within budget + slack.
    delta = mmap["peak_rss"] - baseline["peak_rss"]
    limit = BUDGET + _slack()
    assert delta <= limit, \
        (f"mmap run RSS delta {delta >> 20} MiB exceeds budget+slack "
         f"{limit >> 20} MiB")

    rows = [{"run": m["mode"],
             "peak RSS (MiB)": f"{m['peak_rss'] >> 20}",
             "delta vs baseline (MiB)":
                 f"{(m['peak_rss'] - baseline['peak_rss']) >> 20}"}
            for m in (baseline, inmem, mmap)]
    print(format_table(rows, title=(
        f"Out-of-core pipeline RSS ({len(reads)} reads, "
        f"{total_bases >> 20} MiB bases, budget {BUDGET >> 20} MiB, "
        f"slack {_slack() >> 20} MiB)")))
    print(f"byte-identical S + tracker across backends: yes "
          f"({mmap['nnz_s']} string edges, {mmap['n_strips']} strips)")

    record = {
        "dataset": {"genome_length": GENOME_LENGTH, "depth": DEPTH,
                    "mean_len": MEAN_LEN, "error_rate": ERROR_RATE,
                    "n_reads": len(reads), "total_bases": total_bases,
                    "n_kmers": mmap["n_kmers"]},
        "budget_bytes": BUDGET,
        "slack_bytes": _slack(),
        "baseline_rss": baseline["peak_rss"],
        "inmem_rss": inmem["peak_rss"],
        "mmap_rss": mmap["peak_rss"],
        "mmap_rss_delta": delta,
        "identical": True,
        "n_strips": mmap["n_strips"],
    }
    data = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
    data["outofcore"] = record
    JSON_PATH.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        _child_main(sys.argv[2], sys.argv[3], sys.argv[4])
    else:  # pragma: no cover
        sys.exit("run via pytest, or --child <mode> <fasta> <workdir>")
