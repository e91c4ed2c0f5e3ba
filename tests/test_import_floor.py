"""The resident floor: no repro process imports scipy's statistics package.

Importing it pulls in most of scipy (optimize, special, linalg, interpolate,
ndimage, spatial, ...): about 50 MB of resident memory and most of a second
of start-up in every process — the CLI, each service start, each benchmark
worker — which the only former use, one Poisson quantile per run, does not
need (:func:`repro.seqs.kmer_counter.reliable_upper_bound` computes it).
Nor does it load the paper-table drivers (``repro.eval.experiments``) or
the baselines they compare against: ``repro.eval`` is imported by every
process that scores a run, and only the report and the claims tests need
them.  The check runs in a fresh interpreter, because this test process may
have imported anything.  It needs numpy, scipy and pytest only.
"""

import os
import subprocess
import sys
import textwrap

CHILD = textwrap.dedent("""
    import sys

    import repro, repro.cli, repro.eval, repro.service
    from repro.core.pipeline import PipelineConfig, run_pipeline
    from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
    from repro.service import AssemblyState, ServiceConfig, refresh

    _genome, reads, _layout = simulate_reads(ReadSimSpec(
        GenomeSpec(length=3_000, seed=1), depth=6, mean_len=500,
        min_len=300, error=ErrorModel(rate=0.0), seed=2))
    config = PipelineConfig(nprocs=4, depth_hint=6, error_hint=0.0)
    run_pipeline(reads, config)
    refresh(AssemblyState.initial(), reads, ServiceConfig(pipeline=config))
    print("scipy subpackages loaded:", sorted(
        {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}))
    stats = sorted(m for m in sys.modules
                   if m == "scipy.stats" or m.startswith("scipy.stats."))
    print("scipy.stats modules loaded:", stats)
    drivers = sorted(m for m in sys.modules
                     if m == "repro.eval.experiments"
                     or m.split(".")[:2] == ["repro", "baselines"])
    print("experiment drivers and baselines loaded:", drivers)
    sys.exit(1 if stats or drivers else 0)
""")


def test_no_process_loads_scipy_stats():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
