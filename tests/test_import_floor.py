"""The resident floor: no repro process imports scipy's statistics package.

Importing it pulls in most of scipy (optimize, special, linalg, interpolate,
ndimage, spatial, ...): about 50 MB of resident memory and most of a second
of start-up in every process — the CLI, each service start, each benchmark
worker — which the only former use, one Poisson quantile per run, does not
need (:func:`repro.seqs.kmer_counter.reliable_upper_bound` computes it).
Nor does it load the paper-table drivers (``repro.eval.experiments``) or
the baselines they compare against: ``repro.eval`` is imported by every
process that scores a run, and only the report and the claims tests need
them.  Nor does it reach the test-only reference oracles under
``tests/oracles``, which the child can import (``tests`` is on its path) so
that a guarded import would show.

``scipy.sparse`` (about 22 MB resident and 0.1–0.2 s to import) is loaded
only by the one kernel the package takes from it, the pattern product's
``csr_matmat``, on its first call: a run whose SpGEMM forms no pattern
product (the x-drop and chain pipelines on noisy reads, where every block
stays on ESC) loads no scipy module at all, and the service's refresh,
which forms its affected pairs with that kernel, loads it then.

Each check runs in a fresh interpreter, because this test process may have
imported anything.  They need numpy, scipy and pytest only.
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
    oracles = sorted(m for m in sys.modules
                     if m.split(".")[0] == "oracles")
    print("test oracles loaded:", oracles)
    sys.exit(1 if stats or drivers or oracles else 0)
""")


LAZY_SPARSE = textwrap.dedent("""
    import sys

    import repro, repro.cli, repro.eval, repro.service
    from repro.core.pipeline import PipelineConfig, run_pipeline
    from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
    from repro.service import AssemblyState, ServiceConfig, refresh

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    _genome, reads, _layout = simulate_reads(ReadSimSpec(
        GenomeSpec(length=3_000, seed=1), depth=6, mean_len=500,
        min_len=300, error=ErrorModel(rate=0.12), seed=2))
    for mode in ("xdrop", "chain"):
        config = PipelineConfig(nprocs=4, align_mode=mode, depth_hint=6,
                                error_hint=0.12)
        result = run_pipeline(reads, config)
        paths = result.kernel_counts["SpGEMM"]
        print(mode, "SpGEMM paths:", paths, "nnz(S):", result.nnz_s)
        assert result.nnz_s and "masked_dot" not in paths, paths
    print("scipy modules after both runs:", scipy_modules())
    if scipy_modules():
        sys.exit(1)
    refresh(AssemblyState.initial(), reads, ServiceConfig(pipeline=config))
    print("scipy.sparse loaded by the refresh:", "scipy.sparse" in sys.modules)
    sys.exit(0 if "scipy.sparse" in sys.modules else 1)
""")


def _run_child(script: str) -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, here] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_no_process_loads_scipy_stats():
    _run_child(CHILD)


def test_scipy_sparse_loads_on_the_first_pattern_product():
    _run_child(LAZY_SPARSE)
