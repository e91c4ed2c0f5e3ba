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

Nor does any process import the ``scipy.sparse`` package (about 22 MB
resident and 0.1–0.2 s).  The one kernel the package takes from scipy, the
pattern product's ``csr_matmat``, is loaded on its first call from its
extension file alone (about 0.2 MB and 1 ms), and ``sys.modules`` is left
as it was: a run whose SpGEMM forms no pattern product (the x-drop and
chain pipelines on noisy reads, where every block stays on ESC) leaves the
kernel unbound, and a clean, deep run on the dot route and a service
refresh bind it, all without a ``scipy`` module in ``sys.modules``.  A
later ``import scipy.sparse`` still works and shares the kernel, and a
package imported first is reused, not loaded twice.

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


NO_SCIPY_MODULE = textwrap.dedent("""
    import sys

    import repro, repro.cli, repro.eval, repro.service
    from repro.core.pipeline import PipelineConfig, run_pipeline
    from repro.dsparse import masked
    from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
    from repro.service import AssemblyState, ServiceConfig, refresh

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    def reads_at(depth, error):
        return simulate_reads(ReadSimSpec(
            GenomeSpec(length=3_000, seed=1), depth=depth, mean_len=500,
            min_len=300, error=ErrorModel(rate=error), seed=2))[1]

    noisy = reads_at(6, 0.12)
    for mode in ("xdrop", "chain"):
        config = PipelineConfig(nprocs=4, align_mode=mode, depth_hint=6,
                                error_hint=0.12)
        result = run_pipeline(noisy, config)
        paths = result.kernel_counts["SpGEMM"]
        print(mode, "SpGEMM paths:", paths, "nnz(S):", result.nnz_s)
        assert result.nnz_s and "masked_dot" not in paths, paths
    print("after both runs: kernel", masked._csr_matmat,
          "scipy modules", scipy_modules())
    assert masked._csr_matmat is None and not scipy_modules()
    clean = reads_at(12, 0.0)
    config = PipelineConfig(nprocs=4, depth_hint=12, error_hint=0.0)
    result = run_pipeline(clean, config)
    paths = result.kernel_counts["SpGEMM"]
    print("clean, deep SpGEMM paths:", paths, "nnz(S):", result.nnz_s)
    assert result.nnz_s and "masked_dot" in paths, paths
    refresh(AssemblyState.initial(), clean, ServiceConfig(pipeline=config))
    print("after the dot route and a refresh: kernel", masked._csr_matmat,
          "scipy modules", scipy_modules())
    assert masked._csr_matmat is not None and not scipy_modules()
""")


PRODUCT_THEN_PACKAGE = textwrap.dedent("""
    import sys

    from repro.dsparse import masked
    from repro.dsparse.coomat import CooMat

    pair = CooMat((2, 3), [0, 1], [0, 0], [[1], [1]])
    product = masked._pattern_product(pair, pair.T)
    assert product.vals.tolist() == [[1], [1], [1], [1]]
    assert "scipy.sparse._sparsetools" not in sys.modules
    import numpy as np
    import scipy.sparse as sp
    assert sp._sparsetools.csr_matmat is masked._csr_matmat
    a = sp.csr_matrix(np.array([[1, 0, 2], [0, 3, 0]]))
    assert (a @ a.T).toarray().tolist() == [[5, 0], [0, 9]]
""")


PACKAGE_THEN_PRODUCT = textwrap.dedent("""
    import importlib.util
    import sys

    import scipy.sparse as sp
    from repro.dsparse import masked
    from repro.dsparse.coomat import CooMat

    loaded = sys.modules["scipy.sparse._sparsetools"]
    specs = []
    real = importlib.util.spec_from_file_location
    importlib.util.spec_from_file_location = (
        lambda *args, **kw: specs.append(args) or real(*args, **kw))
    pair = CooMat((2, 3), [0, 1], [0, 0], [[1], [1]])
    product = masked._pattern_product(pair, pair.T)
    assert product.vals.tolist() == [[1], [1], [1], [1]]
    assert specs == [], specs
    assert sys.modules["scipy.sparse._sparsetools"] is loaded
    assert masked._csr_matmat is loaded.csr_matmat
    assert sp._sparsetools is loaded
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


def test_pattern_product_loads_no_scipy_module():
    _run_child(NO_SCIPY_MODULE)


def test_pattern_product_coexists_with_scipy_sparse():
    """Either order of the pattern product's kernel and ``import
    scipy.sparse`` leaves one extension, bound on the package."""
    _run_child(PRODUCT_THEN_PACKAGE)
    _run_child(PACKAGE_THEN_PRODUCT)
