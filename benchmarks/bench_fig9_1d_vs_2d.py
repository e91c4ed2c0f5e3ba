"""Fig. 9 — diBELLA 2D vs diBELLA 1D (Summit model, TR excluded).

Two views, because the driving effect is density-dependent:

1. **Measured, scaled datasets.**  Both pipelines execute on the simulated
   runtime.  At laptop scale the scaled genomes have near-ideal densities
   (c/2d ≈ 0.9 versus the paper's 19.7–60.4), so the 1D design's penalty —
   the ``cnl/P`` read exchange and ``a²m/P`` duplicated candidates — barely
   bites and the two implementations sit near parity.  The paper itself
   notes 1D wins on volume only beyond ``P > c²/4`` (Section V-C); with
   c ≈ 70 that crossover is ~1200 ranks, far above this sweep.
2. **Projected at paper scale.**  The Table I formulas evaluated with the
   paper's own dataset constants (n, l, c from Tables III–IV) at the
   paper's concurrencies on the Summit α–β model, with measured-order
   processing and alignment rates.  This reproduces the paper's reported
   bands: 1.5–1.9× (C. elegans) and 1.2–1.3× (H. sapiens).
"""

from repro.eval.experiments import fig9_1d_vs_2d, fig9_paper_scale_projection
from repro.eval.report import format_table

PROCS = (4, 16)


def test_fig9_measured_scaled(benchmark):
    def run():
        rows = []
        rows += fig9_1d_vs_2d("celegans_like", procs=PROCS)
        rows += fig9_1d_vs_2d("hsapiens_like", procs=PROCS)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        rows, columns=["dataset", "P", "dibella1d_seconds",
                       "dibella2d_seconds", "speedup_2d_over_1d"],
        title="Fig. 9 (measured, scaled datasets; comm negligible at this "
              "scale)"))
    for r in rows:
        # Floor only: the 2D pipeline must not collapse against the 1D
        # baseline at laptop scale.  There is no upper bound: these
        # seconds are compute-dominated, so the ratio measures how far the
        # 2D kernels have been optimized past the untuned 1D baseline
        # (every 2D kernel speed-up raises it), not the paper's claim —
        # which is a communication-volume crossover, checked at paper
        # scale by the projection below.
        assert r["speedup_2d_over_1d"] > 0.5, r
    # Both systems strong-scale.
    for ds in {r["dataset"] for r in rows}:
        series = sorted((r for r in rows if r["dataset"] == ds),
                        key=lambda r: r["P"])
        assert series[-1]["dibella1d_seconds"] < series[0]["dibella1d_seconds"]
        assert series[-1]["dibella2d_seconds"] < series[0]["dibella2d_seconds"]


def test_fig9_paper_scale_projection(benchmark):
    rows = benchmark.pedantic(lambda: fig9_paper_scale_projection(),
                              rounds=1, iterations=1)
    print()
    print(format_table(
        rows, columns=["dataset", "P", "dibella1d_seconds",
                       "dibella2d_seconds", "speedup_2d_over_1d"],
        title="Fig. 9 (projected at the paper's dataset constants and "
              "concurrencies)"))
    for r in rows:
        assert r["speedup_2d_over_1d"] > 1.1, r
    # Paper bands: C. elegans gap larger than H. sapiens gap.
    ce = [r["speedup_2d_over_1d"] for r in rows
          if r["dataset"] == "C. elegans"]
    hs = [r["speedup_2d_over_1d"] for r in rows
          if r["dataset"] == "H. sapiens"]
    assert min(ce) > max(hs) * 0.9
    assert 1.1 < min(hs) and max(ce) < 2.5
