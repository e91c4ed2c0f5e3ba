#!/usr/bin/env python
"""Strong-scaling study on the simulated runtime (the Fig. 4 workflow).

Runs the pipeline at increasing process-grid sizes on one dataset and prints
the modeled runtimes, parallel efficiencies, and the measured per-rank
communication volumes that drive them — the workflow behind the paper's
Fig. 4 and Table I, at laptop scale.

Usage::

    python examples/scaling_study.py [preset] [P1,P2,...] [--workers N]

e.g. ``python examples/scaling_study.py ecoli_like 1,4,16 --workers 4``.
The modeled times study the *simulated* machine scaling; ``--workers``
additionally spreads each run's real compute over host cores (identical
results, measured wall-clock printed per run).
"""

import argparse
import sys
import time

from repro import CORI_HASWELL, SUMMIT_CPU, PipelineConfig, run_pipeline
from repro.eval import load_preset, parallel_efficiency
from repro.options import add_flags


def main(argv: list[str]) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("preset", nargs="?", default="toy")
    ap.add_argument("procs", nargs="?", default="1,4,16",
                    help="comma-separated simulated process counts")
    ap.add_argument("--align-mode", choices=("xdrop", "chain"),
                    default="chain",
                    help="'xdrop' runs real banded alignments per candidate "
                         "pair via the batched engine")
    add_flags(ap)  # --workers, --kmer-impl, ...: the README "Options" table
    args = ap.parse_args(argv[1:])
    preset_name = args.preset
    procs = [int(x) for x in args.procs.split(",")]

    preset, _genome, reads, _layout = load_preset(preset_name)
    print(f"Dataset {preset.name}: {len(reads)} reads, depth {preset.depth}")

    results = []
    for P in procs:
        cfg = PipelineConfig.from_args(args, k=17, nprocs=P,
                                       depth_hint=preset.depth,
                                       error_hint=preset.error_rate)
        t0 = time.perf_counter()
        results.append(run_pipeline(reads, cfg))
        print(f"  ran P={P} (wall {time.perf_counter() - t0:.2f} s, "
              f"workers={results[-1].config.workers})")

    for machine in (CORI_HASWELL, SUMMIT_CPU):
        times = [r.modeled_total(machine) for r in results]
        effs = parallel_efficiency(procs, times)
        print(f"\n{machine.name}:")
        print(f"  {'P':>4s} {'seconds':>10s} {'efficiency':>10s}")
        for P, t, e in zip(procs, times, effs):
            print(f"  {P:4d} {t:10.3f} {e:10.2%}")

    print("\nMeasured per-rank communication (words, largest P):")
    last = results[-1]
    for stage in ("CountKmer", "SpGEMM", "ExchangeRead", "TrReduction"):
        w = last.tracker.words(stage)
        y = last.tracker.messages(stage)
        print(f"  {stage:13s} W = {w:12.0f} words   Y = {y:6.0f} messages")


if __name__ == "__main__":
    main(sys.argv)
