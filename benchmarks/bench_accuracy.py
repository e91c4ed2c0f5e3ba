"""Accuracy evaluation — overlap recall/precision and layout quality.

The paper defers accuracy to the BELLA paper ("the accuracy of our tool for
CLR input is reported in the single node BELLA paper", Section VI).  With
simulated reads the ground truth is available, so this bench scores the
pipeline directly: recall/precision of the overlap graph against true
overlapping pairs, and contiguity/misjoin statistics of the final layout.
Expected shapes: recall > 0.9 on the dovetail-proper pairs, zero misjoins
on the contig walks.

The second test scores the sketched seeding modes (minimizer / syncmer,
``--seed-mode``) against the full-k oracle on the same reads — recall of
full-k's correctly-detected true overlaps, contig N50, genome coverage,
misjoins.  Two error regimes on purpose: at ``toy``'s 2% error,
true overlaps share long exact runs and sketching is nearly lossless; at
``ecoli_like``'s 13% CLR-style error, shared k-mers are scattered
singletons and sketching pays a real recall tax — the regime dependence
the seeding layer exists to expose (the error-free nnz(A)/recall floor is
tier-1, in ``tests/test_seeding.py``).
"""

import math

from repro.eval.experiments import accuracy_table, seed_mode_table
from repro.eval.report import format_table


def test_accuracy(benchmark):
    rows = benchmark.pedantic(
        lambda: accuracy_table(("toy", "ecoli_like")),
        rounds=1, iterations=1)
    print()
    print(format_table(
        rows,
        columns=["dataset", "recall", "precision", "contig_n50_bp",
                 "genome_coverage", "misjoins"],
        title="Accuracy: overlap detection + layout vs ground truth"))
    for r in rows:
        assert r["recall"] > 0.6       # dovetail-only graph vs all pairs
        assert r["precision"] > 0.7
        assert r["genome_coverage"] > 0.5


#: Per-dataset floor on sketched recall of full-k's true overlaps: near
#: lossless at 2% error, a real but bounded tax at 13% CLR error.
SEED_RECALL_FLOORS = {"toy": 0.9, "ecoli_like": 0.6}


def test_seed_mode_accuracy(benchmark):
    def run():
        return {name: seed_mode_table(name, seed_w=8)
                for name in SEED_RECALL_FLOORS}

    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, rows in tables.items():
        print()
        print(format_table(
            rows,
            columns=["seed_mode", "seed_w", "nnz_a", "nnz_c",
                     "recall_truth", "recall_vs_full", "contig_n50_bp",
                     "genome_coverage", "misjoins"],
            title=f"Seeding modes vs full-k oracle ({name}, w=8)"))

        by_mode = {r["seed_mode"]: r for r in rows}
        full = by_mode["full"]
        assert math.isclose(full["recall_vs_full"], 1.0)
        for mode in ("minimizer", "syncmer"):
            r = by_mode[mode]
            # Sketching must shrink the seed and candidate matrices...
            assert r["nnz_a"] < full["nnz_a"]
            assert r["nnz_c"] <= full["nnz_c"]
            # ...while keeping the oracle's true overlaps within the
            # regime's floor and the layout usable.
            assert r["recall_vs_full"] > SEED_RECALL_FLOORS[name]
            assert r["genome_coverage"] > 0.5
