"""Evaluation harness: scaled datasets, metrics and plain-text reporting.

The per-table/figure experiment drivers live in :mod:`repro.eval.experiments`
and are not imported here: they pull in every baseline, and a process that
only scores a run (the benchmark's workers) should not pay for them.  The
report helpers are re-exported lazily, so ``python -m repro.eval.report``
runs the module once, as ``__main__``.
"""

from .datasets import PRESETS, DatasetPreset, load_preset
from .metrics import (graph_edge_recall, overlap_recall_precision,
                      parallel_efficiency)
from .assembly_metrics import (contig_spans, genome_coverage, misjoin_count,
                               n50)

_REPORT = ("format_table", "format_value", "print_table")

__all__ = [
    "PRESETS", "DatasetPreset", "load_preset",
    "graph_edge_recall", "overlap_recall_precision", "parallel_efficiency",
    *_REPORT,
    "contig_spans", "genome_coverage", "misjoin_count", "n50",
]


def __getattr__(name):
    if name in _REPORT:
        from . import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
