"""repro — reproduction of diBELLA 2D (IPDPS 2021).

Parallel string graph construction and transitive reduction for de novo
genome assembly, built on 2D distributed sparse matrices with custom
semirings over a simulated distributed-memory runtime.

Quick start::

    from repro import PipelineConfig, run_pipeline
    from repro.seqs import GenomeSpec, ReadSimSpec, simulate_reads

    genome, reads, layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=50_000, seed=0), depth=20))
    result = run_pipeline(reads, PipelineConfig(k=17, nprocs=4))
    print(result.string_graph, result.tr_rounds)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .core import (AlignmentFilter, Contig, PipelineConfig, PipelineResult,
                   STAGES, StringGraph, best_overlap_cleaning,
                   extract_contigs, run_pipeline,
                   run_pipeline_from_fasta, transitive_reduction,
                   write_layout)
from .mpisim import CORI_HASWELL, MACHINES, SUMMIT_CPU

__version__ = "1.0.0"

__all__ = [
    "AlignmentFilter", "Contig", "PipelineConfig", "PipelineResult",
    "STAGES", "StringGraph", "best_overlap_cleaning",
    "extract_contigs", "run_pipeline",
    "run_pipeline_from_fasta", "transitive_reduction", "write_layout",
    "CORI_HASWELL", "MACHINES", "SUMMIT_CPU",
    "__version__",
]
