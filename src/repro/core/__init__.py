"""diBELLA 2D core: semirings, overlap detection, transitive reduction,
string graph, pipeline and contig extraction."""

from .semirings import (A_FLIP, A_NFIELDS, A_POS, BidirectedMinPlus, C_COUNT,
                        C_NFIELDS, C_PA1, C_PA2, C_PB1, C_PB2, C_STRAND1,
                        C_STRAND2, PositionsSemiring, R_END_I, R_END_J,
                        R_NFIELDS, R_OLEN, R_SUFFIX, n_slot)
from .memory import (DEFAULT_N_STRIPS, StripPlan, estimate_candidate_nnz,
                     format_bytes, parse_bytes, plan_strips)
from .string_graph import StringGraph
from .overlap import (AlignmentFilter, align_candidates, build_a_matrix,
                      candidate_overlaps, exchange_reads)
from .transitive_reduction import (TransitiveReductionResult,
                                   transitive_reduction)
from .pipeline import (STAGES, PipelineConfig, PipelineResult, run_pipeline,
                       run_pipeline_from_fasta)
from .contigs import (Contig, best_overlap_cleaning, extract_contigs,
                      write_layout)
from .blocked import BlockedOverlapResult, candidate_overlaps_blocked

__all__ = [
    "A_FLIP", "A_NFIELDS", "A_POS", "BidirectedMinPlus", "C_COUNT",
    "C_NFIELDS", "C_PA1", "C_PA2", "C_PB1", "C_PB2", "C_STRAND1",
    "C_STRAND2", "PositionsSemiring",
    "R_END_I", "R_END_J", "R_NFIELDS", "R_OLEN", "R_SUFFIX", "n_slot",
    "DEFAULT_N_STRIPS", "StripPlan",
    "estimate_candidate_nnz", "format_bytes", "parse_bytes", "plan_strips",
    "StringGraph",
    "AlignmentFilter", "align_candidates", "build_a_matrix",
    "candidate_overlaps", "exchange_reads",
    "TransitiveReductionResult", "transitive_reduction",
    "STAGES", "PipelineConfig", "PipelineResult", "run_pipeline",
    "run_pipeline_from_fasta",
    "Contig", "best_overlap_cleaning", "extract_contigs", "write_layout",
    "BlockedOverlapResult", "candidate_overlaps_blocked",
]
