"""Pairwise alignment substrate: x-drop seed-and-extend (per-pair and
batched structure-of-arrays engines) and overlap classification into
bidirected string-graph edges."""

from .xdrop import (AlignmentResult, Scoring, chain_extend, seed_extend_align,
                    xdrop_extend)
from .batch import (chain_extend_batch, extend_seeds_xdrop_batch,
                    xdrop_extend_batch)
from .overlapper import (B_END, E_END, OverlapClass, classify_overlap,
                         classify_overlap_batch)

__all__ = [
    "AlignmentResult", "Scoring", "chain_extend", "seed_extend_align",
    "xdrop_extend",
    "xdrop_extend_batch", "extend_seeds_xdrop_batch", "chain_extend_batch",
    "B_END", "E_END", "OverlapClass", "classify_overlap",
    "classify_overlap_batch",
]
