"""Pairwise alignment substrate: the batched structure-of-arrays x-drop
engine and overlap classification into bidirected string-graph edges."""

from .xdrop import Scoring
from .batch import (chain_extend_batch, extend_seeds_xdrop_batch,
                    xdrop_extend_batch)
from .overlapper import B_END, E_END, classify_overlap_batch

__all__ = [
    "Scoring",
    "xdrop_extend_batch", "extend_seeds_xdrop_batch", "chain_extend_batch",
    "B_END", "E_END", "classify_overlap_batch",
]
