"""Seed-and-extend x-drop scoring.

diBELLA 2D runs a seed-and-extend alignment (SeqAn's x-drop) on every
candidate pair from ``C`` (paper Section IV-D): starting from a shared k-mer
seed, extend left and right and stop a direction once its running best
score drops more than ``x`` below the best seen.  The returned score and
coordinates feed the score threshold prune and, crucially, the
overhang/orientation computation of the transitive reduction.

:class:`Scoring` is the scheme every engine shares.  The runtime engine is
the batched sweep of :mod:`repro.align.batch` (with its alignment-free
*chain* estimate, minimap2's role, for the large benchmark runs); the
per-pair reference it is pinned against lives in
``tests/oracles/align_loop.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Scoring"]


@dataclass(frozen=True)
class Scoring:
    """Alignment scoring scheme (defaults follow BELLA: 1/-1/-1, x=50)."""

    match: int = 1
    mismatch: int = -1
    gap: int = -1
    xdrop: int = 50
