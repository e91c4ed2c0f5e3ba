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
    """Alignment scoring scheme (defaults follow BELLA: 1/-1/-1, x=50).

    The greedy engines assume ``match >= 0 >= mismatch, gap`` and
    ``xdrop >= 0``: the furthest points dominate only then, and the batched
    sweep's early retirement bound needs it.  A scheme outside that domain
    raises :class:`ValueError` naming the field.
    """

    match: int = 1
    mismatch: int = -1
    gap: int = -1
    xdrop: int = 50

    def __post_init__(self) -> None:
        for name, ok in (("match", self.match >= 0),
                         ("mismatch", self.mismatch <= 0),
                         ("gap", self.gap <= 0),
                         ("xdrop", self.xdrop >= 0)):
            if not ok:
                raise ValueError(
                    f"Scoring.{name} = {getattr(self, name)} is outside the "
                    f"greedy x-drop domain (match >= 0 >= mismatch, gap; "
                    f"xdrop >= 0)")
