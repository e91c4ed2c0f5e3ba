"""Baselines the paper compares against: Myers' sequential transitive
reduction, SORA (Spark/GraphX) TR, and diBELLA 1D overlap detection."""

from .myers import myers_transitive_reduction
from .sora import SoraResult, SparkCostModel, sora_transitive_reduction
from .dibella1d import Dibella1DResult, run_dibella1d

__all__ = [
    "myers_transitive_reduction",
    "SoraResult", "SparkCostModel", "sora_transitive_reduction",
    "Dibella1DResult", "run_dibella1d",
]
