"""Service configuration.

``refresh_mode`` (:data:`repro.options.REFRESH_MODE`) mirrors the pipeline's
``align_impl`` / ``kmer_impl`` / ``spgemm_impl`` switches: two
interchangeable engines with byte-identical output, one fast
(``incremental`` — fold the batch into the live state via delta products)
and one reference oracle (``recompute`` — rerun
:func:`~repro.core.pipeline.run_pipeline` from scratch on the concatenated
reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.pipeline import PipelineConfig

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one incremental assembly service instance.

    ``pipeline`` carries the full :class:`PipelineConfig` axis set (k,
    nprocs, engines, executor...); whatever ``overlap_mode`` it names, the
    service runs the monolithic candidate path — the incremental engine
    splices delta rows into the *monolithic* R and the blocked mode is a
    batch-memory optimization with no meaning for delta-sized products.
    ``cache_entries`` bounds the query cache's LRU capacity.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    refresh_mode: str = "auto"
    cache_entries: int = 256
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
