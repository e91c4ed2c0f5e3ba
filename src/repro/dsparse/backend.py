"""The ``backend`` option axis: validated, and otherwise unused.

SUMMA calls its local kernels directly (:mod:`repro.dsparse.summa`).  The
axis still accepts ``numpy``, ``scipy`` and ``auto`` until it goes; none
of them selects anything.
"""

from __future__ import annotations

from ..options import BACKEND

__all__ = ["get_backend"]


def get_backend(name: str | None = None) -> str:
    """The resolved ``backend`` name: the default for ``None``, a named
    ``ValueError`` for an unknown one (:data:`repro.options.BACKEND`)."""
    return BACKEND.resolve(name)
