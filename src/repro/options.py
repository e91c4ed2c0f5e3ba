"""The option table: every axis declared once and resolved once.

An *axis* is a setting a caller may leave open (``None`` / ``"auto"``) for
the environment or the default to decide.  Each one is a row of
:data:`AXES`; that row is the only place its config field, CLI flag,
``REPRO_*`` variable, accepted values, default and help text are written.
:meth:`Axis.resolve` is the only resolver ("explicit, else environment,
else default; validated"), :func:`add_flags` builds the CLI flags,
:func:`markdown_table` renders the README reference, and
:meth:`repro.core.pipeline.PipelineConfig.resolved` applies the table to a
whole config so a run reads the environment once.

This module is a leaf: it imports nothing from :mod:`repro`, so every
layer (kernels, executors, fault hooks, service) can validate through it.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "Axis", "AXES", "ALIGN_IMPL", "KMER_IMPL", "SPGEMM_IMPL", "BACKEND",
    "WORKERS", "EXECUTOR", "OVERLAP_MODE", "SEED_MODE", "READ_STORE",
    "STORE_DIR", "CHECKPOINT_DIR", "FAULT_PLAN", "REFRESH_MODE",
    "add_flags", "markdown_table",
]


@dataclass(frozen=True)
class Axis:
    """One option: where it is set, what it accepts, what it defaults to.

    A *choice* axis lists its concrete names in ``choices``; ``"auto"`` is
    accepted next to them and means "not set here".  A *free-form* axis
    (``choices`` empty) is parsed by ``type`` and left open with ``None``.
    ``pipeline`` / ``service`` say which CLI commands carry the flag
    (``assemble`` + ``stats`` / ``serve``); ``changes_output`` is false
    for the axes whose every value produces byte-identical results.
    """

    name: str
    flag: str
    env: str | None
    default: Any
    help: str
    choices: tuple[str, ...] = ()
    type: Callable[[Any], Any] = str
    metavar: str | None = None
    pipeline: bool = True
    service: bool = False
    changes_output: bool = False

    @property
    def unset(self) -> str | None:
        """The config / CLI value that leaves this axis open."""
        return "auto" if self.choices else None

    @property
    def accepts(self) -> str:
        """Accepted values, as shown in errors and the README table."""
        if self.choices:
            return ", ".join(self.choices + ("auto",))
        return self.metavar

    def resolve(self, value: Any = None) -> Any:
        """Explicit ``value``, else the environment, else the default.

        ``None`` (and ``"auto"`` on a choice axis) defers to ``env``, read
        stripped and lower-cased, where an empty or ``"auto"`` setting
        counts as unset.  Whatever wins is validated;
        a bad value raises ``ValueError`` naming the axis, where the value
        came from and what is accepted.
        """
        source = self.flag
        if value is None or (self.choices and value == "auto"):
            value = (os.environ.get(self.env, "").strip().lower()
                     if self.env else "")
            if not value or value == "auto":
                return self.default
            source = self.env
        if self.choices:
            if value in self.choices:
                return value
        else:
            try:
                return self.type(value)
            except ValueError:
                pass
        raise ValueError(f"unknown {self.name} {value!r} (from {source}); "
                         f"accepted: {self.accepts}")


def _worker_count(text: Any) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"worker count must be >= 1, got {count}")
    return count


ALIGN_IMPL = Axis(
    "align_impl", "--align-impl", None, "batch",
    "alignment engine, one choice: 'batch' runs one vectorized x-drop sweep "
    "over whole chunks of candidate pairs (the per-pair reference lives in "
    "the test suite)",
    choices=("batch",), service=True)

KMER_IMPL = Axis(
    "kmer_impl", "--kmer-impl", None, "batch",
    "k-mer engine, one choice: 'batch' counts through exact per-owner "
    "histograms (one vectorized extraction per rank, which the CreateSpMat "
    "scan reuses unless the count is budgeted; the Bloom-filtered per-read "
    "reference lives in the test suite)",
    choices=("batch",), service=True)

SPGEMM_IMPL = Axis(
    "spgemm_impl", "--spgemm-impl", None, "masked",
    "SpGEMM engine for the multi-field semiring products, one choice: "
    "'masked' computes C = A*At in one SUMMA that keeps the strict upper "
    "triangle by coordinate, each block on the dot or pruned ESC kernel, "
    "and squares R under its own pattern in transitive reduction",
    choices=("masked",), service=True)

BACKEND = Axis(
    "backend", "--backend", None, "auto",
    "validated and otherwise unused: SUMMA calls its kernels directly (ESC, "
    "masked ESC or the mask-driven dot kernel, chosen per block), whatever "
    "the name",
    choices=("numpy", "scipy"), service=True)

WORKERS = Axis(
    "workers", "--workers", "REPRO_WORKERS", 1,
    "parallel workers for the simulated ranks' local compute",
    type=_worker_count, metavar="INT ≥ 1", service=True)

EXECUTOR = Axis(
    "executor", "--executor", "REPRO_EXECUTOR", "auto",
    "execution engine: 'auto' runs serial for one worker and a fork-safe "
    "process pool otherwise",
    choices=("serial", "process"), service=True)

OVERLAP_MODE = Axis(
    "overlap_mode", "--overlap-mode", "REPRO_OVERLAP_MODE", "monolithic",
    "strip count of the candidate step: 'monolithic' forms C = A*At as one "
    "strip, 'blocked' strip-mines it (paper Section VIII) so peak "
    "candidate memory drops ~n_strips-fold; the strip count is --n-strips, "
    "else derived from --memory-budget, else 4",
    choices=("monolithic", "blocked"))

SEED_MODE = Axis(
    "seed_mode", "--seed-mode", "REPRO_SEED_MODE", "full",
    "seeding scheme: 'full' seeds with every reliable k-mer window (the "
    "paper's behavior), 'minimizer'/'syncmer' sketch reads to ~2/(w+1) / "
    "1/w of their windows before counting and A construction, shrinking "
    "nnz(A)/nnz(C) ~w-fold at a small recall cost (w is --seed-w); the "
    "service rebuilds its state when a batch arrives under a different "
    "scheme",
    choices=("full", "minimizer", "syncmer"), service=True,
    changes_output=True)

READ_STORE = Axis(
    "read_store", "--read-store", None, "inmem",
    "validated and otherwise unused, one choice: 'inmem' keeps the read "
    "bases as one resident code buffer (one byte per base)",
    choices=("inmem",))

STORE_DIR = Axis(
    "store_dir", "--store-dir", None, None,
    "directory for the k-mer engine's spill runs under --memory-budget, "
    "removed when counting ends (default: the system temporary directory)",
    metavar="DIR")

CHECKPOINT_DIR = Axis(
    "checkpoint_dir", "--checkpoint-dir", None, None,
    "crash-safe per-strip checkpoint directory for --overlap-mode blocked: "
    "completed strips persist there, and re-running a killed command with "
    "the same DIR resumes at the last completed strip (default: off)",
    metavar="DIR")

FAULT_PLAN = Axis(
    "fault_plan", "--fault-spec", "REPRO_FAULT_SPEC", None,
    "deterministic fault injection spec, e.g. "
    "'exec.chunk:crash@3;summa.block:exc@2' (site:kind@counts clauses "
    "joined by ';'); '' pins the run fault-free whatever the environment "
    "says; on serve the plan is persistent (counters span ingests, failed "
    "refreshes commit nothing and return 503)",
    metavar="SPEC", service=True)

REFRESH_MODE = Axis(
    "refresh_mode", "--refresh-mode", None, "incremental",
    "service refresh engine, one choice: 'incremental' folds each batch "
    "into the live state via delta products, and rebuilds (a delta from "
    "the empty state with every read) when the seeding scheme, reliable "
    "bounds, alignment settings or grid change",
    choices=("incremental",), pipeline=False, service=True)

#: Every axis, in CLI / README order.  All but ``refresh_mode`` (a
#: ``ServiceConfig`` field) are ``PipelineConfig`` fields.
AXES: tuple[Axis, ...] = (
    ALIGN_IMPL, KMER_IMPL, SPGEMM_IMPL, BACKEND, WORKERS, EXECUTOR,
    OVERLAP_MODE, SEED_MODE, READ_STORE, STORE_DIR, CHECKPOINT_DIR,
    FAULT_PLAN, REFRESH_MODE)


def add_flags(parser: argparse.ArgumentParser, service: bool = False) -> None:
    """Add the table's flags to ``parser`` (``service`` picks serve's set).

    Every flag defaults to its axis's *unset* value, so an argument the
    user did not give still defers to the environment at resolve time.
    """
    for axis in AXES:
        if not (axis.service if service else axis.pipeline):
            continue
        where = f"${axis.env}, else " if axis.env else ""
        kwargs: dict[str, Any] = (
            {"choices": ("auto",) + axis.choices} if axis.choices
            else {"type": axis.type, "metavar": axis.metavar})
        parser.add_argument(
            axis.flag, dest=axis.name, default=axis.unset,
            help=f"{axis.help} (default: {where}{axis.default})", **kwargs)


def markdown_table() -> str:
    """The README's option reference, one row per axis.

    ``python -c "from repro.options import markdown_table as t; print(t())"``
    regenerates the block between the README's ``options`` markers.
    """
    rows = ["| field | flag | env var | values | default | changes output? "
            "| what it selects |",
            "|---|---|---|---|---|---|---|"]
    for axis in AXES:
        env = f"`{axis.env}`" if axis.env else "—"
        scope = ("" if axis.pipeline and axis.service
                 else " (`serve` only)" if axis.service
                 else " (not on `serve`)")
        rows.append(
            f"| `{axis.name}` | `{axis.flag}`{scope} | {env} "
            f"| {axis.accepts} | {'—' if axis.default is None else axis.default} "
            f"| {'yes' if axis.changes_output else 'no'} | {axis.help} |")
    return "\n".join(rows)
