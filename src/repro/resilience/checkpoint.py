"""Crash-safe per-strip checkpointing for the blocked pipeline.

A :class:`StripCheckpoint` directory holds one versioned ``manifest.json``
plus one payload file per completed strip.  Every write is atomic
(temp file in the same directory, ``fsync``, ``os.replace``), so a run
killed at *any* instant leaves either the old bytes or the new bytes on
disk — never a torn file — and a re-invoked run resumes from exactly the
strips whose payloads finished.

The manifest carries a **fingerprint** of everything the strip results
depend on (the A matrix's entries, the read bases, k, alignment mode and
parameters, the strip spans).  Resuming against a directory whose
fingerprint differs raises :class:`CheckpointMismatch` instead of
silently merging strips of a different run — the checkpoint equivalent of
the service's cross-scheme refusal.

Payloads are pickled verbatim (they are the strip tasks' return values:
COO arrays plus the strip's private timer/tracker), so a resumed run
merges byte-identical accounting and produces byte-identical R/S/tracker
output — the determinism contract every other axis of this codebase
already honors.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile

__all__ = ["CheckpointMismatch", "StripCheckpoint", "MANIFEST_VERSION",
           "atomic_write"]

#: Manifest format version; bump on incompatible layout changes.
#: 2: the pickled strip timers carry ``stage_work_counts``.
#: 3: the strips' R entries include the containment pairs.
MANIFEST_VERSION = 3


class CheckpointMismatch(ValueError):
    """The checkpoint directory belongs to a different run configuration."""


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash never leaves a torn file.

    Shared by every durable artifact in the tree (strip checkpoints, the
    mmap read-store manifest and index arrays): temp file in the same
    directory, ``fsync``, ``os.replace`` — a reader observes either the old
    bytes or the new bytes, never a mix.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class StripCheckpoint:
    """One run's strip store: manifest + ``strip_<i>.pkl`` payloads."""

    def __init__(self, directory: str, fingerprint: str,
                 n_strips: int) -> None:
        self.directory = str(directory)
        self.fingerprint = fingerprint
        self.n_strips = int(n_strips)

    # -- layout ------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    def strip_path(self, index: int) -> str:
        return os.path.join(self.directory, f"strip_{int(index):05d}.pkl")

    # -- lifecycle ---------------------------------------------------------
    def open(self) -> "StripCheckpoint":
        """Create the directory + manifest, or validate an existing one.

        A fresh directory gets the manifest written first (atomically),
        so any strip payload on disk is always covered by a manifest.  An
        existing manifest must match this run's fingerprint and strip
        count exactly; anything else is refused.
        """
        os.makedirs(self.directory, exist_ok=True)
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path, "r") as fh:
                manifest = json.load(fh)
            if manifest.get("format") != MANIFEST_VERSION:
                raise CheckpointMismatch(
                    f"checkpoint manifest format "
                    f"{manifest.get('format')!r} in {self.directory!r} "
                    f"(this version writes {MANIFEST_VERSION})")
            if manifest.get("fingerprint") != self.fingerprint or \
                    manifest.get("n_strips") != self.n_strips:
                raise CheckpointMismatch(
                    f"checkpoint in {self.directory!r} was written by a "
                    f"different run (fingerprint "
                    f"{manifest.get('fingerprint')!r} over "
                    f"{manifest.get('n_strips')} strips; this run is "
                    f"{self.fingerprint!r} over {self.n_strips}); point "
                    f"--checkpoint-dir at an empty directory or delete "
                    f"the stale checkpoint")
        else:
            atomic_write(self.manifest_path, json.dumps(
                {"format": MANIFEST_VERSION,
                 "fingerprint": self.fingerprint,
                 "n_strips": self.n_strips},
                indent=2).encode())
        return self

    # -- strips ------------------------------------------------------------
    def has(self, index: int) -> bool:
        return os.path.exists(self.strip_path(index))

    def completed(self) -> list[int]:
        """Indices of strips whose payloads are on disk, ascending."""
        return [i for i in range(self.n_strips) if self.has(i)]

    def save(self, index: int, payload) -> None:
        """Persist one strip's result atomically."""
        atomic_write(self.strip_path(index),
                      pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def load(self, index: int):
        with open(self.strip_path(index), "rb") as fh:
            return pickle.load(fh)
