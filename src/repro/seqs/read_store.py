"""Out-of-core read store: the 2-bit code buffer as disk-backed memmaps.

The paper's premise is assembling genomes whose working set exceeds a
node's memory.  Strip-mining (PR 3) bounded the candidate matrix, and the
spillable k-mer tables bound the counting stage — this module bounds the
third resident giant: the read bases themselves.

A :class:`MmapReadStore` directory persists the concatenated 2-bit code
buffer plus the per-read offset/length index once, then serves
``ReadSet.soa()``/``soa_block()`` as read-only ``np.memmap`` views: the
kernel pages bases in on demand and evicts them under pressure, so peak
RSS no longer scales with total input size.  The layout is deliberately
the SoA layout the pipeline already addresses::

    store.json    manifest {format, n_reads, total_bases, fingerprint}
    codes.bin     uint8[total_bases]   every read concatenated
    offsets.bin   int64[n_reads]      codes[offsets[i] : offsets[i]+lengths[i]]
    lengths.bin   int64[n_reads]

Every file is written atomically (the manifest last), so a crash mid-build
never leaves a directory that opens; the manifest's **fingerprint** is a
SHA-256 over the code and length bytes, which is exactly what the strip
checkpoints fingerprint — a stale or tampered store is refused with
:class:`StoreMismatch`, never silently assembled.

Pickling ships only ``(directory, fingerprint)``: process-executor workers
reopen the files by path instead of receiving the bases over the pipe,
which is also what makes the store cheap to fan out.

The ``read_store`` axis (:data:`repro.options.READ_STORE`) selects between
this store and the same three arrays held resident.
"""

from __future__ import annotations

import array
import hashlib
import json
import os

import numpy as np

from ..resilience.checkpoint import atomic_write

__all__ = [
    "STORE_FORMAT", "StoreMismatch", "content_digest",
    "MmapReadStore", "MmapStoreWriter",
]

#: Store layout version; bump on incompatible changes.
STORE_FORMAT = 1

_MANIFEST = "store.json"
_CODES = "codes.bin"
_OFFSETS = "offsets.bin"
_LENGTHS = "lengths.bin"

#: Chunk size for incremental hashing/IO over the code buffer.
_HASH_CHUNK = 16 * 2**20


class StoreMismatch(ValueError):
    """The store directory is stale, tampered, or of a foreign format."""


def content_digest(codes: np.ndarray, lengths: np.ndarray) -> str:
    """SHA-256 over the code bytes then the int64 length bytes.

    Chunked so a memmapped ``codes`` is streamed through the hash without
    ever being materialized; the same digest algorithm fingerprints both
    in-memory ReadSets and on-disk stores, so the strip-checkpoint
    fingerprint is backend-invariant.
    """
    h = hashlib.sha256()
    codes = np.ascontiguousarray(codes, dtype=np.uint8) if codes.dtype \
        != np.uint8 else codes
    for lo in range(0, codes.shape[0], _HASH_CHUNK):
        h.update(np.ascontiguousarray(codes[lo:lo + _HASH_CHUNK]).data)
    h.update(np.ascontiguousarray(lengths, dtype=np.int64).data)
    return h.hexdigest()


class MmapReadStore:
    """An opened on-disk read store serving memmap SoA views.

    Opening validates the manifest format and every file's size against
    the manifest before any array is mapped; :meth:`verify` additionally
    re-hashes the content.  The mapped arrays are cached and strictly
    read-only (``mode="r"``).
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        manifest_path = os.path.join(self.directory, _MANIFEST)
        try:
            with open(manifest_path, "r") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise StoreMismatch(f"no read store at {self.directory!r} "
                                f"(missing {_MANIFEST})") from None
        except (OSError, ValueError) as exc:
            raise StoreMismatch(f"unreadable read-store manifest in "
                                f"{self.directory!r}: {exc}") from None
        if manifest.get("format") != STORE_FORMAT:
            raise StoreMismatch(
                f"read-store format {manifest.get('format')!r} in "
                f"{self.directory!r} (this version reads {STORE_FORMAT})")
        self.n_reads = int(manifest["n_reads"])
        self.total_bases = int(manifest["total_bases"])
        self.fingerprint = str(manifest["fingerprint"])
        for fname, want in ((_CODES, self.total_bases),
                            (_OFFSETS, 8 * self.n_reads),
                            (_LENGTHS, 8 * self.n_reads)):
            path = os.path.join(self.directory, fname)
            try:
                size = os.path.getsize(path)
            except OSError:
                raise StoreMismatch(f"read store {self.directory!r} is "
                                    f"missing {fname}") from None
            if size != want:
                raise StoreMismatch(
                    f"read store {self.directory!r}: {fname} is {size} "
                    f"bytes, manifest expects {want} (stale or torn store)")
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _map(self, fname: str, dtype, n: int) -> np.ndarray:
        if n == 0:
            # mmap of an empty file is an OS error; the empty array is the
            # correct (and only) view of it.
            return np.empty(0, dtype)
        return np.memmap(os.path.join(self.directory, fname), dtype=dtype,
                         mode="r", shape=(n,))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, offsets, lengths)`` read-only memmap views, cached."""
        if self._arrays is None:
            self._arrays = (self._map(_CODES, np.uint8, self.total_bases),
                            self._map(_OFFSETS, np.int64, self.n_reads),
                            self._map(_LENGTHS, np.int64, self.n_reads))
        return self._arrays

    def verify(self) -> None:
        """Re-hash the content; raise :class:`StoreMismatch` on any drift."""
        codes, _offsets, lengths = self.arrays()
        digest = content_digest(codes, lengths)
        if digest != self.fingerprint:
            raise StoreMismatch(
                f"read store {self.directory!r} content hash {digest} does "
                f"not match its manifest fingerprint {self.fingerprint} "
                f"(files were modified after the store was written)")

    # Pickling ships only the path + expected fingerprint: a process
    # worker reopens the files (a fresh, valid mapping in its own address
    # space) and refuses a directory that changed under it.
    def __getstate__(self):
        return {"directory": self.directory, "fingerprint": self.fingerprint}

    def __setstate__(self, state):
        self.__init__(state["directory"])
        if self.fingerprint != state["fingerprint"]:
            raise StoreMismatch(
                f"read store {self.directory!r} was rewritten since it was "
                f"pickled (fingerprint {self.fingerprint} on disk, "
                f"{state['fingerprint']} expected)")

    @classmethod
    def create(cls, directory: str, seqs) -> "MmapReadStore":
        """Build a store from an iterable of per-read code arrays."""
        writer = MmapStoreWriter(directory)
        try:
            for codes in seqs:
                writer.add_read(codes)
        except BaseException:
            writer.abort()
            raise
        return writer.finish()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MmapReadStore(dir={self.directory!r}, n={self.n_reads}, "
                f"bases={self.total_bases})")


class MmapStoreWriter:
    """Streaming store builder: bases go straight to disk, never resident.

    ``add_read`` appends one read's codes to the growing ``codes.bin``
    and ``add_reads`` a run of reads' (hashed incrementally as written);
    :meth:`finish` fsyncs the code file
    into place, writes the index arrays and the manifest **last** — so a
    crash at any instant leaves either no manifest (directory won't open)
    or a complete store.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._codes_tmp = os.path.join(self.directory, _CODES + ".tmp")
        self._fh = open(self._codes_tmp, "wb")
        self._hash = hashlib.sha256()
        self._lengths = array.array("q")
        self._total = 0
        self._done = False

    def add_read(self, codes: np.ndarray) -> None:
        self.add_reads(codes, [codes.shape[0]])

    def add_reads(self, codes: np.ndarray, lengths) -> None:
        """Append reads whose codes are ``codes``, concatenated, and whose
        lengths are ``lengths``."""
        buf = np.ascontiguousarray(codes, dtype=np.uint8)
        view = memoryview(buf).cast("B")
        self._fh.write(view)
        self._hash.update(view)
        self._lengths.extend(lengths)
        self._total += buf.shape[0]

    def finish(self) -> MmapReadStore:
        if self._done:  # pragma: no cover - defensive
            raise RuntimeError("store writer already finished/aborted")
        self._done = True
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        os.replace(self._codes_tmp, os.path.join(self.directory, _CODES))
        lengths = np.asarray(self._lengths, dtype=np.int64)
        self._hash.update(np.ascontiguousarray(lengths).data)
        offsets = np.zeros(lengths.shape[0], dtype=np.int64)
        if lengths.shape[0] > 1:
            np.cumsum(lengths[:-1], out=offsets[1:])
        atomic_write(os.path.join(self.directory, _OFFSETS),
                     np.ascontiguousarray(offsets).tobytes())
        atomic_write(os.path.join(self.directory, _LENGTHS),
                     np.ascontiguousarray(lengths).tobytes())
        atomic_write(os.path.join(self.directory, _MANIFEST), json.dumps(
            {"format": STORE_FORMAT,
             "n_reads": int(lengths.shape[0]),
             "total_bases": int(self._total),
             "fingerprint": self._hash.hexdigest()},
            indent=2).encode())
        return MmapReadStore(self.directory)

    def abort(self) -> None:
        """Discard a partial build (close + delete the temp code file)."""
        if self._done:
            return
        self._done = True
        try:
            self._fh.close()
        except OSError:  # pragma: no cover
            pass
        try:
            os.unlink(self._codes_tmp)
        except OSError:
            pass
