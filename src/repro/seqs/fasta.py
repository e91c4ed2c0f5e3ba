"""FASTA input/output and parallel-I/O-style chunked reading.

The paper ingests reads with parallel MPI I/O: every processor reads an
equal-sized byte range of the FASTA file and parses the records that *start*
inside its range (Section IV-B).  :func:`chunked_read_ranges` reproduces that
partitioning rule exactly so the simulated ranks receive the same read
distribution a real MPI run would, which in turn drives the read-exchange
communication volumes of Table I.

A :class:`ReadSet` is backed either by in-memory per-read code arrays or by
an on-disk :class:`~repro.seqs.read_store.MmapReadStore` (the out-of-core
path): both serve the identical ``soa()``/``soa_block()`` contract, so
every downstream stage is backend-oblivious.  :func:`read_fasta_to_store`
streams a FASTA file straight into a store — at no point are all bases
resident — which is how the pipeline ingests inputs larger than memory.

The parser is strict: empty records, duplicate headers, nameless headers,
and sequence data before the first header all raise :class:`ValueError`
naming the offending record.  Zero-length reads would otherwise flow
silently into k-mer extraction and alignment as degenerate rows.  Gzip
files and FASTQ input are refused by name rather than parsed as noise.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .dna import encode, decode
from .read_store import MmapReadStore, MmapStoreWriter, content_digest

__all__ = [
    "ReadSet",
    "write_fasta",
    "read_fasta",
    "read_fasta_to_store",
    "chunked_read_ranges",
]


class _StoreSeqs:
    """List-like facade over a store's per-read code slices.

    Lets store-backed ReadSets keep the ``reads.seqs[i]`` / iteration
    contract without materializing the concatenated buffer: each access
    slices the codes memmap, so only the touched pages are faulted in.
    """

    def __init__(self, store: MmapReadStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.n_reads

    def __getitem__(self, i: int) -> np.ndarray:
        codes, offsets, lengths = self._store.arrays()
        off = int(offsets[i])
        return codes[off:off + int(lengths[i])]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


class ReadSet:
    """A set of reads (names + 2-bit code arrays), in memory or on disk.

    This is the unit of data handed to the pipeline.  Reads keep insertion
    order; their index is the row index of the ``A``/``C``/``R``/``S``
    matrices throughout the pipeline.

    The default backend holds per-read arrays in memory; a store-backed
    set (:meth:`from_store`) serves the same interface from memmaps and
    pickles as just the store path + fingerprint, so process-executor
    workers reopen the files instead of receiving the bases over the pipe.
    """

    def __init__(self, names: list[str], seqs: list[np.ndarray]) -> None:
        if len(names) != len(seqs):
            raise ValueError("names and seqs must have equal length")
        self.names = names
        self.seqs = seqs
        self._store: MmapReadStore | None = None
        # Lazily-built structure-of-arrays view (reads are immutable once
        # constructed): one concatenated code buffer + per-read offsets.
        self._soa: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_store(cls, store: MmapReadStore, names: list[str]) -> "ReadSet":
        """ReadSet over an opened store (bases stay on disk)."""
        if len(names) != store.n_reads:
            raise ValueError(f"store holds {store.n_reads} reads but "
                             f"{len(names)} names were given")
        rs = cls.__new__(cls)
        rs.names = names
        rs.seqs = _StoreSeqs(store)
        rs._store = store
        rs._soa = None
        return rs

    @property
    def store(self) -> MmapReadStore | None:
        """The backing store, or ``None`` for an in-memory set."""
        return self._store

    def __len__(self) -> int:
        return len(self.seqs)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.seqs[i]

    def soa(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, offsets, lengths)`` structure-of-arrays view, cached.

        ``codes`` is every read concatenated (read ``i`` occupies
        ``codes[offsets[i]:offsets[i] + lengths[i]]``) — the shared buffer
        the batched alignment engine addresses by (offset, stride, length)
        views.  In-memory sets build it once per ReadSet; store-backed sets
        return the store's memmaps, so the "concatenated buffer" is pages
        on disk, not resident bytes.  Treat all three arrays as read-only.
        """
        if self._store is not None:
            return self._store.arrays()
        if self._soa is None:
            lengths = np.array([s.shape[0] for s in self.seqs],
                               dtype=np.int64)
            offsets = np.zeros(lengths.shape[0], dtype=np.int64)
            if lengths.shape[0] > 1:
                np.cumsum(lengths[:-1], out=offsets[1:])
            codes = np.concatenate(self.seqs) if self.seqs else \
                np.empty(0, np.uint8)
            self._soa = (codes, offsets, lengths)
        return self._soa

    def soa_block(self, lo: int, hi: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SoA view of the contiguous read block ``[lo, hi)``.

        Returns ``(codes, offsets, lengths)`` where ``codes`` covers *only*
        this block's bases and ``offsets`` are rebased onto it — the unit of
        work the batched k-mer engine hands an executor task, so a process
        pool ships each worker just its own reads instead of the whole
        concatenated buffer.  All three arrays are views/derived from the
        cached :meth:`soa` buffers; treat them as read-only.
        """
        codes, offsets, lengths = self.soa()
        if lo >= hi:
            return (np.empty(0, np.uint8), np.empty(0, np.int64),
                    np.empty(0, np.int64))
        base = offsets[lo]
        end = offsets[hi - 1] + lengths[hi - 1]
        return codes[base:end], offsets[lo:hi] - base, lengths[lo:hi]

    def extend(self, names: list[str], seqs: list[np.ndarray]) -> None:
        """Append reads in place, invalidating the cached SoA view.

        The ``(codes, offsets, lengths)`` view is built lazily and cached;
        mutating the read lists behind it would keep serving the stale
        buffers (wrong lengths, missing bases), so any append must drop the
        cache and let the next :meth:`soa` call rebuild it over the full
        set.  Existing read indices are stable — new reads take the next
        indices — which is what the incremental assembly service relies on.

        Store-backed sets are immutable (the on-disk buffer is sealed by
        its fingerprint); use :meth:`concat` to grow them.
        """
        if self._store is not None:
            raise ValueError("cannot extend a store-backed ReadSet "
                             "(the on-disk buffer is sealed); use concat()")
        if len(names) != len(seqs):
            raise ValueError("names and seqs must have equal length")
        self.names.extend(names)
        self.seqs.extend(seqs)
        self._soa = None

    def concat(self, other: "ReadSet") -> "ReadSet":
        """New ReadSet of this set's reads followed by ``other``'s.

        The per-read code arrays are shared, not copied — the copy-on-write
        append the service's versioned states use (every version keeps its
        own name/seq *lists*, so older snapshots never see later reads).
        The result is always in-memory-backed (store slices are views onto
        the mapped pages, still not copies of the whole buffer).
        """
        return ReadSet(list(self.names) + list(other.names),
                       list(self.seqs) + list(other.seqs))

    def __getstate__(self):
        # Drop the SoA cache from pickles (executor workers rebuild it
        # lazily) so shipping a ReadSet never pays for the bases twice.
        # Store-backed sets additionally drop the seqs facade: the store
        # itself pickles as (directory, fingerprint) and the facade is
        # rebuilt over the reopened store on the other side.
        state = self.__dict__.copy()
        state["_soa"] = None
        if self._store is not None:
            state["seqs"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._store is not None and self.seqs is None:
            self.seqs = _StoreSeqs(self._store)

    def content_fingerprint(self) -> str:
        """SHA-256 of the code + length bytes (backend-invariant).

        Store-backed sets return the manifest fingerprint (computed once at
        write time over the identical byte stream); in-memory sets hash
        their SoA buffers with the same algorithm — so the resilience
        checkpoints that cover the read bases get the same fingerprint
        whether the reads live in RAM or on disk.
        """
        if self._store is not None:
            return self._store.fingerprint
        codes, _offsets, lengths = self.soa()
        return content_digest(codes, lengths)

    def to_store(self, directory: str) -> "ReadSet":
        """Persist this set into ``directory``; return a store-backed twin."""
        store = MmapReadStore.create(directory, self.seqs)
        return ReadSet.from_store(store, list(self.names))

    @property
    def lengths(self) -> np.ndarray:
        """``int64`` array of read lengths (cached; treat as read-only)."""
        return self.soa()[2]

    def total_bases(self) -> int:
        return int(self.lengths.sum())

    def subset(self, idx: np.ndarray) -> "ReadSet":
        """New ReadSet containing reads at positions ``idx`` (in order)."""
        return ReadSet([self.names[i] for i in idx], [self.seqs[i] for i in idx])

    def __repr__(self) -> str:  # pragma: no cover
        return f"ReadSet(n={len(self)}, bases={self.total_bases()})"


def write_fasta(path: str | Path | io.TextIOBase, reads: ReadSet,
                width: int = 80) -> None:
    """Write a ReadSet to a FASTA file (or open text handle) with
    ``width``-column wrapping."""
    if isinstance(path, (str, Path)):
        with open(path, "w") as fh:
            write_fasta(fh, reads, width=width)
        return
    fh = path
    for name, codes in zip(reads.names, reads.seqs):
        fh.write(f">{name}\n")
        s = decode(codes)
        for off in range(0, len(s), width):
            fh.write(s[off:off + width])
            fh.write("\n")


def _fasta_records(source):
    """Yield ``(name, sequence_string)`` per record, validating as it goes.

    Raises :class:`ValueError` naming the offending record for every
    malformed shape that would otherwise corrupt the read set silently:

    * a header immediately followed by another header or EOF (the record
      would become a zero-length read — the bug this replaces: the old
      ``len(seqs) != len(names)`` check could never fire because the empty
      record *was* appended),
    * a bare ``>`` with no name,
    * two records with the same name (row indices would silently alias),
    * sequence data before any header (a leading ``@`` is named as FASTQ).
    """
    seen: set[str] = set()
    name: str | None = None
    cur: list[str] = []
    lineno = 0
    for line in source:
        lineno += 1
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                if not cur:
                    raise ValueError(f"malformed FASTA: record {name!r} "
                                     f"(line {lineno}) has no sequence")
                yield name, "".join(cur)
            fields = line[1:].split()
            if not fields:
                raise ValueError(f"malformed FASTA: header with no name "
                                 f"at line {lineno}")
            name = fields[0]
            if name in seen:
                raise ValueError(f"malformed FASTA: duplicate record name "
                                 f"{name!r} at line {lineno}")
            seen.add(name)
            cur = []
        else:
            if name is None:
                if line.startswith("@"):
                    raise ValueError(f"line {lineno} starts with '@': looks "
                                     f"like FASTQ; only FASTA is supported")
                raise ValueError(f"malformed FASTA: sequence data before "
                                 f"any '>' header at line {lineno}")
            cur.append(line)
    if name is not None:
        if not cur:
            raise ValueError(f"malformed FASTA: record {name!r} at end of "
                             f"file has no sequence")
        yield name, "".join(cur)


def _open_fasta(path: str | Path) -> io.TextIOBase:
    """Open a FASTA path as text, refusing gzip (magic ``1f 8b``) by name
    instead of dying on a ``UnicodeDecodeError`` mid-parse."""
    with open(path, "rb") as fh:
        if fh.read(2) == b"\x1f\x8b":
            raise ValueError(f"{path}: gzip-compressed input is not "
                             f"supported; decompress first")
    return open(path)


def read_fasta(source: str | Path | io.TextIOBase) -> ReadSet:
    """Parse a FASTA file (or open text handle) into an in-memory ReadSet.

    Malformed input — empty records, duplicate or nameless headers,
    sequence before the first header, gzip or FASTQ — raises
    :class:`ValueError` naming the offence.  An empty file parses as an
    empty ReadSet.
    """
    if isinstance(source, (str, Path)):
        with _open_fasta(source) as fh:
            return read_fasta(fh)
    names: list[str] = []
    seqs: list[np.ndarray] = []
    for name, seq in _fasta_records(source):
        names.append(name)
        seqs.append(encode(seq))
    return ReadSet(names, seqs)


def read_fasta_to_store(source: str | Path | io.TextIOBase,
                        directory: str) -> ReadSet:
    """Stream a FASTA file into an on-disk store; return the backed ReadSet.

    Each record's codes go straight from the parser to the store's code
    file, so the resident footprint is one read plus the name list — the
    ingest path for inputs larger than memory.  Validation is identical to
    :func:`read_fasta`; on any parse error the partial store build is
    discarded.
    """
    if isinstance(source, (str, Path)):
        with _open_fasta(source) as fh:
            return read_fasta_to_store(fh, directory)
    names: list[str] = []
    writer = MmapStoreWriter(directory)
    try:
        for name, seq in _fasta_records(source):
            names.append(name)
            writer.add_read(encode(seq))
    except BaseException:
        writer.abort()
        raise
    return ReadSet.from_store(writer.finish(), names)


def chunked_read_ranges(record_starts: np.ndarray, file_size: int, nprocs: int
                        ) -> list[tuple[int, int]]:
    """Assign FASTA records to processors by equal byte ranges.

    Parameters
    ----------
    record_starts:
        Byte offset of each record's ``>`` character, ascending.
    file_size:
        Total file size in bytes.
    nprocs:
        Number of processors.

    Returns
    -------
    list of (lo, hi):
        For each processor, the half-open range of *record indices* it owns:
        the records whose start offset falls inside its byte chunk
        ``[p*file_size/nprocs, (p+1)*file_size/nprocs)``.
    """
    record_starts = np.asarray(record_starts, dtype=np.int64)
    bounds = (np.arange(nprocs + 1, dtype=np.int64) * file_size) // nprocs
    idx = np.searchsorted(record_starts, bounds, side="left")
    return [(int(idx[p]), int(idx[p + 1])) for p in range(nprocs)]
