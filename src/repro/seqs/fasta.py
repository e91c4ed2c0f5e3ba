"""FASTA input/output.

A :class:`ReadSet` is one structure-of-arrays read buffer: ``codes`` holds
every read's 2-bit codes concatenated, and read ``i`` is
``codes[offsets[i]:offsets[i] + lengths[i]]``.  The three arrays are
resident, and ``soa()``/``soa_block()`` serve them to every downstream
stage.

Both readers share one parser.  It reads fixed-size chunks cut at record
boundaries, splits each header once, and encodes a chunk's bases with one
``bytes.translate`` that also drops the newlines.  A chunk whose sequence
lines hold anything but ``ACGTNacgtn`` (a CR, padding, other letters,
non-ASCII) or that is malformed goes through the line rules instead:
strip each line, skip blank ones, and check as it goes.  Both routes give
the same reads.

The parser is strict: empty records, duplicate headers, nameless headers,
and sequence data before the first header all raise :class:`ValueError`
naming the offending record and line.  Zero-length reads would otherwise
flow silently into k-mer extraction and alignment as degenerate rows.
Gzip files and FASTQ input are refused by name rather than parsed as
noise.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

from .dna import encode, decode

__all__ = [
    "ReadSet",
    "write_fasta",
    "read_fasta",
]


class ReadSet:
    """A set of reads: names + one resident 2-bit code buffer.

    This is the unit of data handed to the pipeline.  Reads keep insertion
    order; their index is the row index of the ``A``/``C``/``R``/``S``
    matrices throughout the pipeline.  ``reads[i]`` is a view into
    ``codes``, never a copy.

    ``ReadSet(names, seqs)`` concatenates per-read arrays into the buffer
    once, and a pickle (a process worker's context) carries the three
    arrays as they are.  Sets are never mutated in place.
    """

    def __init__(self, names: list[str], seqs: list[np.ndarray]) -> None:
        if len(names) != len(seqs):
            raise ValueError("names and seqs must have equal length")
        lengths = np.array([s.shape[0] for s in seqs], dtype=np.int64)
        codes = np.concatenate(seqs) if seqs else np.empty(0, np.uint8)
        self._bind(names, codes, np.cumsum(lengths) - lengths, lengths)

    def _bind(self, names, codes, offsets, lengths) -> "ReadSet":
        self.names = names
        self.codes, self.offsets, self.lengths = codes, offsets, lengths
        return self

    def __reduce__(self):
        return _from_arrays, (self.names, self.codes, self.offsets,
                              self.lengths)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> np.ndarray:
        off = int(self.offsets[i])
        return self.codes[off:off + int(self.lengths[i])]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def seqs(self) -> "ReadSet":
        """The per-read code views: ``reads.seqs[i]`` is ``reads[i]``."""
        return self

    def soa(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, offsets, lengths)``: the set's own arrays, read-only.

        ``codes`` is every read concatenated (read ``i`` occupies
        ``codes[offsets[i]:offsets[i] + lengths[i]]``) — the shared buffer
        the batched alignment engine addresses by (offset, stride, length)
        views.
        """
        return self.codes, self.offsets, self.lengths

    def soa_block(self, lo: int, hi: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SoA view of the contiguous read block ``[lo, hi)``.

        Returns ``(codes, offsets, lengths)`` where ``codes`` covers *only*
        this block's bases and ``offsets`` are rebased onto it — the unit of
        work the batched k-mer engine hands an executor task, so a process
        pool ships each worker just its own reads instead of the whole
        concatenated buffer.  All three arrays are views/derived from the
        :meth:`soa` buffers; treat them as read-only.
        """
        codes, offsets, lengths = self.soa()
        if lo >= hi:
            return (np.empty(0, np.uint8), np.empty(0, np.int64),
                    np.empty(0, np.int64))
        base = offsets[lo]
        end = offsets[hi - 1] + lengths[hi - 1]
        return codes[base:end], offsets[lo:hi] - base, lengths[lo:hi]

    def concat(self, other: "ReadSet") -> "ReadSet":
        """New in-memory ReadSet of this set's reads followed by ``other``'s.

        The result owns a fresh code buffer, so the service's versioned
        states never see reads appended after them.
        """
        lengths = np.concatenate([self.lengths, other.lengths])
        return _from_arrays([*self.names, *other.names],
                            np.concatenate([self.codes, other.codes]),
                            np.cumsum(lengths) - lengths, lengths)

    def content_fingerprint(self) -> str:
        """SHA-256 over the code bytes, then the int64 length bytes.

        The strip checkpoints record it, so a resume against reads whose
        bases changed is refused.
        """
        h = hashlib.sha256(np.ascontiguousarray(self.codes, np.uint8).data)
        h.update(np.ascontiguousarray(self.lengths, np.int64).data)
        return h.hexdigest()

    def total_bases(self) -> int:
        return int(self.lengths.sum())

    def subset(self, idx: np.ndarray) -> "ReadSet":
        """New ReadSet of the reads at positions ``idx`` (in order), in its
        own buffer."""
        return ReadSet([self.names[i] for i in idx], [self[i] for i in idx])

    def __repr__(self) -> str:  # pragma: no cover
        return f"ReadSet(n={len(self)}, bases={self.total_bases()})"


def _from_arrays(names, codes, offsets, lengths) -> ReadSet:
    """An in-memory ReadSet over arrays it takes ownership of."""
    return ReadSet.__new__(ReadSet)._bind(names, codes, offsets, lengths)


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




#: Characters (bytes, for a binary handle) read per parse step.  A step is
#: carried on to the last line in it that starts with ``>``, so every chunk
#: the parser sees holds whole records.
_CHUNK = 1 << 20

#: Base byte -> 2-bit code for ``bytes.translate``: what
#: :func:`~repro.seqs.dna.encode` gives ``ACGTNacgtn`` (``N`` is ``A``).
#: Every other byte maps to 4, which sends its chunk to the line rules.
_BASE_CODES = bytearray(b"\x04" * 256)
for _code, _pair in enumerate((b"Aa", b"Cc", b"Gg", b"Tt")):
    for _byte in _pair:
        _BASE_CODES[_byte] = _code
_BASE_CODES[ord("N")] = _BASE_CODES[ord("n")] = 0
_BASE_CODES = bytes(_BASE_CODES)


def _chunks(fh):
    """Yield ``(chunk, text, at_eof)``: the input as bytes, cut only just
    before a line that starts with ``>``.

    ``text`` says the handle returned ``str`` (encoded here as UTF-8, lone
    surrogates passed through); a binary handle is read as ``open(path)``
    would read it, universal newlines included, so there a line also ends
    at a lone CR and a CR-only file is cut like any other.
    """
    held: list[bytes] = []
    text = False
    eols = (b"\n", b"\r")
    while True:
        piece = fh.read(_CHUNK)
        if isinstance(piece, str):
            text, eols = True, (b"\n",)
            piece = piece.encode("utf-8", "surrogatepass")
        if not piece:
            if held:
                yield b"".join(held), text, True
            return
        cut = max(piece.rfind(eol + b">") for eol in eols) + 1
        if not cut and held and held[-1].endswith(eols) and \
                piece.startswith(b">"):
            yield b"".join(held), text, False
            held = [piece]
        elif not cut:
            held.append(piece)
        else:
            held.append(piece[:cut])
            yield b"".join(held), text, False
            held = [piece[cut:]]


def _fast_chunk(buf: bytes, text: bool, seen: set[str]):
    """``(names, codes, lengths, lines)`` of a chunk of well-formed records
    whose sequence lines hold only ``ACGTNacgtn``, else ``None``.

    Header lines are the lines that start with ``>``, found in one pass
    over the chunk's newlines, and each is split once.  The records'
    sequence lines are joined and encoded by one ``translate`` that also
    drops the newlines.  Anything the line rules would treat differently —
    a CR, padding, another byte, a record without bases, a nameless or
    repeated name, a chunk not starting with a header — returns ``None``.
    """
    if not buf.startswith(b">") or b"\r" in buf:
        return None
    raw = np.frombuffer(buf, dtype=np.uint8)
    breaks = np.flatnonzero(raw == 10)
    after = breaks + 1
    if breaks.shape[0] and after[-1] == raw.shape[0]:
        after = after[:-1]
    starts = np.concatenate(([0], after[raw[after] == 62]))
    # Header ``r`` ends at the chunk's ``row[r]``-th newline.
    row = np.searchsorted(breaks, starts)
    if row[-1] == breaks.shape[0]:
        return None
    eol = breaks[row]
    ends = np.append(starts[1:], raw.shape[0])
    lengths = ends - eol - np.diff(row, append=breaks.shape[0])
    if lengths.min() == 0:
        return None
    errors = "surrogatepass" if text else "strict"
    names = []
    for at, stop in zip(starts.tolist(), eol.tolist()):
        fields = buf[at + 1:stop].decode("utf-8", errors).split()
        if not fields:
            return None
        names.append(fields[0])
    if len(set(names)) < len(names) or not seen.isdisjoint(names):
        return None
    view = memoryview(buf)
    codes = np.frombuffer(b"".join(
        [view[a + 1:b] for a, b in zip(eol.tolist(), ends.tolist())]
    ).translate(_BASE_CODES, b"\n"), dtype=np.uint8)
    if codes.max() > 3:
        return None
    seen.update(names)
    return names, codes, lengths.tolist(), breaks.shape[0]


def _line_chunk(buf: bytes, text: bool, seen: set[str], lineno: int,
                at_eof: bool):
    """``(names, codes, lengths, lines)`` of a chunk by the line rules.

    Each line is stripped; blank lines are skipped, a line starting with
    ``>`` opens a record named by its first word, any other line is
    sequence.  Raises :class:`ValueError` naming the offending record or
    line (numbered from the file's start, ``lineno`` lines before this
    chunk) for every malformed shape that would otherwise corrupt the read
    set silently:

    * a header immediately followed by another header or EOF (the record
      would become a zero-length read),
    * a bare ``>`` with no name,
    * two records with the same name (row indices would silently alias),
    * sequence data before any header (a leading ``@`` is named as FASTQ).
    """
    data = buf.decode("utf-8", "surrogatepass" if text else "strict")
    if not text:
        data = data.replace("\r\n", "\n").replace("\r", "\n")
    rows = data.split("\n")
    if rows[-1] == "":
        rows.pop()
    names: list[str] = []
    seqs: list[np.ndarray] = []
    name: str | None = None
    cur: list[str] = []
    start = lineno
    for line in rows:
        lineno += 1
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                if not cur:
                    raise ValueError(f"malformed FASTA: record {name!r} "
                                     f"(line {lineno}) has no sequence")
                names.append(name)
                seqs.append(encode("".join(cur)))
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
            where = "at end of file" if at_eof else f"(line {lineno + 1})"
            raise ValueError(f"malformed FASTA: record {name!r} {where} has "
                             f"no sequence")
        names.append(name)
        seqs.append(encode("".join(cur)))
    codes = np.concatenate(seqs) if seqs else np.empty(0, np.uint8)
    return names, codes, [s.shape[0] for s in seqs], lineno - start


def _fasta_chunks(fh):
    """Yield ``(names, codes, lengths)`` per chunk of an open FASTA handle:
    the chunk's record names, their 2-bit codes concatenated and each
    record's base count.  A chunk of clean records takes
    :func:`_fast_chunk`; any other takes :func:`_line_chunk`, which also
    raises every parse error, so both give what the line rules give."""
    seen: set[str] = set()
    lineno = 0
    for buf, text, at_eof in _chunks(fh):
        parsed = _fast_chunk(buf, text, seen) or \
            _line_chunk(buf, text, seen, lineno, at_eof)
        lineno += parsed[3]
        yield parsed[:3]


def _open_fasta(path: str | Path) -> io.BufferedReader:
    """Open a FASTA path as bytes, refusing gzip (magic ``1f 8b``) by name
    instead of parsing compressed bytes as noise."""
    fh = open(path, "rb")
    if fh.read(2) == b"\x1f\x8b":
        fh.close()
        raise ValueError(f"{path}: gzip-compressed input is not "
                         f"supported; decompress first")
    fh.seek(0)
    return fh


def read_fasta(source: str | Path | io.IOBase) -> ReadSet:
    """Parse a FASTA file (or open text or binary handle) into an in-memory
    ReadSet.

    The input is read in chunks of whole records (:func:`_fasta_chunks`):
    each header is split once and each chunk's bases are encoded in one
    pass, and only the chunk's codes are held besides the growing result.
    Malformed input — empty records, duplicate or nameless headers,
    sequence before the first header, gzip or FASTQ — raises
    :class:`ValueError` naming the offence and its line.  An empty file
    parses as an empty ReadSet.
    """
    if isinstance(source, (str, Path)):
        with _open_fasta(source) as fh:
            return read_fasta(fh)
    names: list[str] = []
    parts: list[np.ndarray] = []
    lengths: list[int] = []
    for chunk_names, codes, chunk_lengths in _fasta_chunks(source):
        names += chunk_names
        parts.append(codes)
        lengths += chunk_lengths
    lens = np.array(lengths, dtype=np.int64)
    codes = np.concatenate(parts) if parts else np.empty(0, np.uint8)
    return _from_arrays(names, codes, np.cumsum(lens) - lens, lens)

