"""The line-by-line FASTA parser: the reference the chunked parser of
:mod:`repro.seqs.fasta` must equal on every input, read for read or error
for error.  Test-only: nothing under ``src/`` imports it."""

from __future__ import annotations

import numpy as np

from repro.seqs.dna import encode


def fasta_records(source):
    """Yield ``(name, sequence_string)`` per record of an iterable of text
    lines, validating as it goes.

    Raises :class:`ValueError` naming the offending record for every
    malformed shape that would otherwise corrupt the read set silently:

    * a header immediately followed by another header or EOF (the record
      would become a zero-length read),
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


def read_fasta_reference(source):
    """``(names, codes, lengths)`` of a FASTA path (opened as text, with
    universal newlines) or text handle, by :func:`fasta_records`."""
    if not hasattr(source, "read"):
        with open(source) as fh:
            return read_fasta_reference(fh)
    names, seqs = [], []
    for name, seq in fasta_records(source):
        names.append(name)
        seqs.append(encode(seq))
    codes = np.concatenate(seqs) if seqs else np.empty(0, np.uint8)
    return names, codes, np.array([s.shape[0] for s in seqs],
                                  dtype=np.int64)
