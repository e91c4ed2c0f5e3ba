"""Unit tests for FASTA I/O and the parallel-I/O record partitioning."""

import io
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.seqs.dna import decode, encode
from repro.seqs.fasta import ReadSet, read_fasta, write_fasta


def _toy_reads():
    return ReadSet(["r0", "r1", "r2"],
                   [encode("ACGTACGTAA"), encode("TTTTGGGGCCCCAAAA"),
                    encode("ACGT")])


def test_write_read_roundtrip(tmp_path):
    reads = _toy_reads()
    path = tmp_path / "toy.fa"
    write_fasta(path, reads, width=7)  # exercise wrapping
    back = read_fasta(path)
    assert back.names == reads.names
    for a, b in zip(back.seqs, reads.seqs):
        assert np.array_equal(a, b)


def test_read_fasta_from_handle():
    text = ">a desc ignored\nACGT\nACGT\n>b\nTTT\n"
    rs = read_fasta(io.StringIO(text))
    assert rs.names == ["a", "b"]
    assert decode(rs.seqs[0]) == "ACGTACGT"
    assert decode(rs.seqs[1]) == "TTT"


def test_read_fasta_blank_lines_and_case():
    rs = read_fasta(io.StringIO(">x\n\nacgt\n\nACGT\n"))
    assert decode(rs.seqs[0]) == "ACGTACGT"


def test_readset_helpers():
    reads = _toy_reads()
    assert len(reads) == 3
    assert reads.total_bases() == 10 + 16 + 4
    assert np.array_equal(reads.lengths, [10, 16, 4])
    sub = reads.subset(np.array([2, 0]))
    assert sub.names == ["r2", "r0"]


def test_readset_validation():
    with pytest.raises(ValueError):
        ReadSet(["a"], [])


# -- malformed-input rejection ---------------------------------------------
#
# Regression: read_fasta validated `len(seqs) != len(names)` after the
# parse loop, but the loop appended an empty array for a sequence-less
# record, so the check could never fire and zero-length reads flowed
# straight into k-mer extraction.

def test_read_fasta_rejects_empty_record_issue_repro():
    # The exact shape from the issue: three headers, one sequence.
    # Previously parsed as 3 reads of lengths 0 / 4 / 0.
    with pytest.raises(ValueError, match="'a'"):
        read_fasta(io.StringIO(">a\n>b\nACGT\n>c\n"))


def test_read_fasta_rejects_trailing_empty_record():
    with pytest.raises(ValueError, match="'c'"):
        read_fasta(io.StringIO(">b\nACGT\n>c\n"))


def test_read_fasta_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate record name 'x'"):
        read_fasta(io.StringIO(">x\nACGT\n>x\nTTTT\n"))


def test_read_fasta_rejects_nameless_header():
    with pytest.raises(ValueError, match="header with no name"):
        read_fasta(io.StringIO(">\nACGT\n"))


def test_read_fasta_rejects_data_before_header():
    with pytest.raises(ValueError, match="before any '>' header"):
        read_fasta(io.StringIO("ACGT\n>a\nACGT\n"))


def test_read_fasta_refuses_gzip_by_name(tmp_path):
    """Regression: a gzip file used to die with a bare UnicodeDecodeError."""
    import gzip
    path = tmp_path / "reads.fa.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(">a\nACGT\n")
    with pytest.raises(ValueError, match="gzip-compressed input is not "
                                         "supported; decompress first"):
        read_fasta(path)


def test_read_fasta_refuses_fastq_by_name(tmp_path):
    """Regression: FASTQ used to be reported as "sequence data before any
    '>' header"."""
    fastq = "@r0\nACGT\n+\nIIII\n"
    with pytest.raises(ValueError, match="looks like FASTQ; only FASTA is "
                                         "supported"):
        read_fasta(io.StringIO(fastq))
    path = tmp_path / "reads.fq"
    path.write_text(fastq)
    with pytest.raises(ValueError, match="looks like FASTQ"):
        read_fasta(path)


def test_read_fasta_empty_file_is_empty_readset():
    rs = read_fasta(io.StringIO(""))
    assert len(rs) == 0


def test_pipeline_guard_rejects_zero_length_reads():
    """Defence in depth: even a hand-built ReadSet with an empty read is
    refused by run_pipeline before k-mer extraction, naming the read."""
    from repro.core.pipeline import PipelineConfig, run_pipeline
    rs = ReadSet(["ok", "empty"],
                 [encode("ACGTACGTACGTACGTACGT"),
                  np.zeros(0, dtype=np.uint8)])
    with pytest.raises(ValueError, match="'empty'"):
        run_pipeline(rs, PipelineConfig(k=5, nprocs=1))


# -- property: write/read round trip ----------------------------------------

_NAME = st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True)
_SEQ = st.text(alphabet="ACGT", min_size=1, max_size=200)


@settings(max_examples=50, deadline=None)
@given(records=st.lists(st.tuples(_NAME, _SEQ), min_size=0, max_size=8,
                        unique_by=lambda r: r[0]),
       width=st.integers(min_value=1, max_value=100))
def test_write_read_roundtrip_property(records, width):
    rs = ReadSet([n for n, _ in records], [encode(s) for _, s in records])
    buf = io.StringIO()
    write_fasta(buf, rs, width=width)
    back = read_fasta(io.StringIO(buf.getvalue()))
    assert back.names == rs.names
    for a, b in zip(back.seqs, rs.seqs):
        assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(records=st.lists(st.tuples(_NAME, _SEQ), min_size=1, max_size=5,
                        unique_by=lambda r: r[0]),
       data=st.data())
def test_read_fasta_ignores_blank_lines_and_descriptions(records, data):
    lines = []
    for name, seq in records:
        desc = data.draw(st.sampled_from(["", " description words"]))
        lines.append(f">{name}{desc}")
        pos = 0
        while pos < len(seq):
            step = data.draw(st.integers(min_value=1, max_value=len(seq)))
            lines.append(seq[pos:pos + step])
            pos += step
            if data.draw(st.booleans()):
                lines.append("")  # stray blank line
    rs = read_fasta(io.StringIO("\n".join(lines) + "\n"))
    assert rs.names == [n for n, _ in records]
    for arr, (_, seq) in zip(rs.seqs, records):
        assert decode(arr) == seq


def test_readset_concat_is_copy_on_write():
    """concat() builds a new buffer: the older set keeps its length and
    its bytes, and shares no memory with the result (the versioned-snapshot
    property the service relies on)."""
    a = _toy_reads()
    before = [arr.copy() for arr in a.soa()]
    b = ReadSet(["x"], [np.array([1, 2, 3], dtype=np.uint8)])
    both = a.concat(b)
    assert len(both) == len(a) + len(b)
    assert both.names == a.names + b.names
    assert [decode(s) for s in both] == [decode(s) for s in a] + ["CGT"]

    assert len(a) == 3 and len(b) == 1
    for got, want in zip(a.soa(), before):
        assert np.array_equal(got, want)
    assert not np.shares_memory(both.soa()[0], a.soa()[0])


def test_readset_is_one_buffer_across_pickle():
    """An in-memory set is its codes/offsets/lengths arrays: ``soa()``
    returns the same objects on every call, ``reads[i]`` is a view into
    the code buffer, and a pickle round trip keeps both."""
    reads = _toy_reads()
    assert all(x is y for x, y in zip(reads.soa(), reads.soa()))
    back = pickle.loads(pickle.dumps(reads))
    assert back.names == reads.names
    for got, want in zip(back.soa(), reads.soa()):
        assert np.array_equal(got, want)
    for rs in (reads, back):
        for i in range(len(rs)):
            assert np.shares_memory(rs[i], rs.soa()[0])
            assert np.array_equal(rs[i], reads.seqs[i])


# -- property: the chunked parser equals the line-by-line reference ---------

_POOL = st.sampled_from(["r0", "r1", "a"])     # draws repeat: duplicates
_CLEAN = "ACGTNacgtn"
_DIRTY = _CLEAN + "RYKMSWBDHVrykU-* \t\r\xe9"


@st.composite
def _fasta_text(draw):
    """FASTA text with wrapped, blank-line-split, lowercase and N-bearing
    records and description text; a "dirty" file adds CRLF, CR-only or padded
    lines, other IUPAC letters, CR, tabs and non-ASCII; a "broken" one adds
    the malformed shapes the parser refuses: an empty record, a nameless
    header, a repeated name, data, FASTQ or a BOM before the first header,
    a header at EOF."""
    dirty, broken = draw(st.booleans()), draw(st.integers(0, 2)) == 0

    def rarely(n=4):
        return draw(st.integers(0, n)) == 0

    lines = []
    if broken and rarely(2):
        lines.append(draw(st.sampled_from(["ACGT", "@r0", "  ", "",
                                           "\ufeff>x"])))
    for _ in range(draw(st.integers(0, 6))):
        name = draw(_POOL if broken and rarely(3) else _NAME)
        if broken and rarely():
            name = draw(st.sampled_from(["", " ", "\t"]))
        desc = draw(st.sampled_from(["", "", " desc words", "\tlen=5 x"]))
        lines.append(">" + name + desc)
        alphabet = _DIRTY if dirty and rarely(1) else _CLEAN
        seq = draw(st.text(alphabet=alphabet, min_size=1, max_size=90))
        if broken and rarely():
            seq = ""
        width = draw(st.integers(1, 30))
        for off in range(0, len(seq), width):
            line = seq[off:off + width]
            if dirty and rarely(6):
                line = " " + line + "  "
            lines.append(line)
            if rarely(7):
                lines.append("")
    eol = draw(st.sampled_from(["\r\n", "\r"])) if dirty and rarely(2) \
        else "\n"
    text = eol.join(lines)
    if lines and not (broken and rarely()):
        text += eol
    return text


def _parsed_or_error(parse):
    try:
        return parse()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_fasta_text(),
       chunk=st.sampled_from([1, 2, 3, 5, 8, 17, 64, 1 << 20]))
def test_chunked_parser_matches_line_reference(text, chunk):
    """``read_fasta`` (path and text handle) gives the reference's names,
    codes and lengths byte for byte, or raises its ``ValueError`` word for
    word — with chunks cut down to a few bytes, so records straddle every
    boundary."""
    import tempfile
    from unittest import mock

    from repro.seqs import fasta
    from oracles.fasta import read_fasta_reference

    def arrays(rs):
        codes, _offsets, lengths = rs.soa()
        return rs.names, np.asarray(codes), np.asarray(lengths)

    def same(got, want):
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(fasta, "_CHUNK", chunk):
        path = f"{tmp}/reads.fa"
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        want_handle = _parsed_or_error(
            lambda: read_fasta_reference(io.StringIO(text)))
        same(_parsed_or_error(lambda: arrays(read_fasta(io.StringIO(text)))),
             want_handle)
        want_path = _parsed_or_error(lambda: read_fasta_reference(path))
        same(_parsed_or_error(lambda: arrays(read_fasta(path))), want_path)


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
def test_binary_input_is_cut_at_every_record(monkeypatch, eol):
    """A binary handle is cut before each header line whatever its line
    ends, so a CR-only file is parsed a record at a time, not whole."""
    from repro.seqs import fasta
    monkeypatch.setattr(fasta, "_CHUNK", 4)
    records = [b">r%d" % i + eol + b"ACGTACGT" + eol + b"GG" + eol
               for i in range(5)]
    chunks = list(fasta._chunks(io.BytesIO(b"".join(records))))
    assert [c for c, _, _ in chunks] == records
    assert [at_eof for _, _, at_eof in chunks] == [False] * 4 + [True]
