"""Unit tests for FASTA I/O and the parallel-I/O record partitioning."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.seqs.dna import decode, encode
from repro.seqs.fasta import (ReadSet, chunked_read_ranges, read_fasta,
                              read_fasta_to_store, write_fasta)


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


def test_chunked_read_ranges_cover_all_records():
    starts = np.array([0, 100, 220, 300, 480, 600])
    ranges = chunked_read_ranges(starts, file_size=700, nprocs=4)
    covered = []
    for lo, hi in ranges:
        covered.extend(range(lo, hi))
    assert covered == list(range(6))


def test_chunked_read_ranges_record_owned_by_chunk_containing_start():
    # Chunk boundaries at 0, 175, 350, 525, 700 for P=4.
    starts = np.array([0, 100, 220, 300, 480, 600])
    ranges = chunked_read_ranges(starts, file_size=700, nprocs=4)
    assert ranges[0] == (0, 2)   # starts 0, 100 < 175
    assert ranges[1] == (2, 4)   # 220, 300 < 350
    assert ranges[2] == (4, 5)   # 480 < 525
    assert ranges[3] == (5, 6)   # 600


def test_chunked_read_ranges_more_procs_than_records():
    starts = np.array([0, 50])
    ranges = chunked_read_ranges(starts, file_size=100, nprocs=8)
    total = sum(hi - lo for lo, hi in ranges)
    assert total == 2


def test_readset_extend_invalidates_soa_cache():
    """Regression: extend() must drop the cached SoA view.

    The (codes, offsets, lengths) tuple is built lazily and cached; before
    the invalidation, appending reads kept serving the stale buffers and
    the batched engines silently ignored every read added after the first
    soa() call.
    """
    rs = _toy_reads()
    codes0, offsets0, lengths0 = rs.soa()     # prime the cache
    n0, total0 = len(rs), codes0.shape[0]

    extra = np.array([0, 1, 2, 3, 3, 2], dtype=np.uint8)
    rs.extend(["late"], [extra])

    codes1, offsets1, lengths1 = rs.soa()
    assert len(rs) == n0 + 1
    assert lengths1.shape[0] == n0 + 1
    assert codes1.shape[0] == total0 + extra.shape[0]
    assert lengths1[-1] == extra.shape[0]
    assert np.array_equal(codes1[offsets1[-1]:], extra)
    # Pre-existing reads keep their indices and bytes.
    assert np.array_equal(codes1[:total0], codes0)
    assert np.array_equal(lengths1[:n0], lengths0)
    assert np.array_equal(offsets1[:n0], offsets0)
    # Length mismatch is rejected before any mutation.
    with pytest.raises(ValueError):
        rs.extend(["a", "b"], [extra])
    assert len(rs) == n0 + 1


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
    with pytest.raises(ValueError, match="gzip-compressed"):
        read_fasta_to_store(path, str(tmp_path / "store"))
    assert not (tmp_path / "store").exists()


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
        read_fasta_to_store(path, str(tmp_path / "store"))


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
    """concat() builds fresh lists; extending either set never leaks into
    the other (the versioned-snapshot property the service relies on)."""
    a = _toy_reads()
    n_a = len(a)
    b = ReadSet(["x"], [np.array([1, 2, 3], dtype=np.uint8)])
    both = a.concat(b)
    assert len(both) == len(a) + len(b)
    assert both.names == a.names + b.names

    both.extend(["y"], [np.array([0], dtype=np.uint8)])
    assert len(a) == n_a and len(b) == 1
    a.extend(["z"], [np.array([2], dtype=np.uint8)])
    assert len(both) == n_a + 2  # unaffected by a's growth
