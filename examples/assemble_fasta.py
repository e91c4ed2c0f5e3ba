#!/usr/bin/env python
"""Assemble a FASTA file end to end (layout stage) and write contigs.

Demonstrates the file-based workflow a downstream user would run: reads come
from a FASTA file (here generated on the fly unless one is supplied), the
pipeline builds the string graph, and the contigs — ordered, oriented read
walks — are written to a tab-separated layout file, the same information an
OLC assembler hands to its consensus stage.

Usage::

    python examples/assemble_fasta.py [reads.fa] [out_layout.tsv]
"""

import sys
import tempfile
from pathlib import Path

from repro import (PipelineConfig, extract_contigs, run_pipeline_from_fasta,
                   write_layout)
from repro.seqs import (ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads,
                        write_fasta)


def _make_demo_fasta(path: Path) -> None:
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(
            genome=GenomeSpec(length=40_000, n_repeats=2, repeat_len=1_500,
                              seed=7),
            depth=18, mean_len=1_000, min_len=400,
            error=ErrorModel(rate=0.06), seed=8))
    write_fasta(path, reads)
    print(f"Wrote demo read set: {path} ({len(reads)} reads)")


def main(argv: list[str]) -> None:
    if len(argv) > 1:
        fasta = Path(argv[1])
        if not fasta.exists():
            _make_demo_fasta(fasta)
    else:
        fasta = Path(tempfile.gettempdir()) / "repro_demo_reads.fa"
        _make_demo_fasta(fasta)
    out = Path(argv[2]) if len(argv) > 2 else Path("layout.tsv")

    config = PipelineConfig(k=17, nprocs=4, align_mode="chain",
                            depth_hint=18, error_hint=0.06)
    result = run_pipeline_from_fasta(fasta, config)
    print(f"String graph: {result.nnz_s} entries over {result.n_reads} reads "
          f"({result.tr_rounds} reduction rounds)")

    contigs = extract_contigs(result.string_graph)
    contigs.sort(key=len, reverse=True)
    write_layout(out, contigs)
    multi = sum(1 for c in contigs if len(c) > 1)
    contained = sum(len(c.contained) for c in contigs)
    print(f"Wrote {out}: {len(contigs)} contigs ({multi} with >1 read, "
          f"largest {len(contigs[0])} reads; {contained} contained reads "
          f"placed in their containers' contigs)")


if __name__ == "__main__":
    main(sys.argv)
