"""Genomics substrate: DNA primitives, k-mers, FASTA I/O, read simulation,
minimizers, and the distributed k-mer counter."""

from .dna import (ALPHABET, GenomeSpec, decode, encode, random_genome,
                  revcomp_codes)
from .kmers import MAX_K, splitmix64
from .fasta import ReadSet, read_fasta, write_fasta
from .simulator import ErrorModel, ReadSimSpec, TrueLayout, simulate_reads
from .minimizers import minimizers_batch
from .seeding import (FullKScheme, MinimizerScheme, SeedScheme,
                      SyncmerScheme, make_scheme)
from .kmer_counter import KmerTable, count_kmers, reliable_upper_bound

__all__ = [
    "ALPHABET", "GenomeSpec", "decode", "encode",
    "random_genome", "revcomp_codes",
    "MAX_K", "splitmix64",
    "ReadSet", "read_fasta", "write_fasta",
    "ErrorModel", "ReadSimSpec", "TrueLayout", "simulate_reads",
    "minimizers_batch",
    "SeedScheme", "FullKScheme", "MinimizerScheme", "SyncmerScheme",
    "make_scheme",
    "KmerTable", "count_kmers", "reliable_upper_bound",
]
