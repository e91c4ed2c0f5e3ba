"""Command-line interface.

Four subcommands cover the library's main workflows::

    python -m repro simulate --genome-length 50000 --depth 20 out.fa
    python -m repro assemble reads.fa --nprocs 4 --layout layout.tsv
    python -m repro stats reads.fa --nprocs 4
    python -m repro serve --port 8765 --nprocs 4 --initial reads.fa

``simulate`` writes a synthetic CLR-like read set (with the ground-truth
interval encoded in each read name), ``assemble`` runs the diBELLA 2D
pipeline and writes the contig layout, ``stats`` prints the matrix
statistics and stage breakdown without writing outputs, and ``serve``
starts the long-running incremental assembly service (versioned delta
updates over HTTP, see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .core.contigs import extract_contigs, write_layout
from .core.memory import apportion_budget, format_bytes, parse_bytes
from .core.pipeline import STAGES, PipelineConfig, run_pipeline_from_fasta
from .mpisim.machine import MACHINES
from .options import AXES, add_flags
from .seqs.dna import GenomeSpec, decode
from .seqs.fasta import read_fasta, write_fasta
from .seqs.simulator import ErrorModel, ReadSimSpec, simulate_reads
from .service import AssemblyService, ServiceConfig, make_server

__all__ = ["main", "build_parser"]


def _budget_bytes(text: str) -> int:
    """argparse type for --memory-budget: parse_bytes, must be positive."""
    try:
        value = parse_bytes(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"memory budget must be positive, got {text!r}")
    return value


def _strip_count(text: str) -> int:
    """argparse type for --n-strips: integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"strip count must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="diBELLA 2D reproduction: parallel string graph "
                    "construction and transitive reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic CLR read set")
    sim.add_argument("output", help="output FASTA path")
    sim.add_argument("--genome-length", type=int, default=50_000)
    sim.add_argument("--depth", type=float, default=20.0)
    sim.add_argument("--mean-read-length", type=float, default=1_000.0)
    sim.add_argument("--error-rate", type=float, default=0.1)
    sim.add_argument("--repeats", type=int, default=0,
                     help="number of planted repeat copies")
    sim.add_argument("--repeat-length", type=int, default=2_000)
    sim.add_argument("--seed", type=int, default=0)

    asm = sub.add_parser("assemble", help="run the pipeline, write contigs")
    _add_run_flags(asm)
    asm.add_argument("--layout", default="layout.tsv",
                     help="output contig layout TSV")

    st = sub.add_parser("stats", help="run the pipeline, print statistics")
    _add_run_flags(st)

    scfg = ServiceConfig()
    srv = sub.add_parser("serve",
                         help="run the incremental assembly HTTP service")
    srv.add_argument("--host", default=scfg.host)
    srv.add_argument("--port", type=int, default=scfg.port)
    srv.add_argument("--cache-entries", type=int,
                     default=scfg.cache_entries,
                     help="query cache LRU capacity")
    srv.add_argument("--initial", default=None, metavar="FASTA",
                     help="optional FASTA ingested as the first batch "
                          "before serving")
    _add_run_flags(srv, service=True)
    return parser


def _add_run_flags(p, service: bool = False) -> None:
    """Flags of a command that runs the pipeline.

    The plain parameters take their defaults from :class:`PipelineConfig`;
    every option axis comes from the table (:func:`repro.options.add_flags`),
    ``serve`` taking its service subset.
    """
    cfg = PipelineConfig()
    if not service:
        p.add_argument("reads", help="input FASTA")
        p.add_argument("--machine", choices=sorted(MACHINES), default="cori")
        p.add_argument("--n-strips", type=_strip_count, default=cfg.n_strips,
                       help="explicit strip count for --overlap-mode blocked "
                            "(default: derived from --memory-budget, else 4)")
        p.add_argument("--memory-budget", type=_budget_bytes,
                       default=cfg.memory_budget, metavar="BYTES",
                       help="byte budget for the run's big consumers, e.g. "
                            "64M or 2G: a quarter caps the k-mer engine's "
                            "buffered histograms (sorted runs spill to disk "
                            "beyond it); half drives the strip count under "
                            "--overlap-mode blocked only (monolithic runs "
                            "one strip whatever the budget); the rest is "
                            "headroom")
    p.add_argument("--k", type=int, default=cfg.k)
    p.add_argument("--nprocs", type=int, default=cfg.nprocs,
                   help="simulated process count (perfect square)")
    p.add_argument("--align-mode", choices=("xdrop", "chain"),
                   default=cfg.align_mode)
    p.add_argument("--fuzz", type=int, default=cfg.fuzz)
    p.add_argument("--depth-hint", type=float, default=cfg.depth_hint)
    p.add_argument("--error-hint", type=float, default=cfg.error_hint)
    p.add_argument("--seed-w", type=int, default=cfg.seed_w,
                   help="window parameter of the sketched seed modes "
                        "(k-mers per minimizer window; syncmer submer "
                        "length is k - w + 1); ignored by --seed-mode full")
    add_flags(p, service=service)


def _cmd_simulate(args) -> int:
    spec = ReadSimSpec(
        genome=GenomeSpec(length=args.genome_length,
                          n_repeats=args.repeats,
                          repeat_len=args.repeat_length if args.repeats else 0,
                          seed=args.seed),
        depth=args.depth, mean_len=args.mean_read_length,
        error=ErrorModel(rate=args.error_rate), seed=args.seed + 1)
    _genome, reads, _layout = simulate_reads(spec)
    write_fasta(args.output, reads)
    print(f"wrote {args.output}: {len(reads)} reads, "
          f"{reads.total_bases():,} bases")
    return 0


def _run(args):
    return run_pipeline_from_fasta(args.reads, PipelineConfig.from_args(args))


def _print_counts(title: str, counts: dict[str, dict[str, int]]) -> None:
    if counts:
        print(title)
        for stage in STAGES:
            if stage in counts:
                breakdown = "  ".join(f"{name}={n}" for name, n in
                                      sorted(counts[stage].items()))
                print(f"  {stage:13s} {breakdown}")


def _print_stats(result, machine_name: str) -> None:
    machine = MACHINES[machine_name]
    cfg = result.config
    print(f"reads: {result.n_reads}   reliable k-mers: {result.n_kmers}")
    print(f"align_mode: {cfg.align_mode}")
    notes = {}
    if cfg.overlap_mode == "blocked":
        notes["overlap_mode"] = f" ({result.n_strips} strips)"
    if cfg.seed_mode != "full":
        notes["seed_mode"] = f" (w = {cfg.seed_w})"
    for axis in AXES:
        value = getattr(cfg, axis.name, None)
        if value is not None:
            print(f"{axis.name}: {value}{notes.get(axis.name, '')}")
    if cfg.memory_budget is not None:
        bp = apportion_budget(cfg.memory_budget)
        candidate = (format_bytes(bp.candidate)
                     if cfg.overlap_mode == "blocked"
                     else "unused: monolithic runs one strip")
        print(f"memory budget: {format_bytes(bp.total)} "
              f"(candidate {candidate}, "
              f"tables {format_bytes(bp.tables)}, "
              f"headroom {format_bytes(bp.headroom)})")
    print(f"nnz(C) = {result.nnz_c}  (c = {result.c_density:.1f})")
    print(f"nnz(R) = {result.nnz_r}  (r = {result.r_density:.1f})")
    print(f"nnz(S) = {result.nnz_s}  (s = {result.s_density:.1f}), "
          f"{result.tr_rounds} reduction rounds")
    n_contained = int((result.string_graph.container >= 0).sum())
    print(f"contained reads: {n_contained} of {result.n_reads}")
    _print_counts("kernel work per stage (spgemm block products per path; "
                  "x-drop sweep rounds, cells, words):", result.kernel_counts)
    _print_counts("exact work per stage (k-mer lookup windows, table probes, "
                  "binary-search leftover; masked spgemm products expanded "
                  "by ESC, probes looked up by the dot kernel):",
                  result.work_counts)
    peaks = result.peak_bytes
    if peaks:
        print("peak live matrix bytes per stage:")
        for stage in STAGES:
            if stage in peaks:
                print(f"  {stage:13s} {format_bytes(peaks[stage]):>12s}")
    print(f"modeled stage times on {machine.name}:")
    for stage, secs in result.modeled_time(machine).items():
        print(f"  {stage:13s} {secs:10.4f} s")


def _cmd_assemble(args) -> int:
    result = _run(args)
    _print_stats(result, args.machine)
    contigs = extract_contigs(result.string_graph)
    contigs.sort(key=len, reverse=True)
    write_layout(args.layout, contigs)
    largest = f" (largest {len(contigs[0])} reads)" if contigs else ""
    print(f"wrote {args.layout}: {len(contigs)} contigs{largest}")
    return 0


def _cmd_stats(args) -> int:
    _print_stats(_run(args), args.machine)
    return 0


def _cmd_serve(args) -> int:
    # The fault plan is the service's (persistent across ingests), not
    # each pipeline run's.
    service = AssemblyService(ServiceConfig(
        host=args.host, port=args.port, refresh_mode=args.refresh_mode,
        cache_entries=args.cache_entries,
        pipeline=PipelineConfig.from_args(args, fault_plan=None)),
        fault_spec=args.fault_plan)
    if args.initial is not None:
        reads = read_fasta(args.initial)
        summary = service.ingest(reads.names,
                                 [decode(s) for s in reads.seqs])
        print(f"ingested {summary['ingested']} reads from {args.initial} "
              f"(version {summary['version']}, "
              f"{summary['refresh_seconds']:.2f}s)")
    server = make_server(service)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} "
          f"(POST /reads, GET /version /stats /contigs /overlaps/<id>)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = {"simulate": _cmd_simulate, "assemble": _cmd_assemble,
               "stats": _cmd_stats, "serve": _cmd_serve}[args.command]
    try:
        rc = command(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader went away (``repro stats ... | head``): not an error.
        # Close stdout quietly so the exit-time flush cannot raise again.
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
