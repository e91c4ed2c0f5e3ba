"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


def test_simulate_writes_fasta(tmp_path, capsys):
    out = tmp_path / "reads.fa"
    rc = main(["simulate", str(out), "--genome-length", "5000",
               "--depth", "5", "--error-rate", "0.0", "--seed", "3"])
    assert rc == 0
    assert out.exists()
    text = out.read_text()
    assert text.startswith(">")
    assert "wrote" in capsys.readouterr().out


def test_assemble_end_to_end(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    layout = tmp_path / "layout.tsv"
    main(["simulate", str(reads), "--genome-length", "8000",
          "--depth", "10", "--error-rate", "0.0", "--seed", "1"])
    rc = main(["assemble", str(reads), "--nprocs", "4", "--fuzz", "20",
               "--depth-hint", "10", "--error-hint", "0.0",
               "--layout", str(layout)])
    assert rc == 0
    lines = layout.read_text().splitlines()
    assert lines[0] == "contig\tposition\tread\torientation"
    assert len(lines) > 1
    out = capsys.readouterr().out
    assert "nnz(S)" in out and "contigs" in out


def test_assemble_empty_input_reports_zero_contigs(tmp_path, capsys):
    reads = tmp_path / "empty.fa"
    reads.write_text("")
    layout = tmp_path / "layout.tsv"
    rc = main(["assemble", str(reads), "--layout", str(layout)])
    assert rc == 0
    assert layout.read_text() == "contig\tposition\tread\torientation\n"
    assert f"wrote {layout}: 0 contigs\n" in capsys.readouterr().out


def test_stats_command(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    rc = main(["stats", str(reads), "--nprocs", "1", "--fuzz", "20",
               "--machine", "summit", "--depth-hint", "8",
               "--error-hint", "0.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Summit CPU" in out
    assert "TrReduction" in out


def test_stats_blocked_mode(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    rc = main(["stats", str(reads), "--nprocs", "4", "--fuzz", "20",
               "--align-mode", "chain", "--depth-hint", "8",
               "--error-hint", "0.0", "--overlap-mode", "blocked",
               "--n-strips", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overlap_mode: blocked (3 strips)" in out
    assert "peak live matrix bytes per stage:" in out
    assert "SpGEMM" in out


@pytest.mark.parametrize("mode, share", [
    ("monolithic", "candidate unused: monolithic runs one strip"),
    ("blocked", "candidate 32.0 MiB"),
])
def test_stats_marks_where_the_budget_applies(tmp_path, capsys, mode, share):
    """The budget's candidate half sizes strips under ``blocked`` only;
    under ``monolithic`` the budget line says the half goes unused."""
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    rc = main(["stats", str(reads), "--nprocs", "4", "--fuzz", "20",
               "--align-mode", "chain", "--depth-hint", "8",
               "--error-hint", "0.0", "--overlap-mode", mode,
               "--memory-budget", "64M"])
    assert rc == 0
    out = capsys.readouterr().out
    assert (f"memory budget: 64.0 MiB ({share}, tables 16.0 MiB, "
            f"headroom 16.0 MiB)") in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_refuses_the_mmap_read_store(capsys):
    """``--read-store`` accepts ``inmem`` only."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["assemble", "x.fa", "--read-store",
                                   "mmap"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--read-store" in err and "'mmap'" in err


def test_parser_defaults():
    args = build_parser().parse_args(["assemble", "x.fa"])
    assert args.k == 17 and args.nprocs == 1
    assert args.align_mode == "xdrop"  # the PipelineConfig default


def test_stats_prints_spgemm_routing_and_work(tmp_path, capsys):
    """The masked engine's routing (block products per path) and its exact
    work counters reach ``repro stats`` next to the A scan's lookup
    counters."""
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    common = ["stats", str(reads), "--nprocs", "1", "--fuzz", "20",
              "--depth-hint", "8", "--error-hint", "0.0",
              "--overlap-mode", "monolithic"]
    assert main(common + ["--spgemm-impl", "masked"]) == 0
    out = capsys.readouterr().out
    assert "spgemm_impl: masked" in out
    assert "SpGEMM        masked_dot=1\n" in out
    work = out.split("exact work per stage")[1]
    assert re.search(r"CreateSpMat   leftover=\d+  probes=\d+  windows=\d+",
                     work)
    assert "SpGEMM        probes=" in work
    assert "TrReduction   products=" in work


def test_stats_prints_kmer_engine(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    rc = main(["stats", str(reads), "--nprocs", "1", "--fuzz", "20",
               "--depth-hint", "8", "--error-hint", "0.0",
               "--kmer-impl", "batch"])
    assert rc == 0
    assert "kmer_impl: batch" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["stats", "serve"])
@pytest.mark.parametrize("flag, value", [("--align-impl", "loop"),
                                         ("--kmer-impl", "loop"),
                                         ("--spgemm-impl", "esc"),
                                         ("--executor", "thread")])
def test_reference_engines_are_refused_by_name(command, flag, value,
                                               capsys):
    """The per-pair aligner, the Bloom-filtered counter and the unmasked
    product are test-suite references, not engines a run can pick; the
    thread pool is gone."""
    argv = [command] if command == "serve" else [command, "x.fa"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and repr(value) in err


def test_parser_memory_budget_suffixes():
    args = build_parser().parse_args(
        ["stats", "x.fa", "--memory-budget", "64M"])
    assert args.memory_budget == 64 * 2**20
    args = build_parser().parse_args(
        ["stats", "x.fa", "--memory-budget", "123456"])
    assert args.memory_budget == 123456
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["stats", "x.fa", "--memory-budget", "lots"])
    # Nonpositive values die at the parser, not deep inside run_pipeline.
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["stats", "x.fa", "--memory-budget", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stats", "x.fa", "--n-strips", "0"])
    for workers in ("0", "-3"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "x.fa", "--workers", workers])


def test_closed_pipe_is_not_an_error(tmp_path):
    """Regression: ``repro stats reads.fa | head`` ended in a
    BrokenPipeError traceback and exit code 1."""
    import os
    import subprocess
    import sys

    import repro

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "simulate", str(tmp_path / "r.fa"),
         "--genome-length", "3000", "--depth", "3", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before anything is written
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0
    assert "Traceback" not in stderr and "BrokenPipe" not in stderr
