"""The option table (repro.options): one suite for every axis.

Each test is parametrised over ``AXES``, so a new row is covered the
moment it is declared and no per-axis copy of these checks exists.
"""

import dataclasses
import glob
import os
import re

import numpy as np
import pytest

from repro import options
from repro.cli import build_parser, main
from repro.core.overlap import (align_candidates, build_a_matrix,
                                candidate_overlaps)
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.semirings import A_NFIELDS, C_NFIELDS, R_NFIELDS
from repro.core.transitive_reduction import transitive_reduction
from repro.dsparse.distmat import DistMat
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm
from repro.options import (AXES, ALIGN_IMPL, KMER_IMPL, SPGEMM_IMPL,
                           WORKERS)
from repro.seqs.fasta import ReadSet
from repro.seqs.kmer_counter import count_kmers
from repro.service import AssemblyState, ServiceConfig, refresh

ENV_AXES = [a for a in AXES if a.env]
#: Axes for which some value is invalid (free-form strings accept anything).
STRICT_AXES = [a for a in AXES if a.choices or a is WORKERS]


def _params(axes):
    return pytest.mark.parametrize("axis", axes, ids=[a.name for a in axes])


def _two_values(axis):
    """Two valid values of ``axis``, distinct unless it has one choice."""
    if axis.choices:
        return axis.choices[0], axis.choices[-1]
    return {"workers": (3, 5),
            "fault_plan": ("exec.chunk:exc@2", "summa.block:exc@1")
            }.get(axis.name, ("/some/dir", "/other/dir"))


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for axis in ENV_AXES:
        monkeypatch.delenv(axis.env, raising=False)


# -- Axis.resolve ---------------------------------------------------------------

@_params(AXES)
def test_default_and_explicit(axis):
    assert axis.resolve() == axis.default
    assert axis.resolve(axis.unset) == axis.default
    for value in _two_values(axis):
        assert axis.resolve(value) == value


@_params(ENV_AXES)
def test_env_override_and_precedence(axis, monkeypatch):
    first, second = _two_values(axis)
    monkeypatch.setenv(axis.env, f"  {str(first).upper()} ")
    assert axis.resolve() == first
    assert axis.resolve(axis.unset) == first
    assert axis.resolve(second) == second      # explicit beats env
    monkeypatch.setenv(axis.env, " AUTO ")      # "auto" in env means unset
    assert axis.resolve() == axis.default


@_params(STRICT_AXES)
def test_unknown_value_is_refused_by_name(axis, monkeypatch):
    with pytest.raises(ValueError) as exc:
        axis.resolve("bogus")
    for part in (axis.name, axis.flag, axis.accepts):
        assert part in str(exc.value)
    if axis.env:
        monkeypatch.setenv(axis.env, "Bogus")
        with pytest.raises(ValueError) as exc:
            axis.resolve()
        for part in (axis.name, axis.env, axis.accepts):
            assert part in str(exc.value)


def test_workers_below_one_are_refused_by_name(monkeypatch):
    """A worker count below 1 is an error, not a silent serial run."""
    for value in (0, -3, "0"):
        with pytest.raises(ValueError) as exc:
            WORKERS.resolve(value)
        for part in ("workers", "--workers", "INT ≥ 1"):
            assert part in str(exc.value)
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ValueError) as exc:
        WORKERS.resolve()
    for part in ("workers", "REPRO_WORKERS", "INT ≥ 1"):
        assert part in str(exc.value)


def test_thread_executor_is_refused_by_name(monkeypatch):
    """Two executors remain; ``thread`` names neither."""
    assert options.EXECUTOR.choices == ("serial", "process")
    monkeypatch.setenv("REPRO_EXECUTOR", "thread")
    with pytest.raises(ValueError) as exc:
        PipelineConfig().resolved()
    for part in ("executor", "'thread'", "REPRO_EXECUTOR",
                 "serial, process, auto"):
        assert part in str(exc.value)


def test_empty_fault_plan_is_explicit(monkeypatch):
    """``""`` pins fault-free: it must not fall through to the env."""
    monkeypatch.setenv("REPRO_FAULT_SPEC", "exec.chunk:exc@1")
    assert options.FAULT_PLAN.resolve("") == ""


# -- the table vs. the config classes and the CLI -------------------------------

def _defaults(cls):
    inst = cls()
    return {f.name: getattr(inst, f.name) for f in dataclasses.fields(cls)}


def test_table_matches_config_fields():
    pipeline, service = _defaults(PipelineConfig), _defaults(ServiceConfig)
    for axis in AXES:
        owner = pipeline if axis.pipeline else service
        assert owner[axis.name] == axis.unset, axis.name
    # ... and vice versa: no "auto" field exists outside the table.
    named = {a.name for a in AXES}
    for owner in (pipeline, service):
        assert {n for n, v in owner.items() if v == "auto"} <= named
    assert len(named) == len(AXES) == len({a.flag for a in AXES})
    envs = [a.env for a in ENV_AXES]
    assert len(set(envs)) == len(envs) == 5


@pytest.mark.parametrize("command", ["assemble", "stats", "serve"])
def test_cli_flags_come_from_the_table(command):
    argv = [command] if command == "serve" else [command, "x.fa"]
    args = build_parser().parse_args(argv)
    for axis in AXES:
        on_command = axis.service if command == "serve" else axis.pipeline
        assert hasattr(args, axis.name) == on_command, axis.name
        if on_command:
            assert getattr(args, axis.name) == axis.unset
            first = _two_values(axis)[0]
            parsed = build_parser().parse_args(argv + [axis.flag, str(first)])
            assert getattr(parsed, axis.name) == first
    # Every other shared knob reads its default from the config classes.
    for owner in (PipelineConfig, ServiceConfig):
        for name, default in _defaults(owner).items():
            if hasattr(args, name):
                assert getattr(args, name) == default, name


def test_readme_option_table_is_generated():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"<!-- options:begin -->\n(.*?)\n<!-- options:end -->",
                      text, re.S)
    assert block, "README.md lost its options markers"
    assert block.group(1) == options.markdown_table()


def test_cited_paths_exist():
    """Every repo path (or glob, or bare ``bench_*.py`` name) the README,
    the CI workflow and the verify skill cite exists, so a deletion cannot
    leave a dead recipe behind."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    cited = re.compile(r"(?<![\w/])(?:src|tests|bench|benchmarks|examples)/"
                       r"[\w./*-]*\w|\bbench_\w+\.py")
    for doc in ("README.md", ".github/workflows/ci.yml",
                ".claude/skills/verify/SKILL.md"):
        with open(os.path.join(root, doc), encoding="utf-8") as fh:
            paths = set(cited.findall(fh.read()))
        for path in sorted(paths):
            if path.startswith("benchmarks/results"):
                continue        # gitignored output, absent from a checkout
            if path.startswith("bench_"):
                path = os.path.join("benchmarks", path)
            assert glob.glob(os.path.join(root, path)), \
                f"{doc} cites {path}, which does not exist"


# -- the one-choice engine axes -------------------------------------------------

#: The reference engines each engine axis used to accept; they live in
#: ``tests/oracles`` now.
REFERENCES = [(ALIGN_IMPL, "loop"), (KMER_IMPL, "loop"), (SPGEMM_IMPL, "esc")]

#: The engine values the benchmark pins (``bench/workloads.py``).
BENCH_PINS = {"align_impl": "batch", "kmer_impl": "batch",
              "spgemm_impl": "masked"}


def _keyword_calls(impl: dict):
    """The five stage calls that keep an engine keyword, each handed
    ``impl`` (``{"impl": ...}`` / ``{"spgemm_impl": ...}`` as it applies)
    on inputs too small to cost anything."""
    reads = ReadSet(["a"], [np.zeros(30, dtype=np.uint8)])
    grid = ProcessGrid2D(1)

    def comm():
        return SimComm(1, CommTracker(1))

    table = count_kmers(reads, 5, comm())
    A = DistMat.empty((1, len(table)), grid, A_NFIELDS)
    kmer = {"impl": impl["kmer_impl"]}
    spgemm = {"spgemm_impl": impl["spgemm_impl"]}
    return [
        lambda: count_kmers(reads, 5, comm(), **kmer),
        lambda: build_a_matrix(reads, table, grid, comm(), **kmer),
        lambda: candidate_overlaps(A, comm(), **spgemm),
        lambda: align_candidates(DistMat.empty((1, 1), grid, C_NFIELDS),
                                 reads, 5, comm(),
                                 impl=impl["align_impl"]),
        lambda: transitive_reduction(DistMat.empty((1, 1), grid, R_NFIELDS),
                                     comm(), **spgemm),
    ]


@pytest.mark.parametrize("axis, value", REFERENCES,
                         ids=[a.name for a, _ in REFERENCES])
def test_reference_engines_are_refused_by_name(axis, value):
    """Each engine axis has one choice; its old reference value is refused
    by name by the config and by every stage keyword that names the axis
    (the CLI flags: ``test_cli.py``)."""
    assert axis.choices == (axis.default,)
    with pytest.raises(ValueError) as exc:
        PipelineConfig(**{axis.name: value}).resolved()
    for part in (axis.name, repr(value), axis.accepts):
        assert part in str(exc.value)
    calls = _keyword_calls({**BENCH_PINS, axis.name: value})
    refused = 0
    for call in calls:
        try:
            call()
        except ValueError as err:
            assert f"unknown {axis.name} {value!r}" in str(err)
            refused += 1
    assert refused == {"align_impl": 1, "kmer_impl": 2,
                       "spgemm_impl": 2}[axis.name]


def test_bench_pins_still_resolve():
    """What ``bench/`` passes — the config fields and the five stage
    keywords — is accepted until the axes themselves go."""
    cfg = PipelineConfig(**BENCH_PINS).resolved()
    assert {name: getattr(cfg, name) for name in BENCH_PINS} == BENCH_PINS
    for call in _keyword_calls(BENCH_PINS):
        call()


# -- PipelineConfig.resolved / run_pipeline -------------------------------------

def test_resolved_leaves_nothing_open(monkeypatch):
    cfg = PipelineConfig().resolved()
    for axis in AXES:
        if axis.pipeline and axis.name != "executor":
            assert getattr(cfg, axis.name) == axis.default
    assert cfg.executor == "serial"
    assert cfg.resolved() == cfg
    assert PipelineConfig(workers=4).resolved().executor == "process"
    monkeypatch.setenv("REPRO_WORKERS", "abc")
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        PipelineConfig().resolved()


@pytest.mark.parametrize("field,value", [("n_strips", 3),
                                         ("checkpoint_dir", "/tmp/ck")])
def test_blocked_only_options_are_refused_under_monolithic(field, value,
                                                           monkeypatch):
    with pytest.raises(ValueError) as exc:
        PipelineConfig(**{field: value}).resolved()
    assert field in str(exc.value) and "monolithic" in str(exc.value)
    PipelineConfig(overlap_mode="blocked", **{field: value}).resolved()
    monkeypatch.setenv("REPRO_OVERLAP_MODE", "blocked")
    PipelineConfig(**{field: value}).resolved()


BAD_HINTS = [dict(error_hint=1.5), dict(error_hint=float("nan")),
             dict(depth_hint=-3), dict(depth_hint=0)]


@pytest.mark.parametrize("hints", BAD_HINTS, ids=str)
def test_unusable_bound_hints_are_refused_by_name(hints):
    """Regression: these hints failed deep inside counting (``cannot
    convert float NaN to integer``) instead of by name."""
    name = next(iter(hints))
    with pytest.raises(ValueError, match=name):
        PipelineConfig(**hints).resolved()
    # An explicit kmer_upper never consults the hints.
    PipelineConfig(kmer_upper=8, **hints).resolved()


@pytest.mark.parametrize("command", ["stats", "serve"])
def test_cli_refuses_bad_hints_before_reading(command, tmp_path):
    """``serve`` refuses in the AssemblyService constructor."""
    missing = str(tmp_path / "missing.fa")
    argv = ([command, missing] if command == "stats"
            else [command, "--port", "0", "--initial", missing])
    with pytest.raises(ValueError, match="error_hint"):
        main(argv + ["--error-hint", "1.5"])


def test_service_drops_blocked_only_options(clean_dataset):
    _genome, reads, _layout = clean_dataset
    pcfg = PipelineConfig(nprocs=4, align_mode="chain", depth_hint=12,
                          error_hint=0.0, fuzz=20, overlap_mode="blocked",
                          n_strips=3, checkpoint_dir="/nonexistent/ck")
    state = refresh(AssemblyState.initial(), reads,
                    ServiceConfig(pipeline=pcfg))
    assert state.version == 1 and state.counts["n_reads"] == len(reads)


def test_run_pipeline_reads_each_env_var_once(clean_dataset, monkeypatch):
    _genome, reads, _layout = clean_dataset
    monkeypatch.setenv("REPRO_OVERLAP_MODE", "blocked")
    lookups = []
    real_get = os.environ.get

    def counting_get(key, default=None):
        if key.startswith("REPRO_"):
            lookups.append(key)
        return real_get(key, default)

    monkeypatch.setattr(os.environ, "get", counting_get)
    result = run_pipeline(reads, PipelineConfig(
        nprocs=4, align_mode="chain", depth_hint=12, error_hint=0.0,
        fuzz=20))
    assert result.config.overlap_mode == "blocked"
    assert sorted(lookups) == sorted(a.env for a in ENV_AXES)
