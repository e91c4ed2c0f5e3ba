"""End-to-end pipeline integration tests."""

import numpy as np
import pytest

from repro import CORI_HASWELL, PipelineConfig, SUMMIT_CPU, run_pipeline, \
    run_pipeline_from_fasta
from repro.core.pipeline import STAGES
from repro.seqs.fasta import write_fasta


def _cfg(P=1, **kw):
    base = dict(k=17, nprocs=P, align_mode="chain", depth_hint=12,
                error_hint=0.0, fuzz=20)
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def clean_run(clean_dataset):
    _genome, reads, _layout = clean_dataset
    return run_pipeline(reads, _cfg(P=4))


def test_pipeline_produces_string_graph(clean_run):
    res = clean_run
    assert res.nnz_s > 0
    assert res.nnz_s <= res.nnz_r
    # S = the graph's dovetail edges + one entry per contained read.
    graph = res.string_graph
    assert graph.n_edges + int((graph.container >= 0).sum()) == res.nnz_s


def test_pipeline_densities_ordered(clean_run):
    # c >= r >= s (pruning at every step).
    assert clean_run.c_density >= clean_run.r_density >= clean_run.s_density


def test_pipeline_c_density_near_2d(clean_dataset, clean_run):
    """On a repeat-free genome, c should approach the ideal 2·depth
    (Ellis et al.'s perfect-overlapper bound, Section V-C)."""
    c = clean_run.c_density
    assert 0.8 * 2 * 12 < c < 3.0 * 2 * 12


def test_pipeline_stage_accounting_present(clean_run):
    comp = clean_run.stage_compute()
    for stage in ("CountKmer", "SpGEMM", "Alignment", "TrReduction"):
        assert comp.get(stage, 0) > 0
    comm = clean_run.tracker.summary()
    for stage in ("CountKmer", "SpGEMM", "ExchangeRead", "TrReduction"):
        assert stage in comm


def test_modeled_times_positive_and_orderable(clean_run):
    for machine in (CORI_HASWELL, SUMMIT_CPU):
        t = clean_run.modeled_time(machine)
        assert all(v >= 0 for v in t.values())
        assert clean_run.modeled_total(machine) == pytest.approx(
            sum(t.values()))
    no_align = clean_run.modeled_time(CORI_HASWELL, include_alignment=False)
    assert "Alignment" not in no_align


def test_pipeline_p_invariance(clean_dataset):
    """The string graph is identical for any process-grid size."""
    _genome, reads, _layout = clean_dataset
    edges = []
    for P in (1, 9):
        res = run_pipeline(reads, _cfg(P=P))
        edges.append(res.string_graph.edge_set())
    assert edges[0] == edges[1]


def test_pipeline_from_fasta(tmp_path, clean_dataset):
    _genome, reads, _layout = clean_dataset
    path = tmp_path / "reads.fa"
    write_fasta(path, reads)
    res = run_pipeline_from_fasta(path, _cfg(P=1))
    assert res.timer.stage_seconds.get("ReadFastq", 0) > 0
    assert res.nnz_s > 0


def test_pipeline_noisy_chain(noisy_dataset):
    _genome, reads, _layout = noisy_dataset
    res = run_pipeline(reads, PipelineConfig(
        k=17, nprocs=4, align_mode="chain", depth_hint=12, error_hint=0.05,
        fuzz=150))
    assert res.nnz_s > 0
    assert res.tr_rounds >= 1


def test_kmer_upper_override(clean_dataset):
    _genome, reads, _layout = clean_dataset
    res = run_pipeline(reads, _cfg(P=1, kmer_upper=3))
    res2 = run_pipeline(reads, _cfg(P=1, kmer_upper=40))
    assert res.n_kmers < res2.n_kmers


def test_stage_names_match_paper():
    assert set(STAGES) == {"Alignment", "ReadFastq", "CountKmer",
                           "CreateSpMat", "SpGEMM", "ExchangeRead",
                           "TrReduction"}


@pytest.mark.parametrize("bad, match", [
    (dict(kmer_batches=0), "kmer_batches"),
    (dict(kmer_batches=-1), "kmer_batches"),
    (dict(kmer_upper=1), "kmer_upper"),
])
def test_bad_counting_parameters_are_refused_by_name(clean_dataset, bad,
                                                     match):
    """A zero or negative round count, or a reliable window with nothing
    in it, used to run to an empty assembly; the config, the pipeline and
    the service (which resolves the same config per refresh) refuse it."""
    from repro.service.config import ServiceConfig
    from repro.service.incremental import refresh
    from repro.service.state import AssemblyState
    _genome, reads, _layout = clean_dataset
    with pytest.raises(ValueError, match=match):
        _cfg(**bad).resolved()
    with pytest.raises(ValueError, match=match):
        run_pipeline(reads.subset(np.arange(8)), _cfg(**bad))
    with pytest.raises(ValueError, match=match):
        refresh(AssemblyState.initial(), reads.subset(np.arange(8)),
                ServiceConfig(pipeline=_cfg(**bad)))
    assert _cfg(kmer_batches=1, kmer_upper=2).resolved().kmer_upper == 2


@pytest.mark.parametrize("bad, match", [
    (dict(n_strips=0), "n_strips"),
    (dict(n_strips=-3), "n_strips"),
    (dict(memory_budget=0), "memory_budget"),
    (dict(memory_budget=-5), "memory_budget"),
    (dict(read_store="mmap"), r"read_store 'mmap'.*accepted: inmem, auto"),
])
def test_bad_strip_parameters_are_refused_by_name(tmp_path, bad, match):
    """A non-positive strip count used to run silently as one strip, and a
    non-positive budget failed only after the reads were in; the config
    refuses both by name before any read is parsed (the FASTA named here
    does not exist).  A read store other than ``inmem`` is refused the
    same way."""
    with pytest.raises(ValueError, match=match):
        _cfg(overlap_mode="blocked", **bad).resolved()
    with pytest.raises(ValueError, match=match):
        run_pipeline_from_fasta(str(tmp_path / "missing.fa"),
                                _cfg(overlap_mode="blocked", **bad))
