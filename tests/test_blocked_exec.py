"""Blocked mode × execution engine cross-product determinism.

The contract of the memory-budget pipeline mode: for every strip count and
every executor, ``overlap_mode="blocked"`` produces a string matrix S and a
contig layout byte-identical to the monolithic path — strip-mining and
parallel strip scheduling are pure memory/performance axes.
"""

import numpy as np
import pytest

from repro import PipelineConfig, extract_contigs, run_pipeline

STRIP_COUNTS = (1, 2, 4, 7)
EXECUTORS = (("serial", 1), ("process", 2))


def _cfg(**kw):
    base = dict(k=17, nprocs=4, align_mode="chain", depth_hint=12,
                error_hint=0.0, fuzz=20)
    base.update(kw)
    return PipelineConfig(**base)


def _layout(result):
    """Contig layout as comparable tuples (read order + orientations)."""
    return [(tuple(c.reads), tuple(c.orientations))
            for c in extract_contigs(result.string_graph)]


@pytest.fixture(scope="module")
def monolithic_reference(clean_dataset):
    _genome, reads, _layout_ = clean_dataset
    res = run_pipeline(reads, _cfg(overlap_mode="monolithic"))
    return res, _layout(res)


@pytest.mark.parametrize("executor,workers", EXECUTORS)
@pytest.mark.parametrize("n_strips", STRIP_COUNTS)
def test_blocked_cross_product_matches_monolithic(clean_dataset,
                                                  monolithic_reference,
                                                  n_strips, executor,
                                                  workers):
    _genome, reads, _layout_ = clean_dataset
    ref, ref_layout = monolithic_reference
    res = run_pipeline(reads, _cfg(overlap_mode="blocked",
                                   n_strips=n_strips, executor=executor,
                                   workers=workers))
    assert res.config.overlap_mode == "blocked"
    assert res.n_strips == n_strips
    assert np.array_equal(res.S.row, ref.S.row)
    assert np.array_equal(res.S.col, ref.S.col)
    assert np.array_equal(res.S.vals, ref.S.vals)
    assert res.nnz_c == ref.nnz_c
    assert _layout(res) == ref_layout


def test_blocked_pipeline_memory_accounting(clean_dataset,
                                            monolithic_reference):
    """The e2e acceptance bar: >= 3x lower candidate peak at 4 strips."""
    _genome, reads, _layout_ = clean_dataset
    ref, _ = monolithic_reference
    res = run_pipeline(reads, _cfg(overlap_mode="blocked", n_strips=4))
    assert ref.peak_candidate_bytes > 0
    assert res.peak_candidate_bytes * 3 <= ref.peak_candidate_bytes
    # Stages outside the overlap step are untouched by strip-mining.
    assert res.peak_bytes["CreateSpMat"] == ref.peak_bytes["CreateSpMat"]
    # The assembled R is the same matrix either way — blocked mode must
    # not under-report the Alignment-stage high-water mark.
    assert res.peak_bytes["Alignment"] == ref.peak_bytes["Alignment"]


def test_blocked_budget_driven_pipeline(clean_dataset, monolithic_reference):
    """A byte budget alone picks a strip count and honors the peak."""
    _genome, reads, _layout_ = clean_dataset
    ref, ref_layout = monolithic_reference
    budget = max(1, ref.peak_candidate_bytes // 3)
    res = run_pipeline(reads, _cfg(overlap_mode="blocked",
                                   memory_budget=budget))
    assert res.n_strips > 1
    assert res.peak_candidate_bytes <= budget
    assert np.array_equal(res.S.vals, ref.S.vals)
    assert _layout(res) == ref_layout
