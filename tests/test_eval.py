"""Tests for the evaluation harness (metrics, datasets, reporting)."""

import numpy as np
import pytest

from repro.eval.datasets import PRESETS, load_preset
from repro.eval.metrics import parallel_efficiency
from repro.eval.report import format_table, format_value
from repro.seqs.simulator import TrueLayout


def test_parallel_efficiency_perfect_scaling():
    eff = parallel_efficiency([1, 4, 16], [16.0, 4.0, 1.0])
    assert eff == pytest.approx([1.0, 1.0, 1.0])


def test_parallel_efficiency_sublinear():
    eff = parallel_efficiency([1, 4], [8.0, 4.0])
    assert eff == pytest.approx([1.0, 0.5])


def test_parallel_efficiency_validation():
    with pytest.raises(ValueError):
        parallel_efficiency([], [])
    with pytest.raises(ValueError):
        parallel_efficiency([1], [1.0, 2.0])


def test_presets_have_paper_depths():
    assert PRESETS["ecoli_like"].depth == 30
    assert PRESETS["celegans_like"].depth == 40
    assert PRESETS["hsapiens_like"].depth == 10
    assert PRESETS["celegans_like"].error_rate == pytest.approx(0.13)
    assert PRESETS["hsapiens_like"].error_rate == pytest.approx(0.15)


def test_preset_genome_ordering():
    g = {n: PRESETS[n].spec.genome.length
         for n in ("ecoli_like", "celegans_like", "hsapiens_like")}
    assert g["ecoli_like"] < g["celegans_like"] < g["hsapiens_like"]


def test_load_toy_preset():
    preset, genome, reads, layout = load_preset("toy")
    assert genome.shape[0] == 20_000
    assert len(reads) == len(layout.start)
    assert reads.total_bases() >= 15 * 20_000


def test_format_value():
    assert format_value(3.14159) == "3.142"
    assert format_value(0.000123) == "0.000123"
    assert format_value(123456.0) == "1.23e+05"
    assert format_value(7) == "7"
    assert format_value(float("nan")) == "nan"
    assert format_value(0.0) == "0"


def test_format_table():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
    out = format_table(rows, title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5


def test_format_table_empty():
    assert "(no rows)" in format_table([])
