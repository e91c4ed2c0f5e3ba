"""Tests for the memory-budget strip scheduler (repro.core.memory)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.memory import (DEFAULT_N_STRIPS, apportion_budget,
                               coo_nbytes, estimate_candidate_nnz,
                               format_bytes, parse_bytes, plan_strips)
from repro.core.semirings import C_NFIELDS


# -- byte parsing -----------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("0", 0),
    ("123", 123),
    ("64k", 64 * 2**10),
    ("64K", 64 * 2**10),
    ("64KiB", 64 * 2**10),
    ("64kb", 64 * 2**10),
    ("2M", 2 * 2**20),
    ("1.5G", int(1.5 * 2**30)),
    ("3T", 3 * 2**40),
    (" 10 m ", 10 * 2**20),
    (4096, 4096),
])
def test_parse_bytes(text, expected):
    assert parse_bytes(text) == expected


@pytest.mark.parametrize("bad", ["", "M", "ten", "1..5G", "-5M", "64X"])
def test_parse_bytes_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_bytes(bad)


def test_format_bytes_roundtrips_magnitude():
    assert format_bytes(512) == "512 B"
    assert format_bytes(64 * 2**10) == "64.0 KiB"
    assert format_bytes(int(2.5 * 2**20)) == "2.5 MiB"
    assert format_bytes(3 * 2**30) == "3.0 GiB"


def test_format_bytes_has_tebibyte_tier():
    # Regression: parse_bytes accepted "1.5T" but format_bytes topped out
    # at GiB, so the round trip printed "1536.0 GiB".
    assert format_bytes(parse_bytes("1.5T")) == "1.5 TiB"
    assert format_bytes(2**40) == "1.0 TiB"
    assert format_bytes(2048 * 2**40) == "2048.0 TiB"  # TiB is terminal


@given(st.integers(min_value=0, max_value=2**52))
def test_format_bytes_parse_roundtrip(n):
    """parse_bytes(format_bytes(n)) recovers n up to the one-decimal
    rendering precision of the printed unit."""
    text = format_bytes(n)
    back = parse_bytes(text.replace(" ", ""))
    unit = 1
    for suffix, mult in (("KiB", 2**10), ("MiB", 2**20),
                         ("GiB", 2**30), ("TiB", 2**40)):
        if text.endswith(suffix):
            unit = mult
    assert abs(back - n) <= unit // 10 + 1


# -- budget apportionment ---------------------------------------------------

def test_apportion_budget_shares():
    plan = apportion_budget(1024)
    assert plan.total == 1024
    assert plan.candidate == 512
    assert plan.tables == 256
    assert plan.headroom == 256
    assert plan.candidate + plan.tables + plan.headroom == plan.total


def test_apportion_budget_tiny_budgets_stay_positive():
    for total in (1, 2, 3, 5):
        plan = apportion_budget(total)
        assert plan.candidate >= 1 and plan.tables >= 1


def test_apportion_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        apportion_budget(0)
    with pytest.raises(ValueError):
        apportion_budget(-64)


# -- the density estimate ---------------------------------------------------

def test_estimate_candidate_nnz_matches_model():
    # m columns of density a contribute m*a^2/2 upper-triangle products:
    # a = 1000/100 = 10, so 100 * 10^2 / 2.
    assert estimate_candidate_nnz(nnz_a=1000, n_kmers=100) == 5000
    assert estimate_candidate_nnz(0, 100) == 0
    assert estimate_candidate_nnz(100, 0) == 0


def test_coo_nbytes_counts_coordinates_and_fields():
    # row + col + nfields payload columns, all int64.
    assert coo_nbytes(10, 4) == 10 * 8 * 6
    assert coo_nbytes(0, 7) == 0


# -- strip planning ---------------------------------------------------------

def test_plan_explicit_n_strips_wins():
    plan = plan_strips(10_000, 1_000, 500, memory_budget=1, n_strips=3)
    assert plan.n_strips == 3
    assert plan.memory_budget is None


def test_plan_budget_drives_strip_count():
    est_bytes = coo_nbytes(estimate_candidate_nnz(10_000, 1_000), C_NFIELDS)
    plan = plan_strips(10_000, 1_000, 10**6, memory_budget=est_bytes // 4)
    assert plan.n_strips == 4
    assert plan.est_candidate_bytes == est_bytes
    assert plan.est_strip_bytes <= est_bytes // 4


def test_plan_smaller_budget_more_strips():
    strips = [plan_strips(10_000, 1_000, 10**6, memory_budget=b).n_strips
              for b in (2**24, 2**20, 2**16)]
    assert strips == sorted(strips)
    assert strips[0] < strips[-1]


def test_plan_generous_budget_single_strip():
    plan = plan_strips(1_000, 1_000, 500, memory_budget=2**40)
    assert plan.n_strips == 1


def test_plan_clamps_to_read_count():
    plan = plan_strips(10**6, 10, 7, memory_budget=1)
    assert plan.n_strips == 7
    plan = plan_strips(10**6, 10, 7, n_strips=1_000)
    assert plan.n_strips == 7


def test_plan_default_without_budget():
    assert plan_strips(1000, 100, 500).n_strips == DEFAULT_N_STRIPS


def test_plan_empty_matrix():
    assert plan_strips(0, 0, 0, memory_budget=1).n_strips == 1


@pytest.mark.parametrize("n_strips", [0, -3])
def test_plan_rejects_explicit_count_below_one(n_strips):
    """An explicit count below 1 is refused, not clamped to one strip."""
    with pytest.raises(ValueError, match="n_strips"):
        plan_strips(1000, 100, 500, n_strips=n_strips)


def test_plan_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        plan_strips(1000, 100, 500, memory_budget=0)
