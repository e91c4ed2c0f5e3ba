"""Sorted-key membership and matching against their numpy set-op oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsparse import in_sorted, match_sorted
from repro.dsparse import membership

FACTOR = membership._TABLE_SPAN_FACTOR


def _takes_table(hay, queries):
    """The branch rule, restated: a function of the two inputs alone."""
    return hay.shape[0] > 0 and queries.shape[0] > 0 and \
        int(hay[-1]) - int(hay[0]) + 1 <= \
        FACTOR * (hay.shape[0] + queries.shape[0])


def _check(hay, queries, table=None):
    hay.setflags(write=False)
    queries.setflags(write=False)
    if table is not None:
        assert _takes_table(hay, queries) == table
    got = in_sorted(hay, queries)
    assert got.dtype == bool and got.shape == queries.shape
    assert np.array_equal(got, np.isin(queries, hay))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_in_sorted_empty_sides(dtype):
    some = np.array([3, 5, 9], dtype=dtype)
    none = np.empty(0, dtype=dtype)
    assert in_sorted(none, some).tolist() == [False, False, False]
    assert in_sorted(some, none).shape == (0,)
    assert in_sorted(none, none).shape == (0,)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_in_sorted_table_branch_edges(dtype):
    """Queries outside the span on either side, at its two ends, repeated,
    and — for unsigned keys — far enough below that ``q - lo`` wraps."""
    hay = np.array([1000, 1001, 1007, 1040], dtype=dtype)
    queries = np.array([0, 999, 1000, 1001, 1002, 1007, 1007, 1039, 1040,
                        1041, 5000, 2 ** 62, 1000], dtype=dtype)
    _check(hay, queries, table=True)
    _check(hay[:1], queries, table=True)          # span of one key


def test_in_sorted_negative_keys_and_offsets():
    hay = np.array([-50, -7, 0, 3, 12], dtype=np.int64)
    queries = np.array([-2 ** 40, -51, -50, -8, -7, -1, 0, 1, 3, 12, 13,
                        2 ** 40], dtype=np.int64)
    _check(hay, queries, table=True)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_in_sorted_wide_span_takes_searchsorted(dtype):
    hay = np.array([5, 2 ** 20, 2 ** 40, 2 ** 62], dtype=dtype)
    queries = np.array([0, 4, 5, 6, 2 ** 20, 2 ** 40 + 1, 2 ** 62,
                        2 ** 62 + 1, 5, 5], dtype=dtype)
    _check(hay, queries, table=False)
    if dtype is np.uint64:                       # keys up to the type's top
        hay = np.array([1, 2 ** 64 - 1], dtype=dtype)
        _check(hay, np.array([0, 1, 2, 2 ** 64 - 2, 2 ** 64 - 1],
                             dtype=dtype), table=False)


def test_in_sorted_branch_flips_with_the_query_count():
    """The same hay answers from the table once there are enough queries
    for its span — and the answers do not change."""
    rng = np.random.default_rng(3)
    hay = np.arange(0, 60 * FACTOR, 2 * FACTOR, dtype=np.int64)  # 30 keys
    few = rng.integers(-5, 60 * FACTOR + 5, 5).astype(np.int64)
    few[0] = hay[7]
    many = np.concatenate([few, rng.integers(-5, 60 * FACTOR + 5,
                                             200).astype(np.int64)])
    _check(hay, few, table=False)
    _check(hay, many, table=True)
    assert np.array_equal(in_sorted(hay, many)[:5], in_sorted(hay, few))


def test_in_sorted_refuses_mixed_or_narrow_dtypes():
    i64 = np.array([1, 2, 3], dtype=np.int64)
    for hay, queries in ((i64, i64.astype(np.uint64)),
                         (i64.astype(np.int32), i64.astype(np.int32)),
                         (i64, i64.astype(np.float64))):
        with pytest.raises(TypeError, match="int64 or uint64"):
            in_sorted(hay, queries)


@settings(max_examples=150, deadline=None)
@given(hay=st.lists(st.integers(-300, 300), max_size=60),
       queries=st.lists(st.integers(-400, 400), max_size=80),
       scale=st.sampled_from([1, 7, 2 ** 20, 2 ** 50]),
       unsigned=st.booleans())
def test_in_sorted_matches_isin(hay, queries, scale, unsigned):
    """Both branches (``scale`` stretches the span past the table rule),
    both dtypes, against ``np.isin`` — and ``match_sorted`` against
    ``np.intersect1d`` on the same draws."""
    shift = 400 if unsigned else 0
    dtype = np.uint64 if unsigned else np.int64
    hay = np.unique(np.array(hay, dtype=np.int64) + shift) * scale
    queries = (np.array(queries, dtype=np.int64) + shift) * scale
    hay, queries = hay.astype(dtype), queries.astype(dtype)
    _check(hay, queries)
    other = np.unique(queries)
    ia, ib = match_sorted(hay, other)
    common, ea, eb = np.intersect1d(hay, other, assume_unique=True,
                                    return_indices=True)
    assert np.array_equal(ia, ea) and np.array_equal(ib, eb)
    assert np.array_equal(hay[ia], common)
    ib2, ia2 = match_sorted(other, hay)
    assert np.array_equal(ia2, ea) and np.array_equal(ib2, eb)
