"""Unit and property tests for the Bloom filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.seqs.bloom import BloomFilter

keys_arrays = st.lists(st.integers(0, 2 ** 62), min_size=0,
                       max_size=200).map(
    lambda xs: np.array(xs, dtype=np.uint64))


def test_no_false_negatives():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2 ** 62, size=5000, dtype=np.uint64)
    bf = BloomFilter(capacity=5000, fp_rate=0.01)
    bf.add(keys)
    assert bf.contains(keys).all()


def test_false_positive_rate_near_target():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 2 ** 62, size=20_000, dtype=np.uint64)
    others = rng.integers(2 ** 62, 2 ** 63, size=20_000, dtype=np.uint64)
    bf = BloomFilter(capacity=20_000, fp_rate=0.01)
    bf.add(keys)
    fp = bf.contains(others).mean()
    assert fp < 0.05  # generous bound over the 1% target


def test_add_and_test_marks_second_occurrence():
    bf = BloomFilter(capacity=100)
    keys = np.array([1, 2, 3], dtype=np.uint64)
    first = bf.add_and_test(keys)
    assert not first.any()
    second = bf.add_and_test(keys)
    assert second.all()


def test_add_and_test_intra_batch_duplicates():
    bf = BloomFilter(capacity=100)
    keys = np.array([7, 8, 7, 9, 7], dtype=np.uint64)
    seen = bf.add_and_test(keys)
    # First occurrence of 7 is new; later duplicates are seen.
    assert not seen[0]
    assert seen[2] and seen[4]
    assert not seen[1] and not seen[3]


def test_empty_batch():
    bf = BloomFilter(capacity=10)
    assert bf.contains(np.empty(0, dtype=np.uint64)).shape == (0,)
    assert bf.add_and_test(np.empty(0, dtype=np.uint64)).shape == (0,)
    bf.add(np.empty(0, dtype=np.uint64))  # no crash


def test_fill_ratio_increases():
    bf = BloomFilter(capacity=1000)
    assert bf.fill_ratio == 0.0
    bf.add(np.arange(500, dtype=np.uint64))
    assert 0.0 < bf.fill_ratio < 1.0


def test_invalid_params():
    with pytest.raises(ValueError):
        BloomFilter(capacity=0)
    with pytest.raises(ValueError):
        BloomFilter(capacity=10, fp_rate=1.5)


# -- property tests ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(keys_arrays, keys_arrays)
def test_property_no_false_negatives_ever(added, probed):
    """Whatever was inserted — in any batch mix — always tests present."""
    bf = BloomFilter(capacity=max(1, added.size + probed.size))
    bf.add(added)
    bf.add_and_test(probed)
    assert bf.contains(added).all()
    assert bf.contains(probed).all()


@settings(max_examples=60, deadline=None)
@given(keys_arrays, keys_arrays)
def test_property_second_occurrence_always_admitted(pre, batch):
    """``add_and_test`` never reports an actually-seen key as new:
    any key inserted earlier, or duplicated within the batch, is seen."""
    bf = BloomFilter(capacity=max(1, pre.size + batch.size))
    bf.add(pre)
    seen = bf.add_and_test(batch)
    in_pre = np.isin(batch, pre)
    assert seen[in_pre].all()
    first_occurrence = np.zeros(batch.shape[0], dtype=bool)
    first_occurrence[np.unique(batch, return_index=True)[1]] = True
    assert seen[~first_occurrence].all()


@settings(max_examples=40, deadline=None)
@given(keys_arrays)
def test_property_intra_batch_duplicates(batch):
    """Occurrences 2..n of a key inside one batch are admitted; the whole
    batch is inserted afterwards."""
    bf = BloomFilter(capacity=max(1, batch.size), fp_rate=0.001)
    seen = bf.add_and_test(batch)
    order = np.argsort(batch, kind="stable")
    sb = batch[order]
    dup_of_prev = np.zeros(sb.shape[0], dtype=bool)
    dup_of_prev[1:] = sb[1:] == sb[:-1]
    # Duplicates must be seen regardless of the filter's false positives.
    assert seen[order][dup_of_prev].all()
    assert bf.contains(batch).all()


def test_n_bits_power_of_two():
    for cap in (1, 7, 100, 12345):
        bf = BloomFilter(capacity=cap)
        assert bf.n_bits & (bf.n_bits - 1) == 0
