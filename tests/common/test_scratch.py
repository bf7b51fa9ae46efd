"""Tests for the reusable scratch arrays of the observation hot path."""

import numpy as np

from repro.common.scratch import Scratch, scratch_array


def test_same_name_reuses_storage_until_it_must_grow():
    scratch = Scratch()
    first = scratch.get("a", (2, 3), np.float64)
    smaller = scratch.get("a", (3, 2), np.float64)
    assert smaller.shape == (3, 2)
    assert np.shares_memory(first, smaller)
    grown = scratch.get("a", (4, 4), np.float64)
    assert grown.shape == (4, 4)
    assert not np.shares_memory(first, grown)
    assert np.shares_memory(grown, scratch.get("a", (16,), np.float64))


def test_names_and_dtypes_do_not_share_storage():
    scratch = Scratch()
    a = scratch.get("a", (8,), np.float64)
    b = scratch.get("b", (8,), np.float64)
    assert not np.shares_memory(a, b)
    as_int = scratch.get("a", (8,), np.int64)
    assert as_int.dtype == np.int64
    assert not np.shares_memory(a, as_int)


def test_without_scratch_out_is_none():
    assert scratch_array(None, "a", (2,), np.float64) is None
    assert scratch_array(Scratch(), "a", (2,), np.float64).shape == (2,)
