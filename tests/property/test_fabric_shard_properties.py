"""Shard plans and order-preserving merges, over random shapes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FabricError
from repro.fabric.shard import merge_in_order, plan_shards


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_plan_covers_exactly_once_in_order(n_items, n_shards):
    plan = plan_shards(n_items, n_shards)
    covered = [i for start, stop in plan for i in range(start, stop)]
    assert covered == list(range(n_items))


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_plan_is_balanced_and_bounded(n_items, n_shards):
    plan = plan_shards(n_items, n_shards)
    assert len(plan) == min(n_shards, n_items)
    sizes = [stop - start for start, stop in plan]
    assert all(size >= 1 for size in sizes)
    if sizes:
        assert max(sizes) - min(sizes) <= 1
        # Earlier shards take the extras: sizes are non-increasing.
        assert sizes == sorted(sizes, reverse=True)


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), unique=True),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_merge_reproduces_serial_insertion_order(keys, n_shards):
    serial = {key: key * 2 for key in keys}
    shards = [
        {key: serial[key] for key in keys[start:stop]}
        for start, stop in plan_shards(len(keys), n_shards)
    ]
    merged = merge_in_order(shards)
    assert merged == serial
    assert list(merged) == list(serial)


def test_merge_rejects_collisions():
    with pytest.raises(FabricError, match="collide"):
        merge_in_order([{"a": 1}, {"a": 2}])


def test_plan_rejects_bad_inputs():
    with pytest.raises(FabricError):
        plan_shards(-1, 2)
    with pytest.raises(FabricError):
        plan_shards(4, 0)
