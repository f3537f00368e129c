"""Property-based tests for class construction."""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import classify_kmeans, classify_nodes
from repro.topology.builders import reference_host

_HOST = reference_host(with_devices=False)

values_strategy = st.fixed_dictionaries(
    {
        n: st.floats(min_value=1.0, max_value=60.0,
                     allow_nan=False, allow_infinity=False)
        for n in _HOST.node_ids
    }
)


@given(values_strategy, st.sampled_from(_HOST.node_ids),
       st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_classes_partition_nodes(values, target, rel_gap):
    classes = classify_nodes(values, _HOST, target, rel_gap=rel_gap)
    seen = [n for c in classes for n in c.node_ids]
    assert sorted(seen) == list(_HOST.node_ids)
    assert [c.rank for c in classes] == list(range(1, len(classes) + 1))


@given(values_strategy, st.sampled_from(_HOST.node_ids))
@settings(max_examples=200, deadline=None)
def test_local_and_neighbor_in_class_one(values, target):
    classes = classify_nodes(values, _HOST, target)
    pkg = _HOST.node(target).package_id
    expected = set(_HOST.packages[pkg].node_ids)
    assert set(classes[0].node_ids) == expected


@given(values_strategy, st.sampled_from(_HOST.node_ids))
@settings(max_examples=200, deadline=None)
def test_remote_classes_ordered_and_gapped(values, target):
    classes = classify_nodes(values, _HOST, target, rel_gap=0.08)
    remote = classes[1:]
    # Within each class and across classes, values are non-increasing.
    flattened = []
    for cls in remote:
        ordered = sorted((values[n] for n in cls.node_ids), reverse=True)
        flattened.extend(ordered)
        assert cls.avg <= remote[0].hi + 1e-9
    assert flattened == sorted(flattened, reverse=True)
    # Adjacent classes are separated by more than the gap threshold.
    for earlier, later in zip(remote, remote[1:]):
        assert (earlier.lo - later.hi) / earlier.lo > 0.08 - 1e-9


@given(values_strategy, st.sampled_from(_HOST.node_ids))
@settings(max_examples=100, deadline=None)
def test_class_stats_consistent(values, target):
    for cls in classify_nodes(values, _HOST, target):
        # np.mean of identical floats can differ in the last ulp.
        assert cls.lo - 1e-9 <= cls.avg <= cls.hi + 1e-9
        assert cls.lo == min(values[n] for n in cls.node_ids)
        assert cls.hi == max(values[n] for n in cls.node_ids)


tied_values_strategy = st.fixed_dictionaries(
    {
        n: st.one_of(
            st.integers(min_value=1, max_value=4).map(lambda v: 12.5 * v),
            st.floats(min_value=1.0, max_value=60.0),
        )
        for n in _HOST.node_ids
    }
)


def _sse(groups) -> float:
    return sum(float(np.sum((np.array(g) - np.mean(g)) ** 2)) for g in groups)


@given(tied_values_strategy, st.sampled_from(_HOST.node_ids),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_kmeans_is_exact(values, target, k):
    remote = classify_kmeans(values, _HOST, target, k)[1:]
    groups = [sorted((values[n] for n in c.node_ids), reverse=True) for c in remote]
    ordered = [v for g in groups for v in g]
    # Classes are runs of the descending values; equal values share one.
    assert ordered == sorted(ordered, reverse=True)
    for earlier, later in zip(groups, groups[1:]):
        assert earlier[-1] > later[0]
    assert len(groups) == min(max(k - 1, 1), len(set(ordered)))
    # No split of the sorted values into as many runs does better.
    best = min(
        _sse([ordered[a:b] for a, b in zip((0, *cuts), (*cuts, len(ordered)))])
        for cuts in combinations(range(1, len(ordered)), len(groups) - 1)
    )
    assert _sse(groups) <= best + 1e-9 * max(best, 1.0)
