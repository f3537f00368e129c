"""Performance-class construction."""

import warnings

import pytest

from repro.core.classify import PerfClass, classify_kmeans, classify_nodes
from repro.errors import ModelError


@pytest.fixture()
def write_values(host):
    return {i: host.dma_path_gbps(i, 7) for i in host.node_ids}


@pytest.fixture()
def read_values(host):
    return {i: host.dma_path_gbps(7, i) for i in host.node_ids}


class TestPerfClass:
    def test_statistics(self):
        cls = PerfClass(rank=1, node_ids=(6, 7), values={6: 47.0, 7: 55.9})
        assert cls.avg == pytest.approx(51.45)
        assert cls.lo == 47.0
        assert cls.hi == 55.9
        assert 6 in cls and 3 not in cls

    def test_validation(self):
        with pytest.raises(ModelError):
            PerfClass(rank=0, node_ids=(1,), values={1: 1.0})
        with pytest.raises(ModelError):
            PerfClass(rank=1, node_ids=(), values={})
        with pytest.raises(ModelError):
            PerfClass(rank=1, node_ids=(1, 2), values={1: 1.0})


class TestClassifyNodes:
    def test_paper_write_classes(self, host, write_values):
        classes = classify_nodes(write_values, host, target_node=7)
        assert [sorted(c.node_ids) for c in classes] == [
            [6, 7], [0, 1, 4, 5], [2, 3]
        ]

    def test_paper_read_classes(self, host, read_values):
        classes = classify_nodes(read_values, host, target_node=7)
        assert [sorted(c.node_ids) for c in classes] == [
            [6, 7], [2, 3], [0, 1, 5], [4]
        ]

    def test_local_and_neighbor_always_first(self, host, read_values):
        # Even with terrible values, {local, neighbour} stay in class 1.
        skewed = dict(read_values)
        skewed[6] = 1.0
        classes = classify_nodes(skewed, host, target_node=7)
        assert 6 in classes[0] and 7 in classes[0]

    def test_rank_ordering(self, host, write_values):
        classes = classify_nodes(write_values, host, target_node=7)
        assert [c.rank for c in classes] == list(range(1, len(classes) + 1))

    def test_classes_partition_nodes(self, host, write_values):
        classes = classify_nodes(write_values, host, target_node=7)
        all_nodes = sorted(n for c in classes for n in c.node_ids)
        assert all_nodes == list(host.node_ids)

    def test_rel_gap_controls_splitting(self, host, write_values):
        coarse = classify_nodes(write_values, host, 7, rel_gap=0.9)
        fine = classify_nodes(write_values, host, 7, rel_gap=0.001)
        assert len(coarse) <= len(fine)
        assert len(coarse) == 2  # class 1 + one catch-all remote class

    def test_missing_node_rejected(self, host, write_values):
        del write_values[3]
        with pytest.raises(ModelError):
            classify_nodes(write_values, host, 7)

    def test_non_positive_value_rejected(self, host, write_values):
        write_values[3] = 0.0
        with pytest.raises(ModelError):
            classify_nodes(write_values, host, 7)

    def test_unknown_target_rejected(self, host, write_values):
        with pytest.raises(ModelError):
            classify_nodes(write_values, host, 42)


class TestClassifyKmeans:
    def test_agrees_with_gap_clustering_on_writes(self, host, write_values):
        gap = classify_nodes(write_values, host, 7)
        km = classify_kmeans(write_values, host, 7, k=3)
        assert [sorted(c.node_ids) for c in km] == [
            sorted(c.node_ids) for c in gap
        ]

    def test_k_one_collapses_remotes(self, host, write_values):
        km = classify_kmeans(write_values, host, 7, k=2)
        assert len(km) == 2

    def test_invalid_k(self, host, write_values):
        with pytest.raises(ModelError):
            classify_kmeans(write_values, host, 7, k=0)

    def test_k_beyond_distinct_values_is_warning_free(self, host, write_values):
        # Target 7's remote write values take two distinct levels, so
        # k=4's three remote groups cap at two: no empty cluster.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            km = classify_kmeans(write_values, host, 7, k=4)
        assert [c.node_ids for c in km] == [(6, 7), (0, 1, 4, 5), (2, 3)]
