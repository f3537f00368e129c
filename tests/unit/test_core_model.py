"""IOPerformanceModel and ModelTable."""

import pytest

from repro.core.classify import PerfClass, classify_nodes
from repro.core.model import IOPerformanceModel, ModelTable
from repro.errors import ModelError


@pytest.fixture()
def write_model(host):
    values = {i: host.dma_path_gbps(i, 7) for i in host.node_ids}
    classes = classify_nodes(values, host, 7)
    return IOPerformanceModel(
        machine_name=host.name, target_node=7, mode="write",
        values=values, classes=classes, threads=4, runs=100,
    )


class TestModel:
    def test_class_lookup(self, write_model):
        assert write_model.class_of(6).rank == 1
        assert write_model.class_of(0).rank == 2
        assert write_model.class_of(2).rank == 3

    def test_class_by_rank(self, write_model):
        assert sorted(write_model.class_by_rank(3).node_ids) == [2, 3]
        with pytest.raises(ModelError):
            write_model.class_by_rank(9)

    def test_unknown_node_rejected(self, write_model):
        with pytest.raises(ModelError):
            write_model.class_of(42)

    def test_representatives_one_per_class(self, write_model):
        reps = write_model.representative_nodes()
        assert len(reps) == write_model.n_classes
        ranks = [write_model.class_of(r).rank for r in reps]
        assert ranks == sorted(set(ranks))

    def test_cost_reduction(self, write_model):
        # 3 classes over 8 nodes.
        assert write_model.probe_cost_reduction() == pytest.approx(1 - 3 / 8)

    def test_render_layout(self, write_model):
        text = write_model.render()
        assert "Class 1" in text and "Range" in text and "Avg" in text

    def test_invalid_mode_rejected(self, host, write_model):
        with pytest.raises(ModelError):
            IOPerformanceModel(
                machine_name=host.name, target_node=7, mode="sideways",
                values=write_model.values, classes=write_model.classes,
                threads=4, runs=100,
            )

    def test_partition_mismatch_rejected(self, host, write_model):
        partial = dict(write_model.values)
        partial[99] = 10.0
        with pytest.raises(ModelError):
            IOPerformanceModel(
                machine_name=host.name, target_node=7, mode="write",
                values=partial, classes=write_model.classes,
                threads=4, runs=100,
            )


class TestModelTable:
    def test_from_measurements(self, write_model):
        rdma = {n: 23.2 if write_model.class_of(n).rank < 3 else 17.1
                for n in write_model.values}
        table = ModelTable.from_measurements(write_model, {"RDMA_WRITE": rdma})
        row = table.row("RDMA_WRITE")
        assert row.per_class_avg[0] == pytest.approx(23.2)
        assert row.per_class_avg[2] == pytest.approx(17.1)

    def test_memcpy_row_always_first(self, write_model):
        table = ModelTable.from_measurements(write_model, {})
        assert table.rows[0].operation == "Proposed memcpy"

    def test_missing_nodes_rejected(self, write_model):
        with pytest.raises(ModelError):
            ModelTable.from_measurements(write_model, {"op": {0: 1.0}})

    def test_unknown_row_rejected(self, write_model):
        table = ModelTable.from_measurements(write_model, {})
        with pytest.raises(ModelError):
            table.row("TCP sender")

    def test_render_contains_operations(self, write_model):
        rdma = {n: 20.0 for n in write_model.values}
        table = ModelTable.from_measurements(write_model, {"RDMA_WRITE": rdma})
        text = table.render()
        assert "Proposed memcpy" in text
        assert "RDMA_WRITE" in text
        assert "device write" in text


class TestRenderOn32Nodes:
    """A class cell wider than its column keeps a space before it."""

    @pytest.fixture()
    def blade_model(self):
        values = {n: 40.0 if n < 4 else 20.0 for n in range(32)}
        classes = (
            PerfClass(rank=1, node_ids=(0, 1, 2, 3),
                      values={n: values[n] for n in range(4)}),
            PerfClass(rank=2, node_ids=tuple(range(4, 32)),
                      values={n: values[n] for n in range(4, 32)}),
        )
        return IOPerformanceModel(
            machine_name="hp-blade-32n", target_node=0, mode="write",
            values=values, classes=classes, threads=4, runs=10,
        )

    def test_model_cells_stay_apart(self, blade_model):
        node_line = blade_model.render().splitlines()[2]
        wide = ",".join(map(str, range(4, 32)))
        assert node_line == "Node ID     " + "0,1,2,3".rjust(16) + " " + wide

    def test_table_cells_stay_apart(self, blade_model):
        table = ModelTable.from_measurements(
            blade_model, {"RDMA_WRITE": {n: 10.0 for n in range(32)}}
        )
        node_line = table.render().splitlines()[2]
        wide = ",".join(map(str, range(4, 32)))
        assert node_line.split() == ["Node", "0,1,2,3", wide]

    def test_cells_that_fit_render_as_before(self, write_model):
        lines = write_model.render().splitlines()
        assert lines[2] == "Node ID     " + "".join(
            ",".join(map(str, c.node_ids)).rjust(16) for c in write_model.classes
        )
        assert lines[4] == "Avg (Gbps)  " + "".join(
            f"{c.avg:.1f}".rjust(16) for c in write_model.classes
        )
