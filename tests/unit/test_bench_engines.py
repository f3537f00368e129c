"""fio engines against the simulator."""

import pytest

from repro.bench.engines import (
    DeviceIOEngine,
    MemcpyEngine,
    _copy_resources,
    bulk_copy_gbps,
    bulk_copy_gbps_many,
    link_capacities,
    link_resource,
    resolve_placements,
)
from repro.bench.fio import FioRunner
from repro.bench.jobfile import FioJob
from repro.errors import AllocationError, BenchmarkError, RoutingError
from repro.faults import FaultedMachine, LinkFail
from repro.interconnect.planes import PLANE_DMA
from repro.memory.allocator import PageAllocator
from repro.memory.controller import MemoryController
from repro.osmodel.scheduler import CpuScheduler
from repro.rng import RngRegistry
from repro.topology.builders import scaled_host
from repro.topology.modify import with_dram_gbps


def _rng(name="engine-test"):
    return RngRegistry().stream(name)


class TestBulkCopy:
    def test_local_copy_bound_by_controller(self, host):
        assert bulk_copy_gbps(host, 7, 7, threads=4) == pytest.approx(56.0)

    def test_remote_copy_bound_by_link(self, host):
        assert bulk_copy_gbps(host, 0, 7, threads=4) == pytest.approx(44.5, abs=0.1)

    @pytest.mark.parametrize("slow", [0, 7])
    def test_remote_copy_bound_by_either_controller(self, host, slow):
        # A copy crosses the source and the sink controller alike.
        machine = with_dram_gbps(host, slow, 9.0)
        assert bulk_copy_gbps(machine, 0, 7, threads=4) == pytest.approx(9.0)
        assert bulk_copy_gbps(machine, 7, 0, threads=4) == pytest.approx(9.0)

    def test_single_thread_capped(self, host):
        assert bulk_copy_gbps(host, 0, 7, threads=1) == pytest.approx(
            host.params.dma_per_thread_gbps
        )

    def test_threads_must_be_positive(self, host):
        with pytest.raises(BenchmarkError):
            bulk_copy_gbps(host, 0, 7, threads=0)

    def test_batched_pairs_match_per_pair_calls(self, host):
        pairs = [(i, 7) for i in host.node_ids] + [(7, i) for i in host.node_ids]
        batched = bulk_copy_gbps_many(host, pairs, threads=4)
        assert batched == [bulk_copy_gbps(host, s, d, threads=4) for s, d in pairs]

    def test_batched_threads_must_be_positive(self, host):
        with pytest.raises(BenchmarkError):
            bulk_copy_gbps_many(host, [(0, 7)], threads=0)

    def test_link_capacities_cover_all_links(self, host):
        caps = link_capacities(host)
        assert len(caps) == len(host.links)
        assert caps[link_resource(0, 7)] == pytest.approx(0.87 * 51.2)


def _copy_resources_via_objects(machine, src, dst):
    """The construction ``_copy_resources`` replaced: names read off
    ``MemoryController`` and ``DirectedLink`` objects."""
    resources = [MemoryController(src, 0, 0).dma_resource]
    if src != dst:
        resources.append(MemoryController(dst, 0, 0).dma_resource)
        for link in machine.routing.route_links(PLANE_DMA, src, dst):
            resources.append(link_resource(*link.ends))
    return tuple(resources)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestCopyResources:
    def test_names_match_controller_and_link_objects(self, host):
        for machine in (host, scaled_host(32)):
            for src in machine.node_ids:
                for dst in machine.node_ids:
                    assert _copy_resources(machine, src, dst) == (
                        _copy_resources_via_objects(machine, src, dst)
                    ), (machine.name, src, dst)

    def test_partitioned_pair_raises_the_same_routing_error(self, bare_host):
        # Node 0's only cables on the reference host: 0-1 and 0-7.
        cut = FaultedMachine(bare_host, [LinkFail(a=0, b=1), LinkFail(a=0, b=7)])
        for src, dst in [(0, 5), (5, 0)]:
            expected = _raised(_copy_resources_via_objects, cut, src, dst)
            assert expected[0] is RoutingError
            assert _raised(_copy_resources, cut, src, dst) == expected
        assert _copy_resources(cut, 0, 0) == ("ctrl-dma:0",)


class TestResolvePlacements:
    def test_single_node_local_buffers(self, host):
        allocator = PageAllocator(host)
        job = FioJob(name="j", engine="rdma", rw="read", numjobs=4, cpunodebind=5)
        placements, allocations = resolve_placements(host, allocator, job)
        assert all(p.cpu_node == 5 for p in placements)
        assert all(p.mem_node == 5 for p in placements)
        assert len(allocations) == 4

    def test_membind_overrides(self, host):
        allocator = PageAllocator(host)
        job = FioJob(name="j", engine="rdma", rw="read", numjobs=2,
                     cpunodebind=5, membind=2)
        placements, _ = resolve_placements(host, allocator, job)
        assert all(p.mem_node == 2 for p in placements)
        assert all(p.cpu_node == 5 for p in placements)

    def test_mixed_stream_nodes(self, host):
        allocator = PageAllocator(host)
        job = FioJob(name="j", engine="rdma", rw="read", numjobs=4,
                     stream_nodes=(2, 2, 0, 0))
        placements, _ = resolve_placements(host, allocator, job)
        assert [p.cpu_node for p in placements] == [2, 2, 0, 0]


class TestDeviceIOEngine:
    def test_missing_device_rejected(self, bare_host):
        engine = DeviceIOEngine(bare_host)
        job = FioJob(name="j", engine="tcp", rw="send", cpunodebind=0)
        with pytest.raises(BenchmarkError):
            engine.run(job, _rng())

    def test_libaio_iodepth_validated(self, host):
        engine = DeviceIOEngine(host)
        job = FioJob(name="j", engine="libaio", rw="read", iodepth=1, cpunodebind=0)
        with pytest.raises(BenchmarkError):
            engine.run(job, _rng())

    def test_aggregate_is_sum_of_streams(self, host):
        engine = DeviceIOEngine(host)
        job = FioJob(name="j", engine="rdma", rw="write", numjobs=4, cpunodebind=5)
        result = engine.run(job, _rng())
        assert result.aggregate_gbps == pytest.approx(
            sum(result.per_stream_gbps.values())
        )

    def test_realistic_duration(self, host):
        # 4 streams x 400 GB at ~23 Gbps aggregate: several hundred seconds.
        engine = DeviceIOEngine(host)
        job = FioJob(name="j", engine="rdma", rw="write", numjobs=4, cpunodebind=5)
        result = engine.run(job, _rng())
        expected = 4 * 400e9 * 8 / (result.aggregate_gbps * 1e9)
        assert result.duration_s == pytest.approx(expected, rel=0.05)

    def test_irq_penalty_on_device_node(self, host):
        engine = DeviceIOEngine(host)
        results = {}
        for node in (6, 7):
            job = FioJob(name="irq", engine="tcp", rw="send", numjobs=4,
                         cpunodebind=node)
            results[node] = engine.run(job, _rng(f"irq{node}")).aggregate_gbps
        assert results[7] < results[6]

    def test_oversubscription_degrades(self, host):
        engine = DeviceIOEngine(host)
        four = engine.run(
            FioJob(name="o4", engine="rdma", rw="write", numjobs=4, cpunodebind=5),
            _rng("o"),
        )
        sixteen = engine.run(
            FioJob(name="o16", engine="rdma", rw="write", numjobs=16, cpunodebind=5),
            _rng("o"),
        )
        assert sixteen.aggregate_gbps < 0.95 * four.aggregate_gbps


@pytest.fixture()
def placement_calls(monkeypatch):
    """Names of the ``allocate`` and ``place`` calls made while it is used."""
    calls = []
    allocate, place = PageAllocator.allocate, CpuScheduler.place

    def spy_allocate(self, *args, **kwargs):
        calls.append("allocate")
        return allocate(self, *args, **kwargs)

    def spy_place(self, *args, **kwargs):
        calls.append("place")
        return place(self, *args, **kwargs)

    monkeypatch.setattr(PageAllocator, "allocate", spy_allocate)
    monkeypatch.setattr(CpuScheduler, "place", spy_place)
    return calls


class TestGroupPlacements:
    def test_grid_pins_and_allocates_nothing(self, host, placement_calls):
        job = FioJob(name="grid", engine="rdma", rw="write")
        grid = FioRunner(host).grid(job)
        assert placement_calls == []
        assert [sorted(row) for row in grid.values()] == [[1, 2, 4, 8, 16]] * 8
        assert grid[3][16].streams == ((3, 3),) * 16

    def test_membind_and_mixed_nodes_take_no_allocation(self, host, placement_calls):
        engine = DeviceIOEngine(host)
        bound = engine.run(FioJob(name="b", engine="tcp", rw="send", numjobs=3,
                                  cpunodebind=5, membind=2), _rng())
        mixed = engine.run(FioJob(name="m", engine="rdma", rw="read", numjobs=4,
                                  stream_nodes=(2, 2, 0, 0)), _rng())
        assert placement_calls == []
        assert bound.streams == ((5, 2),) * 3
        assert mixed.streams == ((2, 2), (2, 2), (0, 0), (0, 0))

    def test_unbound_job_replays_per_stream(self, host, placement_calls):
        result = DeviceIOEngine(host).run(
            FioJob(name="u", engine="rdma", rw="write", numjobs=2), _rng()
        )
        assert placement_calls == ["place", "allocate"] * 2
        assert result.streams == ((0, 0), (1, 1))

    def test_unknown_membind_is_the_allocators_error(self, host):
        job = FioJob(name="x", engine="rdma", rw="write", numjobs=2,
                     cpunodebind=2, membind=42)
        with pytest.raises(AllocationError,
                           match="bind policy names unknown memory node 42"):
            DeviceIOEngine(host).run(job, _rng())


class TestMemcpyEngine:
    def test_write_mode_direction(self, host):
        engine = MemcpyEngine(host)
        job = FioJob(name="m", engine="memcpy", rw="write", numjobs=4,
                     cpunodebind=0, target_node=7)
        result = engine.run(job, _rng("m"))
        assert result.tags["src"] == 0
        assert result.tags["dst"] == 7

    def test_read_mode_direction(self, host):
        engine = MemcpyEngine(host)
        job = FioJob(name="m", engine="memcpy", rw="read", numjobs=4,
                     cpunodebind=0, target_node=7)
        result = engine.run(job, _rng("m"))
        assert result.tags["src"] == 7
        assert result.tags["dst"] == 0

    def test_requires_cpunodebind(self, host):
        engine = MemcpyEngine(host)
        job = FioJob(name="m", engine="memcpy", rw="write", numjobs=4,
                     target_node=7)
        with pytest.raises(BenchmarkError):
            engine.run(job, _rng("m"))

    def test_matches_bulk_copy_model(self, host):
        engine = MemcpyEngine(host)
        job = FioJob(name="m", engine="memcpy", rw="write", numjobs=4,
                     cpunodebind=2, target_node=7)
        result = engine.run(job, _rng("m2"))
        assert result.aggregate_gbps == pytest.approx(
            bulk_copy_gbps(host, 2, 7, 4), rel=0.08
        )
