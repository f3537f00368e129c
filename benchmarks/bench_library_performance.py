"""Library-internals performance benchmarks.

Unlike the paper-artifact benches (single deterministic rounds), these
measure the hot paths of the library itself across rounds — the numbers
a contributor watches when touching the solver, the router, or
Algorithm 1.  Machine sizes scale to a 32-node host (the paper's
largest Table I configuration).
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.bench.fio import FioRunner
from repro.bench.jobfile import FioJob
from repro.bench.stream import StreamBenchmark
from repro.core.characterize import HostCharacterizer
from repro.core.iomodel import IOModelBuilder
from repro.core.migration import OnlineSimulator, OnlineWorkload
from repro.flows.flow import Flow
from repro.flows.maxmin import maxmin_allocate
from repro.flows.network import FlowNetwork
from repro.rng import RngRegistry
from repro.routing.table import RoutingTable
from repro.service import AdvisoryBackend, PlacementService
from repro.service.soak import LogicalClock, build_traffic
from repro.solver import reset_sessions
from repro.topology.builders import hp_blade_32n, reference_host, scaled_host
from repro.units import GB


@pytest.fixture(scope="module")
def blade():
    return hp_blade_32n()


@pytest.fixture(scope="module")
def big_host():
    return scaled_host(16)  # 32 nodes with credit asymmetries


def test_perf_maxmin_200_flows(benchmark):
    """Water-filling with 200 flows over 40 shared resources."""
    resources = {f"r{i}": 10.0 + i for i in range(40)}
    flows = [
        Flow(
            name=f"f{i}",
            resources=tuple(f"r{(i + k) % 40}" for k in range(3)),
            demand_gbps=1.0 + (i % 7),
        )
        for i in range(200)
    ]
    rates = benchmark(maxmin_allocate, flows, resources)
    assert len(rates) == 200


def test_perf_flow_simulation_50_staggered(benchmark):
    """Time-domain simulation: 50 staggered finite flows, one bottleneck."""
    flows = [
        Flow(name=f"f{i}", resources=("dev",), demand_gbps=5.0,
             size_bytes=float((i % 5 + 1) * GB), start_s=0.5 * i)
        for i in range(50)
    ]
    network = FlowNetwork({"dev": 22.0})
    outcomes = benchmark(network.simulate, flows)
    assert len(outcomes) == 50


def test_perf_cold_solve_device_streams(benchmark):
    """Cold max-min solves: 16 streams with distinct demands on one device.

    The fio event-loop shape.  Demands straddle the fair share, so the
    streams finish in waves and every wave re-solves the allocation.
    Every stream crosses the one device resource at weight 1, so each
    wave is a ``water_fill`` sweep; each round builds a fresh network.
    """
    flows = [
        Flow(name=f"s{i}", resources=("dev",), demand_gbps=0.5 + 0.25 * i,
             size_bytes=float(GB))
        for i in range(16)
    ]

    def simulate():
        network = FlowNetwork({"dev": 22.0})
        return network.simulate(flows)

    outcomes = benchmark(simulate)
    assert len(outcomes) == 16


def test_perf_online_class_migrate(benchmark):
    """The fw1 shape: 60 RDMA_WRITE streams under the class-migrate policy.

    Poisson arrivals at 0.12/s queue up on the NIC; every arrival,
    completion, 20 s migration epoch and stall end re-rates the running
    streams with one ``water_fill`` sweep.
    """
    host = reference_host()
    model = IOModelBuilder(host, registry=RngRegistry(), runs=10).build(7, "write")
    registry = RngRegistry()
    jobs = OnlineWorkload(registry.child("fw1"), rate_per_s=0.12).generate(60)
    simulator = OnlineSimulator(host, model, registry=registry.child("sim"))

    outcome = benchmark(simulator.run, jobs, "class-migrate")
    assert outcome.migrations > 0


def test_perf_fio_grid(benchmark):
    """The Figs. 5-7 grid shape: rdma write, 8 nodes x (1, 2, 4, 8, 16) streams.

    40 device jobs on the reference host.  Every stream is bound to a
    node that holds its group's buffers, so each job takes its
    placements per node group and computes each distinct placement's
    service level once.  Each round starts on a fresh solver session;
    resetting it is not timed.
    """
    host = reference_host()
    job = FioJob(name="grid", engine="rdma", rw="write")

    def fresh_session():
        reset_sessions()
        return (), {}

    def grid():
        return FioRunner(host, RngRegistry()).grid(job)

    out = benchmark.pedantic(grid, setup=fresh_session, rounds=10, iterations=1)
    assert [sorted(row) for row in out.values()] == [[1, 2, 4, 8, 16]] * 8


def test_perf_routing_all_pairs_32_nodes(benchmark, blade):
    """Static route computation for every (pair, plane) of a 32-node host."""

    def route_everything():
        table = RoutingTable(blade.links)
        count = 0
        for plane in ("pio", "dma"):
            for src in blade.node_ids:
                for dst in blade.node_ids:
                    if src != dst:
                        table.route(plane, src, dst)
                        count += 1
        return count

    assert benchmark(route_everything) == 2 * 32 * 31


def test_perf_stream_matrix_reference(benchmark):
    """The Fig. 3 protocol end to end (64 cells x 100 runs)."""
    host = reference_host(with_devices=False)

    def measure():
        return StreamBenchmark(host, registry=RngRegistry(), runs=100).matrix()

    matrix = benchmark(measure)
    assert matrix.values.shape == (8, 8)


def test_perf_iomodel_32_nodes(benchmark, big_host):
    """Algorithm 1 (both modes) on a 32-node asymmetric host."""

    def characterise():
        builder = IOModelBuilder(big_host, registry=RngRegistry(), runs=25)
        return builder.build_both(0)

    write_model, read_model = benchmark(characterise)
    assert write_model.n_classes >= 2
    assert read_model.n_classes >= 2


def test_perf_characterize_64_nodes(benchmark):
    """One worker's share of a ``sweep`` pass on a 64-node host.

    Algorithm 1 in both modes for 32 of ``scaled_host(32)``'s 64
    targets, as one of two pool workers runs it: routing populate, the
    sweep's feasibility check, the copy solves and the noise draws.
    Each round starts from a fresh host and no solver session; building
    them is not timed.
    """

    def fresh_host():
        reset_sessions()
        return (scaled_host(32),), {}

    def characterize(machine):
        characterizer = HostCharacterizer(machine, registry=RngRegistry())
        return characterizer.characterize_many(machine.node_ids[:32])

    out = benchmark.pedantic(characterize, setup=fresh_host, rounds=5, iterations=1)
    assert len(out) == 32
    assert all(hc.write_model.n_classes >= 2 for hc in out.values())


def test_perf_metrics_reply(benchmark):
    """One ``metrics`` reply on a warm reference-host service.

    The service is warmed on the soak mix of all 8 targets (its own
    ``metrics`` lines left out).  Before each timed reply, 29 untimed
    requests of that mix run, so every round re-renders the
    histograms they changed and splices the reply, as a scrape every
    ~30 requests does.
    """
    host = reference_host()
    backend = AdvisoryBackend(host, registry=RngRegistry())
    clock = LogicalClock()
    service = PlacementService(backend, clock=clock)
    backend.warm(tuple(host.node_ids))
    root = RngRegistry()
    mix = [
        line
        for target in host.node_ids
        for line in build_traffic(
            root.child(f"bench/metrics/target{target}"), host, target, 100
        )
        if '"method":"metrics"' not in line
    ]
    for line in mix:
        service.handle_line(line)
        clock.advance()
    lines = itertools.cycle(mix)
    scrape_line = '{"jsonrpc":"2.0","id":"scrape","method":"metrics"}'

    def between_scrapes():
        for _ in range(29):
            service.handle_line(next(lines))
            clock.advance()
        return (), {}

    def scrape():
        return service.handle_line(scrape_line)

    reply = benchmark.pedantic(
        scrape, setup=between_scrapes, rounds=300, iterations=1
    )
    assert json.loads(reply)["result"]["requests"] > len(mix)
