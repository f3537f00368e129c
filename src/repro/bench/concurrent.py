"""Concurrent multi-device workloads with fabric-level contention.

The single-job fio engines fold all sharing *within one device* into
per-stream service caps; two jobs against *different* devices, however,
can also contend in the fabric — a NIC send and an SSD write whose
buffers both live on node 2 share the starved 2->7 request direction.
This runner builds one flow network across every concurrent job:

* each stream demands its device-level service cap (the validated
  single-job model), and
* additionally crosses its host-side controller and every DMA-plane
  link of its buffer<->device route,

so cross-device contention emerges exactly where the fabric says it
must.  A :class:`~repro.osmodel.counters.TrafficCounters` is filled per
run, showing where the bytes went.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.engines import (
    StreamPlacement,
    device_service_levels,
    link_resource,
    resolve_placements,
)
from repro.bench.jobfile import FioJob
from repro.bench.results import JobResult
from repro.errors import BenchmarkError
from repro.flows.flow import Flow
from repro.interconnect.planes import PLANE_DMA
from repro.memory.allocator import PageAllocator
from repro.memory.controller import dma_resource
from repro.osmodel.counters import TrafficCounters
from repro.osmodel.noise import NoiseModel
from repro.rng import RngRegistry
from repro.solver.session import get_session
from repro.topology.machine import Machine

__all__ = ["ConcurrentResult", "ConcurrentRunner"]


@dataclass(frozen=True)
class ConcurrentResult:
    """All jobs' results plus the traffic accounting."""

    per_job: dict[str, JobResult]
    counters: TrafficCounters
    solver_stats: dict = field(default_factory=dict)

    @property
    def total_gbps(self) -> float:
        """Sum of all jobs' aggregates."""
        return sum(r.aggregate_gbps for r in self.per_job.values())

    def render(self) -> str:
        """Per-job lines plus the hottest resources."""
        lines = [r.render().splitlines()[0] for r in self.per_job.values()]
        lines.append(self.counters.render())
        return "\n".join(lines)


class ConcurrentRunner:
    """Run several fio jobs simultaneously on one machine."""

    def __init__(self, machine: Machine, registry: RngRegistry | None = None) -> None:
        self.machine = machine
        self.registry = registry or RngRegistry()
        self.session = get_session(machine)

    def _stream_route(self, direction: str, mem_node: int, device) -> list[str]:
        """Host-side resources one stream's data crosses."""
        if direction == "write":
            src, dst = mem_node, device.node_id
        else:
            src, dst = device.node_id, mem_node
        resources = [dma_resource(mem_node)]
        if src != dst:
            for link in self.machine.path(PLANE_DMA, src, dst).links:
                resources.append(link_resource(*link.ends))
        return resources

    def run(self, jobs: list[FioJob], run_idx: int = 0) -> ConcurrentResult:
        """Execute all ``jobs`` concurrently; returns per-job results."""
        if not jobs:
            raise BenchmarkError("need at least one job")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise BenchmarkError(f"duplicate job names: {sorted(names)}")
        for job in jobs:
            if job.engine == "memcpy":
                raise BenchmarkError(
                    f"job {job.name!r}: the concurrent runner drives devices; "
                    "memcpy jobs belong to FioRunner"
                )

        machine = self.machine
        allocator = PageAllocator(machine)
        capacities = self.session.capacities()
        flows: list[Flow] = []
        flow_meta: dict[str, tuple[str, tuple[int, int]]] = {}
        job_caps: dict[str, float] = {}
        allocations = []
        # (device, direction) -> accumulated stream levels across ALL jobs:
        # the DMA engine time-slices over every stream it serves, so both
        # the per-stream division and the aggregate ceiling must span jobs.
        dev_levels: dict[tuple[str, str], list[float]] = {}
        staged = []  # (job, device, profile, placements, levels, noise)

        try:
            for job in jobs:
                device = machine.devices.get(job.device)
                if device is None:
                    raise BenchmarkError(
                        f"job {job.name!r} needs device {job.device!r}, but "
                        f"{machine.name!r} has {sorted(machine.devices)}"
                    )
                profile = device.engine(job.profile_name)
                if job.engine == "libaio" and job.iodepth < device.min_iodepth:
                    raise BenchmarkError(
                        f"job {job.name!r}: iodepth {job.iodepth} cannot keep "
                        f"{device.name!r} saturated (needs >= {device.min_iodepth})"
                    )
                placements, allocs = resolve_placements(machine, allocator, job)
                allocations.extend(allocs)
                levels = device_service_levels(
                    machine, device, profile, placements, job.direction,
                    session=self.session,
                )
                noise = NoiseModel(
                    self.registry.stream(f"concurrent/{job.name}/run{run_idx}")
                )
                dev_levels.setdefault((device.name, job.direction), []).extend(levels)
                staged.append((job, device, profile, placements, levels, noise))

            # Device-direction aggregates over every stream of every job.
            for (dev_name, direction), levels in dev_levels.items():
                capacities[f"dev:{dev_name}:{direction}"] = (
                    sum(levels) / len(levels)
                )

            for job, device, profile, placements, levels, noise in staged:
                n = len(placements)
                total_on_device = len(dev_levels[(device.name, job.direction)])
                ways = max(1.0, total_on_device / device.dma.contexts)
                sigma = (profile.sigma if n < profile.crowd_threshold
                         else profile.crowd_sigma)
                stream_noise = noise.factors(sigma, n)
                dev_resource = f"dev:{device.name}:{job.direction}"
                for i, (placement, level) in enumerate(zip(placements, levels)):
                    demand = level / ways
                    if profile.per_stream_cap_gbps is not None:
                        demand = min(demand, profile.per_stream_cap_gbps)
                    if profile.cpu_gbps_per_stream is not None:
                        cores = machine.node(placement.cpu_node).n_cores
                        share = min(
                            1.0,
                            cores / sum(
                                1 for p in placements
                                if p.cpu_node == placement.cpu_node
                            ),
                        )
                        demand = min(demand, profile.cpu_gbps_per_stream * share)
                    resources = tuple(
                        dict.fromkeys(
                            [dev_resource]
                            + self._stream_route(
                                job.direction, placement.mem_node, device
                            )
                        )
                    )
                    flow_name = f"{job.name}/{i}"
                    flows.append(
                        Flow(
                            name=flow_name,
                            resources=resources,
                            demand_gbps=demand * float(stream_noise[i]),
                            size_bytes=float(job.size_bytes),
                        )
                    )
                    flow_meta[flow_name] = (
                        job.name,
                        (placement.cpu_node, placement.mem_node),
                    )
                job_caps[job.name] = capacities[dev_resource]

            outcomes = self.session.simulate(flows, capacities)
        finally:
            for allocation in allocations:
                allocator.release(allocation)

        counters = TrafficCounters(capacities=dict(capacities))
        counters.window_s = max(o.finish_s for o in outcomes.values())
        for flow in flows:
            counters.record_flow(flow.resources, outcomes[flow.name].bytes_moved)

        per_job: dict[str, JobResult] = {}
        for job in jobs:
            job_outcomes = {
                name: o for name, o in outcomes.items()
                if flow_meta[name][0] == job.name
            }
            per_job[job.name] = JobResult(
                job_name=job.name,
                engine=f"{job.engine}:{job.rw}",
                streams=tuple(
                    flow_meta[name][1] for name in sorted(job_outcomes)
                ),
                per_stream_gbps={
                    name: o.avg_gbps for name, o in job_outcomes.items()
                },
                aggregate_gbps=sum(o.avg_gbps for o in job_outcomes.values()),
                duration_s=max(o.finish_s for o in job_outcomes.values()),
                tags={"concurrent": True, "device_cap": job_caps[job.name]},
                solver_stats=self.session.stats.snapshot(),
            )
        return ConcurrentResult(
            per_job=per_job,
            counters=counters,
            solver_stats=self.session.stats.snapshot(),
        )
