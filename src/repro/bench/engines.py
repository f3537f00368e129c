"""fio I/O engines executing against the simulator.

Two engine families:

* :class:`DeviceIOEngine` — ``tcp``/``rdma``/``libaio`` jobs against an
  attached device.  Per-stream service combines the device's calibrated
  NUMA response curve, round-robin DMA service, per-stream protocol CPU
  cost, IRQ-locality penalty, class-mixture derating, and seeded noise;
  streams then share the device through the max-min flow network.
* :class:`MemcpyEngine` — the paper's Algorithm 1 primitive: bulk copy
  threads between two nodes' memories on the DMA plane, contending on
  controllers and fabric links.  **No device state is consulted** —
  that is the whole point of the methodology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.bench.jobfile import FioJob
from repro.bench.results import JobResult
from repro.errors import BenchmarkError
from repro.flows.flow import Flow
from repro.interconnect.planes import PLANE_DMA
from repro.memory.allocator import PageAllocator
from repro.memory.controller import dma_resource
from repro.memory.policy import MemBinding
from repro.osmodel.noise import NoiseModel
from repro.osmodel.process import SimTask, TaskBinding
from repro.osmodel.scheduler import CpuScheduler
from repro.solver.capacity import link_capacities, link_resource
from repro.solver.session import SolverSession, get_session
from repro.topology.machine import Machine

__all__ = [
    "DeviceIOEngine",
    "MemcpyEngine",
    "link_resource",
    "link_capacities",
    "bulk_copy_gbps",
    "bulk_copy_gbps_many",
    "device_service_levels",
    "OVERSUBSCRIPTION_EXPONENT",
]

#: Throughput exponent for node oversubscription: a stream on a node
#: running ``m`` streams over ``c`` cores keeps ``(c/m) ** exp`` of its
#: service level.  Mild on purpose — the paper's Figs. 5-7 stay near
#: peak at 16 streams but "contention ... introduce[s] some unexpected
#: behavior", and §V-B's all-local binding loses to spreading.
OVERSUBSCRIPTION_EXPONENT = 0.07


def placement_service_level(
    machine: Machine,
    device,
    profile,
    direction: str,
    cpu_node: int,
    mem_node: int,
    streams_on_node: int,
    session: SolverSession,
) -> float:
    """Service level of one stream on ``cpu_node`` with buffers on ``mem_node``.

    The device's calibrated response to the stream's DMA path, times the
    IRQ-locality factor, times the oversubscription derating when
    ``streams_on_node`` streams share ``cpu_node``'s cores.  Nothing else
    enters, so every stream with the same placement on a node with the
    same stream count gets the same float: callers compute it once per
    distinct placement (:func:`device_service_levels`, the online
    simulator's rate hook).
    """
    if direction == "write":
        path = session.dma_path_gbps(mem_node, device.node_id)
    else:
        path = session.dma_path_gbps(device.node_id, mem_node)
    level = profile.curve.value(path)
    level *= device.irq.factor(cpu_node, profile.irq_sensitivity)
    cores = machine.node(cpu_node).n_cores
    if streams_on_node > cores:
        level *= (cores / streams_on_node) ** OVERSUBSCRIPTION_EXPONENT
    return level


def device_service_levels(
    machine: Machine,
    device,
    profile,
    placements,
    direction: str,
    session: SolverSession | None = None,
) -> list[float]:
    """NUMA-limited service level of each stream against one device.

    Combines the device's calibrated response to the stream's DMA path,
    the IRQ-locality factor, and the node-oversubscription derating.
    Shared by the fio engines and the cluster models.  A level depends
    only on the stream's ``(cpu_node, mem_node)`` and its CPU node's
    stream count, so each distinct placement is computed once
    (:func:`placement_service_level`), in order of first appearance, and
    its streams share that float.  DMA path bandwidths come from the
    machine's solver session (memoized).
    """
    session = session if session is not None else get_session(machine)
    streams_on_node: dict[int, int] = {}
    for p in placements:
        streams_on_node[p.cpu_node] = streams_on_node.get(p.cpu_node, 0) + 1
    keys = [(p.cpu_node, p.mem_node) for p in placements]
    levels = {
        (cpu, mem): placement_service_level(
            machine, device, profile, direction, cpu, mem,
            streams_on_node[cpu], session,
        )
        for cpu, mem in dict.fromkeys(keys)
    }
    return [levels[key] for key in keys]


def _copy_resources(machine: Machine, src: int, dst: int) -> tuple[str, ...]:
    """The resources every thread of one bulk copy src -> dst crosses.

    The source controller, the sink controller unless the copy is
    node-local, and the link between each two consecutive hops of the
    DMA-plane route.  Names come straight from the node ids
    (:func:`~repro.memory.controller.dma_resource`,
    :func:`~repro.solver.capacity.link_resource`): no controller or
    link object is built only to read its name.
    """
    if src == dst:
        return (dma_resource(src),)
    hops = machine.routing.route(PLANE_DMA, src, dst)
    return (
        dma_resource(src),
        dma_resource(dst),
        *[link_resource(a, b) for a, b in zip(hops, hops[1:])],
    )


def _bulk_copy_flows(machine: Machine, src: int, dst: int, threads: int) -> list[Flow]:
    """The per-thread DMA-context flow list of one bulk copy src -> dst.

    The max-min reference the closed form of :func:`bulk_copy_gbps_many`
    is tested against: ``sum(session.rates(flows).values())`` is the
    copy's aggregate bandwidth.
    """
    if threads < 1:
        raise BenchmarkError(f"need >= 1 copy thread, got {threads}")
    resources = _copy_resources(machine, src, dst)
    return [
        Flow(
            name=f"copy/t{i}",
            resources=resources,
            demand_gbps=machine.params.dma_per_thread_gbps,
        )
        for i in range(threads)
    ]


def bulk_copy_gbps(
    machine: Machine,
    src: int,
    dst: int,
    threads: int,
    session: SolverSession | None = None,
) -> float:
    """Noise-free aggregate bandwidth of ``threads`` bulk copies src -> dst.

    The deterministic core of :class:`MemcpyEngine`: per-thread DMA-style
    contexts contending on both controllers and every link of the
    DMA-plane route.  Algorithm 1 samples this with noise; tests and the
    analytic layers use it directly.  Capacity maps and shares go
    through the machine's :class:`~repro.solver.session.SolverSession`
    (pass ``session`` to share one across a characterization run).
    """
    return bulk_copy_gbps_many(machine, ((src, dst),), threads, session)[0]


def bulk_copy_gbps_many(
    machine: Machine,
    pairs,
    threads: int,
    session: SolverSession | None = None,
) -> list[float]:
    """:func:`bulk_copy_gbps` for many ``(src, dst)`` pairs in one batch.

    A copy's threads are one signature group, so each distinct pair is
    routed once and solved once, in closed form, by the session's
    :meth:`~repro.solver.session.SolverSession.equal_shares` under one
    stats phase; repeated pairs reuse that total.  A total adds the
    per-thread share ``threads`` times, as ``sum(rates.values())`` does
    over the copy's flow list, so values equal max-min over that list.
    Every pair is routed before any is solved, as building all the flow
    lists first would.
    """
    if threads < 1:
        raise BenchmarkError(f"need >= 1 copy thread, got {threads}")
    session = session if session is not None else get_session(machine)
    keys = [(src, dst) for src, dst in pairs]
    distinct = list(dict.fromkeys(keys))
    demand = machine.params.dma_per_thread_gbps
    problems = [(_copy_resources(machine, src, dst), demand, threads)
                for src, dst in distinct]
    totals = {
        pair: sum([share] * threads)
        for pair, share in zip(distinct, session.equal_shares(problems))
    }
    return [totals[pair] for pair in keys]


@dataclass(frozen=True)
class StreamPlacement:
    """Where one stream runs and where its buffers landed."""

    cpu_node: int
    mem_node: int


def resolve_placements(
    machine: Machine,
    allocator: PageAllocator,
    job: FioJob,
) -> tuple[list[StreamPlacement], list]:
    """Pin the job's streams and allocate their I/O buffers, one at a time.

    Buffers follow the paper's protocol: local-preferred from the pinned
    node (Linux default) unless the job carries an explicit ``membind``.
    Returns placements plus the allocations (caller releases them).

    This is the per-stream reference.  :class:`DeviceIOEngine` replays it
    only for jobs whose placements it cannot read off per node group
    (an unbound stream, an unknown node, a group that would spill or
    fail); the concurrent runner always takes it, because its jobs debit
    one allocator between them.
    """
    scheduler = CpuScheduler(machine, allow_oversubscribe=True)
    placements: list[StreamPlacement] = []
    allocations = []
    binding = (
        MemBinding.bind(job.membind) if job.membind is not None else MemBinding.local()
    )
    for i in range(job.numjobs):
        cpu_bind = (
            job.stream_nodes[i] if job.stream_nodes is not None else job.cpunodebind
        )
        task = scheduler.place(
            SimTask(
                name=f"{job.name}/{i}",
                threads=1,
                binding=TaskBinding(cpu_node=cpu_bind, mem=binding),
            )
        )
        cpu_node = scheduler.node_of(task.name)
        buffer_bytes = job.blocksize * job.iodepth
        allocation = allocator.allocate(buffer_bytes, cpu_node=cpu_node, binding=binding)
        allocations.append(allocation)
        placements.append(
            StreamPlacement(cpu_node=cpu_node, mem_node=allocation.home_node())
        )
    return placements, allocations


class DeviceIOEngine:
    """tcp / rdma / libaio jobs against an attached PCIe device."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.session = get_session(machine)
        #: Each known node id, mapped to the machine's own id: the node
        #: the scheduler reports for a stream pinned there.
        self._nodes = {nid: nid for nid in machine.node_ids}
        #: Never allocated from, so its ``fits`` answers for the fresh
        #: allocator each job starts with; built on the first run.
        self._room: PageAllocator | None = None

    def run(self, job: FioJob, rng: np.random.Generator) -> JobResult:
        """Execute ``job`` once and return its result.

        Streams bound to a known node whose buffers all fit there (or on
        the ``membind`` node) take their placements per node group,
        without a scheduler or an allocation; any other job replays
        :func:`resolve_placements` stream by stream.  Both give the same
        placements, so the same result or the same error.
        """
        device = self.machine.devices.get(job.device)
        if device is None:
            raise BenchmarkError(
                f"job {job.name!r} needs device {job.device!r}, but "
                f"{self.machine.name!r} has {sorted(self.machine.devices)}"
            )
        profile = device.engine(job.profile_name)
        if job.engine == "libaio" and job.iodepth < device.min_iodepth:
            raise BenchmarkError(
                f"job {job.name!r}: iodepth {job.iodepth} cannot keep "
                f"{device.name!r} saturated (needs >= {device.min_iodepth})"
            )

        if self._room is None:
            self._room = PageAllocator(self.machine)
        placements = self._group_placements(job)
        if placements is not None:
            return self._simulate(job, device, profile, placements, rng)
        allocator = PageAllocator(self.machine)
        placements, allocations = resolve_placements(self.machine, allocator, job)
        try:
            return self._simulate(job, device, profile, placements, rng)
        finally:
            for allocation in allocations:
                allocator.release(allocation)

    def _group_placements(self, job: FioJob) -> list[StreamPlacement] | None:
        """The job's placements read off per node group, or ``None``.

        :func:`resolve_placements` pins a bound stream to its node and
        allocates its buffer local-preferred from there, or on the
        ``membind`` node.  When every stream's node is known and each
        node holds its whole group's buffers (under ``membind``: the
        bound node holds all ``numjobs``), no buffer spills, so each
        lands whole where the reference would put it.  ``None`` sends
        the job to that reference: an unbound stream, an unknown node,
        or a group that would spill or fail.
        """
        bound = (
            job.stream_nodes if job.stream_nodes is not None
            else (job.cpunodebind,) * job.numjobs
        )
        nodes = self._nodes
        if not all(node in nodes for node in bound):
            return None
        cpu = [nodes[node] for node in bound]
        size = job.blocksize * job.iodepth
        if job.membind is not None:
            if (job.membind not in nodes
                    or self._room.fits(size, job.membind) < len(cpu)):
                return None
            return [StreamPlacement(node, job.membind) for node in cpu]
        for node, count in Counter(cpu).items():
            if self._room.fits(size, node) < count:
                return None
        return [StreamPlacement(node, node) for node in cpu]

    def _simulate(self, job, device, profile, placements, rng) -> JobResult:
        machine = self.machine
        noise = NoiseModel(rng)
        n = len(placements)

        # NUMA-limited service level of each stream's placement, scaled
        # by per-request amortisation away from the 128 KiB reference.
        bs_factor = profile.blocksize_factor(job.blocksize)
        base = [
            level * bs_factor
            for level in device_service_levels(
                machine, device, profile, placements, job.direction,
                session=self.session,
            )
        ]

        # Round-robin DMA service: each of n streams sees base/ways.
        service = device.dma.per_stream_caps(base)

        # Protocol CPU cost: streams sharing a node split its cores.
        cpu_caps = [float("inf")] * n
        if profile.cpu_gbps_per_stream is not None:
            on_node: dict[int, int] = {}
            for p in placements:
                on_node[p.cpu_node] = on_node.get(p.cpu_node, 0) + 1
            for i, p in enumerate(placements):
                cores = machine.node(p.cpu_node).n_cores
                share = min(1.0, cores / on_node[p.cpu_node])
                cpu_caps[i] = profile.cpu_gbps_per_stream * share

        # Mixture derating: the DMA engine bouncing between NUMA classes.
        groups: dict[float, int] = {}
        for level in base:
            key = round(level, 1)
            groups[key] = groups.get(key, 0) + 1
        mix = device.dma.mixture_factor(list(groups.values()), profile.mix_coef)

        sigma = profile.sigma if n < profile.crowd_threshold else profile.crowd_sigma
        stream_noise = noise.factors(sigma, n)
        agg_noise = noise.factor(sigma)

        resource = f"dev:{device.name}:{job.direction}"
        per_cap = [s if profile.per_stream_cap_gbps is None
                   else min(s, profile.per_stream_cap_gbps) for s in service]
        time_based = job.runtime_s is not None
        flows = [
            Flow(
                name=f"{job.name}/{i}",
                resources=(resource,),
                demand_gbps=min(per_cap[i], cpu_caps[i]) * mix * float(stream_noise[i]),
                size_bytes=None if time_based else float(job.size_bytes),
            )
            for i in range(n)
        ]
        # The DMA engine time-slices across streams and each slice runs
        # at that stream's path-limited rate, so the device's aggregate
        # ceiling is the stream-weighted MEAN of the service levels —
        # the physical basis of the paper's Eq. 1.
        agg_cap = sum(base) / len(base)
        network = self.session.network({resource: agg_cap * mix * agg_noise})
        if time_based:
            # fio time_based: constant rates for runtime seconds.
            rates = network.rates(flows)
            per_stream = dict(rates)
            duration = float(job.runtime_s)
        else:
            outcomes = network.simulate(flows)
            # fio reports the sum of per-job bandwidths (each job:
            # size/time), not total bytes over the busy interval.
            per_stream = {name: o.avg_gbps for name, o in outcomes.items()}
            duration = max(o.finish_s for o in outcomes.values())
        return JobResult(
            job_name=job.name,
            engine=f"{job.engine}:{job.rw}",
            streams=tuple((p.cpu_node, p.mem_node) for p in placements),
            per_stream_gbps=per_stream,
            aggregate_gbps=sum(per_stream.values()),
            duration_s=duration,
            tags={"device": device.name, "direction": job.direction, "mix": mix},
            solver_stats=self.session.stats.snapshot(),
        )


class MemcpyEngine:
    """Algorithm 1's primitive: bulk DMA-plane copies between two nodes.

    ``rw="write"`` copies from ``cpunodebind``'s memory into the target
    node's memory (simulating the device pulling host data);
    ``rw="read"`` copies target -> ``cpunodebind`` (device pushing to the
    host).  Copy threads are bound to the target node per Algorithm 1,
    which on the DMA plane costs them nothing — exactly the engine-
    offload behaviour the methodology imitates.
    """

    #: Run-to-run noise of a bulk copy measurement.
    sigma = 0.012

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.session = get_session(machine)

    def run(self, job: FioJob, rng: np.random.Generator) -> JobResult:
        """Execute ``job`` once and return its result."""
        if job.cpunodebind is None:
            raise BenchmarkError(f"memcpy job {job.name!r} requires cpunodebind")
        other = job.cpunodebind
        target = job.target_node
        for node in (other, target):
            if node not in self.machine.node_ids:
                raise BenchmarkError(f"memcpy job {job.name!r}: unknown node {node}")
        if job.rw == "write":
            src, dst = other, target
        else:
            src, dst = target, other

        machine = self.machine
        noise = NoiseModel(rng)

        resources = _copy_resources(machine, src, dst)
        per_thread_noise = noise.factors(self.sigma, job.numjobs)
        flows = [
            Flow(
                name=f"{job.name}/t{i}",
                resources=resources,
                demand_gbps=machine.params.dma_per_thread_gbps
                * float(per_thread_noise[i]),
                size_bytes=float(job.size_bytes),
            )
            for i in range(job.numjobs)
        ]
        outcomes = self.session.simulate(flows)
        aggregate = sum(o.avg_gbps for o in outcomes.values()) * noise.factor(self.sigma)
        duration = max(o.finish_s for o in outcomes.values())
        return JobResult(
            job_name=job.name,
            engine=f"memcpy:{job.rw}",
            streams=tuple((target, other) for _ in range(job.numjobs)),
            per_stream_gbps={name: o.avg_gbps for name, o in outcomes.items()},
            aggregate_gbps=aggregate,
            duration_s=duration,
            tags={"src": src, "dst": dst, "target": target},
            solver_stats=self.session.stats.snapshot(),
        )
