"""Online placement and migration of parallel I/O streams.

The paper's first future-work item (§VI): "mechanisms of placing and
migrating parallel I/O threads for data-intensive applications based on
the result of our characterization methodology."  This module builds
that mechanism on top of the class model:

* :class:`OnlineWorkload` — a seeded multi-user arrival process of
  finite I/O streams hitting one device;
* placement policies — ``local`` (everything on the device node),
  ``random``, ``class-spread`` (least-loaded node of the equivalent
  classes, the §V-B advice applied online), and ``class-migrate``
  (streams *arrive* with the naive local placement — the Linux default
  an unmodified application gets — and the controller migrates them off
  oversubscribed or lower-class nodes at each epoch; this is the
  "migrating parallel I/O threads" mechanism of §VI applied to
  unmodified workloads);
* :class:`OnlineSimulator` — an event-driven run (arrivals, completions,
  migration epochs) on the library's one
  :class:`~repro.flows.network.FlowLoop`, whose instantaneous rates come
  from the same service-level model as the fio engines, so policies are
  compared on the exact physics the benchmarks validated.  Its step hook
  places the streams admitted at that step, runs any migration epochs
  due, and pauses stalled streams until their stall ends.

Migration is not free: a migrated stream pays 0.5 s of stalled transfer
(page unmap/copy/remap), so the policy must earn its moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bench.engines import placement_service_level
from repro.errors import ModelError
from repro.flows.flow import Flow
from repro.flows.network import FlowLoop
from repro.core.model import IOPerformanceModel
from repro.core.scheduler_advisor import PlacementAdvisor
from repro.rng import RngRegistry
from repro.solver.session import get_session
from repro.topology.machine import Machine
from repro.units import GB, gbps

__all__ = [
    "StreamJob",
    "OnlineWorkload",
    "PolicyOutcome",
    "OnlineSimulator",
    "POLICIES",
]

#: Policy names accepted by :meth:`OnlineSimulator.run`.
POLICIES = ("local", "random", "class-spread", "class-migrate")

#: The device every stream uses and its per-direction rdma profiles.
_DEVICE = "nic"
_PROFILES = {"write": "rdma_write", "read": "rdma_read"}
#: Class-equivalence tolerance for the placement advisor.
_TOLERANCE = 0.05
#: class-migrate's re-evaluation period and the transfer stall each
#: migrated stream pays.
_EPOCH_S = 20.0
_MIGRATION_COST_S = 0.5
#: Arrivals must come before this: below 2**43 s one step of the float
#: clock is under 1 ms and every multiple of the epoch is exact.
_MAX_ARRIVAL_S = 2.0**43


@dataclass
class StreamJob:
    """One finite I/O stream in the online workload."""

    name: str
    arrival_s: float
    size_bytes: float
    direction: str = "write"
    #: Assigned by the policy at arrival (and possibly re-assigned).
    node: int | None = None
    remaining_bytes: float = field(init=False)
    migrations: int = 0
    #: Simulated time at which the stream may transfer again (migration stall).
    stalled_until_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_s < _MAX_ARRIVAL_S:
            raise ModelError(
                f"stream {self.name!r}: arrival must be non-negative and "
                f"below 2**43 s, got {self.arrival_s!r}"
            )
        if not 0 < self.size_bytes < math.inf:
            raise ModelError(
                f"stream {self.name!r}: size must be positive and finite, "
                f"got {self.size_bytes!r}"
            )
        if self.direction not in ("write", "read"):
            raise ModelError(f"stream {self.name!r}: bad direction {self.direction!r}")
        self.remaining_bytes = float(self.size_bytes)


class OnlineWorkload:
    """Seeded multi-user arrival process.

    Poisson arrivals at ``rate_per_s``; sizes lognormal around
    ``mean_size_bytes``; direction drawn from ``write_fraction``.
    """

    def __init__(
        self,
        registry: RngRegistry | None = None,
        rate_per_s: float = 0.05,
        mean_size_bytes: float = 40 * GB,
        size_sigma: float = 0.35,
        write_fraction: float = 1.0,
    ) -> None:
        if not rate_per_s > 0:
            raise ModelError(f"workload rate must be positive, got {rate_per_s!r}")
        if mean_size_bytes <= 0:
            raise ModelError(f"workload size must be positive, got {mean_size_bytes!r}")
        if not 0 <= write_fraction <= 1:
            raise ModelError("write_fraction must be in [0, 1]")
        self.registry = registry or RngRegistry()
        self.rate_per_s = rate_per_s
        self.mean_size_bytes = mean_size_bytes
        self.size_sigma = size_sigma
        self.write_fraction = write_fraction

    def generate(self, n_streams: int, label: str = "wl") -> list[StreamJob]:
        """``n_streams`` jobs with seeded arrivals and sizes."""
        if n_streams < 1:
            raise ModelError("need at least one stream")
        rng = self.registry.stream(f"workload/{label}")
        arrivals = np.cumsum(rng.exponential(1.0 / self.rate_per_s, n_streams))
        sizes = self.mean_size_bytes * np.exp(
            rng.normal(-0.5 * self.size_sigma**2, self.size_sigma, n_streams)
        )
        directions = np.where(
            rng.random(n_streams) < self.write_fraction, "write", "read"
        )
        return [
            StreamJob(
                name=f"{label}/{i}",
                arrival_s=float(arrivals[i]),
                size_bytes=float(sizes[i]),
                direction=str(directions[i]),
            )
            for i in range(n_streams)
        ]


@dataclass(frozen=True)
class PolicyOutcome:
    """Result of one policy over one workload."""

    policy: str
    mean_completion_s: float
    p95_completion_s: float
    makespan_s: float
    aggregate_gbps: float
    migrations: int
    per_stream_completion_s: dict[str, float]
    solver_stats: dict = field(default_factory=dict)

    def render(self) -> str:
        """One summary line."""
        return (
            f"{self.policy:14s} mean {self.mean_completion_s:8.1f} s, "
            f"p95 {self.p95_completion_s:8.1f} s, aggregate "
            f"{self.aggregate_gbps:5.2f} Gbps, {self.migrations} migrations"
        )


class OnlineSimulator:
    """Event-driven online placement simulation against the host's NIC.

    Write-direction streams get the rdma write profile and
    read-direction streams the rdma read profile.

    Parameters
    ----------
    machine:
        Host with a ``nic`` device attached.
    model:
        The memcpy class model of the device's node (drives the
        class-aware policies; ``local``/``random`` ignore it).
    registry:
        Seeds the ``random`` policy's placement draws.
    """

    def __init__(
        self,
        machine: Machine,
        model: IOPerformanceModel,
        registry: RngRegistry | None = None,
    ) -> None:
        device = machine.devices.get(_DEVICE)
        if device is None:
            raise ModelError(
                f"machine {machine.name!r} has no device {_DEVICE!r}"
            )
        self.machine = machine
        self.model = model
        self.device = device
        self.profiles = {
            direction: device.engine(name) for direction, name in _PROFILES.items()
        }
        self.registry = registry or RngRegistry()
        self.advisor = PlacementAdvisor(machine, model, tolerance=_TOLERANCE)
        # Event-loop allocations share the machine's solver session, so
        # recurring active sets are served from the memo.
        self.session = get_session(machine)
        self._resource = f"dev:{device.name}"
        # Candidate nodes for the class-aware policies, best class first.
        self._candidates = list(self.advisor.candidate_nodes())

    # --- placement decisions ---------------------------------------------
    def _load(self, active: list[StreamJob]) -> dict[int, int]:
        load = {n: 0 for n in self.machine.node_ids}
        for job in active:
            if job.node is not None:
                load[job.node] += 1
        return load

    def _place(self, policy: str, active: list[StreamJob],
               rng: np.random.Generator) -> int:
        if policy in ("local", "class-migrate"):
            # class-migrate models unmodified applications: they arrive
            # with the kernel's local-preferred placement and only the
            # migration controller moves them later.
            return self.device.node_id
        if policy == "random":
            return int(rng.choice(self.machine.node_ids))
        # class-spread: least-loaded candidate node at admission.
        load = self._load(active)
        return min(self._candidates, key=lambda n: (load[n], n))

    def _plan_migrations(self, now: float, active: list[StreamJob]) -> int:
        """class-migrate epochs: drain oversubscribed/non-candidate nodes.

        Returns how many streams moved; each move is also counted once
        in the moved stream's ``migrations``.
        """
        load = self._load(active)
        moved = 0
        for job in sorted(active, key=lambda j: j.name):
            if job.node is None:
                continue
            cores = self.machine.node(job.node).n_cores
            over = load[job.node] > cores
            off_class = job.node not in self._candidates
            if not (over or off_class):
                continue
            target = min(self._candidates, key=lambda n: (load[n], n))
            has_room = load[target] < self.machine.node(target).n_cores
            if target != job.node and (off_class or has_room):
                load[job.node] -= 1
                load[target] += 1
                job.node = target
                job.migrations += 1
                job.stalled_until_s = max(job.stalled_until_s, now) + _MIGRATION_COST_S
                moved += 1
        return moved

    # --- rate computation ---------------------------------------------------
    def _rates(self, now: float, active: list[StreamJob]) -> dict[str, float]:
        running = [j for j in active if j.stalled_until_s <= now]
        if not running:
            return {}
        streams_on_node: dict[int, int] = {}
        for j in running:
            streams_on_node[j.node] = streams_on_node.get(j.node, 0) + 1
        ways = max(1.0, len(running) / self.device.dma.contexts)
        # A stream's level and demand depend only on its node, its
        # direction and its node's stream count, so each (node,
        # direction) group computes them once; the lists keep running
        # order, so ``agg`` sums the same floats in the same order.
        groups: dict[tuple[int, str], tuple[float, float]] = {}
        levels = []
        demands = []
        for j in running:
            key = (j.node, j.direction)
            if key not in groups:
                profile = self.profiles[j.direction]
                level = placement_service_level(
                    self.machine, self.device, profile, j.direction, j.node,
                    j.node, streams_on_node[j.node], self.session,
                )
                demand = level / ways
                if profile.per_stream_cap_gbps is not None:
                    demand = min(demand, profile.per_stream_cap_gbps)
                if profile.cpu_gbps_per_stream is not None:
                    demand = min(demand, profile.cpu_gbps_per_stream)
                groups[key] = level, demand
            level, demand = groups[key]
            levels.append(level)
            demands.append(demand)
        agg = sum(levels) / len(levels)
        return self.session.shared_rates(
            [j.name for j in running], demands, self._resource, agg
        )

    # --- the event loop ---------------------------------------------------
    def run(self, jobs: list[StreamJob], policy: str) -> PolicyOutcome:
        """Simulate one policy over (fresh copies of) ``jobs``."""
        if policy not in POLICIES:
            raise ModelError(f"unknown policy {policy!r}; choose from {POLICIES}")
        rng = self.registry.stream(f"online/{policy}")
        fresh = {
            j.name: StreamJob(name=j.name, arrival_s=j.arrival_s,
                              size_bytes=j.size_bytes, direction=j.direction)
            for j in jobs
        }
        flows = [
            Flow(name=j.name, resources=(self._resource,),
                 size_bytes=j.size_bytes, start_s=j.arrival_s)
            for j in jobs
        ]
        migrate = policy == "class-migrate"
        next_epoch = _EPOCH_S

        def step(loop: FlowLoop):
            nonlocal next_epoch
            now = loop.now
            active = [fresh[name] for name in loop.active]
            # Streams admitted this step are the unplaced ones; each one's
            # placement sees those placed before it.
            for job in active:
                if job.node is None:
                    job.node = self._place(policy, active, rng)
            until = math.inf
            if migrate:
                # Catch up on every epoch due (idle jumps can skip several).
                while loop.reached(next_epoch):
                    moved = self._plan_migrations(now, active)
                    next_epoch += _EPOCH_S
                    if not moved:
                        # A pass that moves nothing changes nothing, so
                        # the other due passes would move nothing either:
                        # skip to the first epoch not yet due.  Multiples
                        # of 20 s are exact below 2**53 s, so this is
                        # where the repeated sums would land.
                        k = int(now // _EPOCH_S)
                        while loop.reached(_EPOCH_S * k):
                            k += 1
                        next_epoch = _EPOCH_S * k
                until = next_epoch
            for job in active:
                if job.stalled_until_s > now:
                    until = min(until, job.stalled_until_s)
            return self._rates(now, active), until

        outcomes = FlowLoop(flows, step).run().values()
        completions = {o.name: o.duration_s for o in outcomes}
        times = np.array(sorted(completions.values()))
        makespan = max(o.finish_s for o in outcomes) - min(o.start_s for o in outcomes)
        return PolicyOutcome(
            policy=policy,
            mean_completion_s=float(times.mean()),
            p95_completion_s=float(np.percentile(times, 95)),
            makespan_s=makespan,
            aggregate_gbps=gbps(sum(o.bytes_moved for o in outcomes), makespan),
            migrations=sum(j.migrations for j in fresh.values()),
            per_stream_completion_s=completions,
            solver_stats=self.session.stats.snapshot(),
        )

    def compare(self, jobs: list[StreamJob], policies=POLICIES) -> dict[str, PolicyOutcome]:
        """Run several policies over the same workload."""
        return {policy: self.run(jobs, policy) for policy in policies}
