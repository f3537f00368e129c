"""Property-based tests for the time-domain flow simulation.

:class:`~repro.flows.network.FlowLoop` is the event loop behind
``FlowNetwork.simulate`` and the fault runner.  ``FlowNetwork.simulate``
and an empty-plan ``DegradedFlowRunner`` must stay bit-identical to the
stand-alone loop ``FlowNetwork.simulate`` ran before the loops merged,
frozen below as the reference with the allocation memo it went through
(:mod:`tests.property.frozen_allocation`): the same outcomes in the
same (finish) order, equal by ``float.hex``, after the same number of
events.  ``FlowNetwork.simulate`` counts one ``solves`` per step with a
running flow, the memo's hits and misses together; the fault runner
counts none.  The half of the drawn problems that put every flow on one
resource hold ``FlowNetwork.simulate``'s one-resource sweep to the
reference too.  Under random fault plans, the fault runner must match
its own step as it was, frozen below with the memo.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SimulationError
from repro.faults import LinkDegrade, LinkFail, MemoryThrottle
from repro.faults.degraded import (
    _DEAD_EPS,
    DegradedFlowRunner,
    machine_rerouter,
    reroute_resources,
)
from repro.faults.events import FaultEvent
from repro.faults.plan import FaultPlan
from repro.flows.flow import Flow
from repro.flows.network import FlowLoop, FlowNetwork, FlowOutcome
from repro.obs import recorder as _obs
from repro.obs.stats import SolverStats
from repro.retrying import RetryPolicy
from repro.solver.capacity import build_capacities, link_resource
from repro.topology.builders import reference_host
from repro.units import GB, gbps_to_bytes_per_s
from tests.property.frozen_allocation import AllocationCache


@st.composite
def scenarios(draw):
    n_flows = draw(st.integers(min_value=1, max_value=6))
    caps = {"dev": draw(st.floats(min_value=1.0, max_value=40.0,
                                  allow_nan=False))}
    flows = []
    for i in range(n_flows):
        size = draw(st.integers(min_value=GB // 10, max_value=40 * GB))
        start = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        demand = draw(st.floats(min_value=0.5, max_value=30.0, allow_nan=False))
        flows.append(
            Flow(name=f"f{i}", resources=("dev",), demand_gbps=demand,
                 size_bytes=size, start_s=start)
        )
    return flows, caps


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_all_flows_complete_with_exact_bytes(scenario):
    flows, caps = scenario
    outcomes = FlowNetwork(caps).simulate(flows)
    assert set(outcomes) == {f.name for f in flows}
    for f in flows:
        o = outcomes[f.name]
        assert o.bytes_moved == f.size_bytes
        assert o.finish_s > o.start_s


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_rates_never_exceed_demand_or_capacity(scenario):
    flows, caps = scenario
    outcomes = FlowNetwork(caps).simulate(flows)
    for f in flows:
        o = outcomes[f.name]
        # Average rate cannot beat the per-flow demand ceiling.
        assert o.avg_gbps <= f.demand_gbps * (1 + 1e-6)
        # Nor the single shared resource.
        assert o.avg_gbps <= caps["dev"] * (1 + 1e-6)


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_finish_no_earlier_than_solo_transfer(scenario):
    """Contention can only slow a flow down."""
    flows, caps = scenario
    outcomes = FlowNetwork(caps).simulate(flows)
    for f in flows:
        solo_rate = min(f.demand_gbps, caps["dev"])
        solo_duration = f.size_bytes / gbps_to_bytes_per_s(solo_rate)
        o = outcomes[f.name]
        assert o.duration_s >= solo_duration * (1 - 1e-6)


def _reference_simulate(allocator, capacities, stats, flows):
    """``FlowNetwork.simulate``'s body before the loops merged, verbatim."""
    pending = sorted(flows, key=lambda f: (f.start_s, f.name))
    for f in pending:
        if f.size_bytes is None:
            raise SimulationError(f"flow {f.name!r} has no size; use rates() instead")
    remaining = {f.name: float(f.size_bytes) for f in pending}  # type: ignore[arg-type]
    outcomes: dict[str, FlowOutcome] = {}
    active: dict[str, Flow] = {}
    now = 0.0
    if pending:
        now = pending[0].start_s

    guard = 0
    while pending or active:
        guard += 1
        if guard > 1_000_000:  # pragma: no cover - safety valve
            raise SimulationError("flow simulation failed to converge")
        if stats is not None:
            stats.events += 1
        while pending and pending[0].start_s <= now + 1e-15:
            f = pending.pop(0)
            active[f.name] = f
        if not active:
            now = pending[0].start_s
            continue

        current = allocator.rates(active.values(), capacities)
        # Horizon: next arrival or earliest completion at current rates.
        horizon = pending[0].start_s - now if pending else math.inf
        for name, f in active.items():
            rate_bps = gbps_to_bytes_per_s(current[name])
            if rate_bps <= 0:
                raise SimulationError(
                    f"flow {name!r} starved (rate 0); resource set "
                    f"{f.resources} cannot progress"
                )
            horizon = min(horizon, remaining[name] / rate_bps)
        if horizon is math.inf or horizon < 0:
            raise SimulationError("no progress horizon in flow simulation")

        for name in list(active):
            moved = gbps_to_bytes_per_s(current[name]) * horizon
            remaining[name] -= moved
        now += horizon
        for name in list(active):
            if remaining[name] <= max(1.0, 1e-9 * active[name].size_bytes):  # type: ignore[operator]
                f = active.pop(name)
                outcomes[name] = FlowOutcome(
                    name=name,
                    bytes_moved=float(f.size_bytes),  # type: ignore[arg-type]
                    start_s=f.start_s,
                    finish_s=now,
                )
    return outcomes


RESOURCES = ["r0", "r1", "r2"]


@st.composite
def timed_problems(draw):
    """1-16 flows on subsets of 1-3 resources; equal and staggered starts.

    Half the problems put every flow on ``r0`` alone, the shape
    ``FlowNetwork.simulate`` solves with its one-resource sweep; the
    rest draw resource subsets and take ``maxmin_rates`` unless they
    happen to land on one resource too.
    """
    one_resource = draw(st.booleans())
    n_resources = 1 if one_resource else draw(st.integers(min_value=1, max_value=3))
    names = RESOURCES[:n_resources]
    caps = {
        r: draw(st.floats(min_value=0.5, max_value=40.0, allow_nan=False))
        for r in names
    }
    # Flows draw their start from a small pool, so some start together;
    # starts reach 1e4 s, where 1e-15 is below one ulp of the clock.
    starts = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=1, max_size=4,
    ))
    flows = []
    for i in range(draw(st.integers(min_value=1, max_value=16))):
        if one_resource:
            subset = {"r0"}
        else:
            subset = draw(st.sets(st.sampled_from(names), min_size=1))
        demand = draw(st.one_of(
            st.just(math.inf),
            st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
        ))
        flows.append(Flow(
            name=f"f{i}",
            resources=tuple(sorted(subset)),
            demand_gbps=demand,
            size_bytes=draw(st.floats(min_value=1e6, max_value=4e11)),
            start_s=draw(st.sampled_from(starts)),
        ))
    return flows, caps


def _hex(outcomes):
    return [
        (o.name, o.bytes_moved.hex(), o.start_s.hex(), o.finish_s.hex(),
         o.status, o.reason, o.retries, o.reroutes)
        for o in outcomes.values()
    ]


def _reference(flows, caps):
    """Outcomes, events and the steps that had a running flow (one memo
    lookup each: its hits plus its misses, which count ``solves``)."""
    stats = SolverStats()
    memo = AllocationCache(stats=stats)
    outcomes = _reference_simulate(memo, dict(caps), stats, flows)
    return _hex(outcomes), stats.events, memo.hits + stats.solves


#: The clock reaches f1's arrival one ulp (7e-15 s) short.  The loop's
#: 1e-15 s tolerance takes one more tiny step before admitting it; a
#: 1e-12 s tolerance would admit it at once, one event fewer.
_TOLERANCE_PROBE = (
    [
        Flow(name="f0", resources=("r0",), demand_gbps=19.0114588340201,
             size_bytes=400e9, start_s=3.1006697393176132),
        Flow(name="f1", resources=("r0",), demand_gbps=11.826872135430424,
             size_bytes=33e9, start_s=41.382453864875565),
    ],
    {"r0": 8.0},
)


@given(timed_problems())
@example(_TOLERANCE_PROBE)
@settings(max_examples=200, deadline=None)
def test_simulate_matches_frozen_loop(problem):
    flows, caps = problem
    stats = SolverStats()
    outcomes = FlowNetwork(caps, stats=stats).simulate(flows)
    assert (_hex(outcomes), stats.events, stats.solves) == _reference(flows, caps)


@given(timed_problems())
@example(_TOLERANCE_PROBE)
@settings(max_examples=200, deadline=None)
def test_empty_plan_runner_matches_frozen_loop(problem):
    flows, caps = problem
    stats = SolverStats()
    outcomes = DegradedFlowRunner(caps, stats=stats).simulate(flows)
    hexed, events, _steps = _reference(flows, caps)
    assert (_hex(outcomes), stats.events, stats.solves) == (hexed, events, 0)


class _FrozenRunner(DegradedFlowRunner):
    """``DegradedFlowRunner`` with its step as it was: rates through a
    private allocation memo."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._alloc = AllocationCache()

    def _step(self, loop: FlowLoop):
        """Capacities at ``loop.now``; blocked flows re-route, park or fail."""
        now = loop.now
        caps = self.plan.scaled_capacities(self.capacities, now)
        for name, flow in list(loop.active.items()):
            dead = tuple(r for r in flow.resources if caps.get(r, 0.0) <= _DEAD_EPS)
            if not dead:
                continue
            if self.rerouter is not None:
                alternative = self.rerouter(name, dead, now)
                if alternative is not None and not any(
                    caps.get(r, 0.0) <= _DEAD_EPS for r in alternative
                ):
                    loop.reroute(name, alternative)
                    _obs.count("faults.reroutes")
                    continue
            retries = loop.retries.get(name, 0)
            if retries >= self.retry.max_retries:
                loop.fail(
                    name,
                    f"resources {sorted(dead)} unavailable after {retries} retries",
                )
                _obs.count("faults.flows_failed")
            else:
                loop.park(name, now + self.retry.delay_s(retries, self._rng))
                _obs.count("faults.retries")
        return self._alloc.rates(loop.active.values(), caps), self.plan.next_boundary(now)


_HOST = reference_host(with_devices=False)
_HOST_CAPS = build_capacities(_HOST)


@st.composite
def faulted_runs(draw):
    """DMA fan-in copies on the reference host under a timed fault plan.

    Each source node sends 1-2 copies to the target; links degrade or
    fail and controllers throttle inside the transfers' lifetime, with
    or without recovery, so flows re-route, park, recover or fail.
    """
    target = draw(st.sampled_from(_HOST.node_ids))
    sources = draw(st.sets(
        st.sampled_from([n for n in _HOST.node_ids if n != target]), min_size=1
    ))
    flows, endpoints = [], {}
    for src in sorted(sources):
        resources = reroute_resources(_HOST, src, target)
        for i in range(draw(st.integers(min_value=1, max_value=2))):
            name = f"dma/{src}>{target}/{i}"
            flows.append(Flow(
                name=name, resources=resources,
                demand_gbps=_HOST.params.dma_per_thread_gbps,
                size_bytes=draw(st.floats(min_value=0.5, max_value=4.0)) * GB,
                start_s=draw(st.sampled_from([0.0, 0.0, 0.1, 0.35])),
            ))
            endpoints[name] = (src, target)
    # Most faults hit a link some copy crosses.
    crossed = sorted({ends for f in flows for ends in _HOST.links
                      if link_resource(*ends) in f.resources})
    links = st.sampled_from(crossed or sorted(_HOST.links))
    factors = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
    faults = st.one_of(
        links.map(lambda ends: LinkFail(a=ends[0], b=ends[1])),
        st.builds(lambda ends, factor: LinkDegrade(src=ends[0], dst=ends[1],
                                                   factor=factor), links, factors),
        st.builds(MemoryThrottle, node=st.sampled_from(_HOST.node_ids), factor=factors),
    )
    events = []
    for fault in draw(st.lists(faults, max_size=5)):
        at_s = draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
        until = draw(st.one_of(
            st.none(), st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
        ))
        events.append(FaultEvent(
            fault, at_s=at_s, until_s=None if until is None else at_s + until
        ))
    plan = FaultPlan(events)
    rerouter = machine_rerouter(_HOST, plan, endpoints) if draw(st.booleans()) else None
    retry = RetryPolicy(max_retries=draw(st.integers(min_value=0, max_value=4)),
                        base_delay_s=0.1)
    return flows, plan, rerouter, retry, draw(st.integers(min_value=0, max_value=9))


def _faulted(cls, flows, plan, rerouter, retry, seed):
    stats = SolverStats()
    runner = cls(_HOST_CAPS, plan=plan, rng=np.random.default_rng(seed),
                 retry=retry, rerouter=rerouter, stats=stats)
    try:
        outcomes = runner.simulate(flows)
    except ReproError as exc:  # e.g. a plan that degrades a link it failed
        return "raised", type(exc).__name__, str(exc)
    return _hex(outcomes), stats.events, stats.solves


@given(faulted_runs())
@settings(max_examples=60, deadline=None)
def test_faulted_runner_matches_its_frozen_step(run):
    assert _faulted(DegradedFlowRunner, *run) == _faulted(_FrozenRunner, *run)
