"""The online simulator's list loop against the ``FlowLoop`` simulator.

:meth:`OnlineSimulator.run` runs its own loop over the active streams,
one ``water_fill`` per step.  Its reference is frozen below: the same
run body on :class:`~repro.flows.network.FlowLoop` with a step hook,
whose rates come from one ``Flow`` per running stream through
:meth:`~repro.solver.session.SolverSession.rates`.  Over seeded and
random workloads and all four policies, both must give the same
:class:`PolicyOutcome` (every field, floats by ``float.hex``) and pose
the same number of allocation problems, or raise the same error with
the same text, with one expected difference: a run whose makespan is
0 s is a typed error on the list loop and ``repro.units.gbps``'s bare
``ValueError`` on the frozen side.  ``solver_stats`` wall times are
left out on purpose; the reference counts its problems itself.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import engines
from repro.bench.engines import StreamPlacement, device_service_levels
from repro.core import migration
from repro.core.iomodel import IOModelBuilder
from repro.core.migration import POLICIES, OnlineSimulator, OnlineWorkload, StreamJob
from repro.errors import ReproError
from repro.flows.flow import Flow
from repro.flows.network import FlowLoop
from repro.rng import RngRegistry
from repro.solver import session as session_module
from repro.units import GB, gbps


def _frozen_rates(self, now, active):
    """The step hook's rates: a flow list through ``SolverSession.rates``."""
    running = [j for j in active if j.stalled_until_s <= now]
    if not running:
        return {}
    placements = [
        StreamPlacement(cpu_node=j.node, mem_node=j.node) for j in running
    ]
    directions = {j.direction for j in running}
    by_direction = {
        d: device_service_levels(
            self.machine, self.device, self.profiles[d], placements, d,
            session=self.session,
        )
        for d in directions
    }
    levels = [by_direction[j.direction][i] for i, j in enumerate(running)]
    n = len(running)
    ways = max(1.0, n / self.device.dma.contexts)
    resource = self._resource
    flows = []
    for j, level in zip(running, levels):
        profile = self.profiles[j.direction]
        demand = level / ways
        if profile.per_stream_cap_gbps is not None:
            demand = min(demand, profile.per_stream_cap_gbps)
        if profile.cpu_gbps_per_stream is not None:
            demand = min(demand, profile.cpu_gbps_per_stream)
        flows.append(Flow(name=j.name, resources=(resource,), demand_gbps=demand))
    agg = sum(levels) / len(levels)
    rates = self.session.rates(flows, {resource: agg})
    self.problems += 1
    return rates


def _frozen_run(self, jobs, policy):
    """``OnlineSimulator.run`` on ``FlowLoop`` with its step hook, verbatim
    but for ``FlowLoop.reached`` (``t <= loop.now + 1e-15``)."""
    if policy not in migration.POLICIES:
        raise migration.ModelError(f"unknown policy {policy!r}; choose from {POLICIES}")
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
    next_epoch = migration._EPOCH_S

    def reached(loop, t):
        return t <= loop.now + 1e-15

    def step(loop: FlowLoop):
        nonlocal next_epoch
        now = loop.now
        active = [fresh[name] for name in loop.active]
        for job in active:
            if job.node is None:
                job.node = self._place(policy, active, rng)
        until = math.inf
        if migrate:
            while reached(loop, next_epoch):
                moved = self._plan_migrations(now, active)
                next_epoch += migration._EPOCH_S
                if not moved:
                    k = int(now // migration._EPOCH_S)
                    while reached(loop, migration._EPOCH_S * k):
                        k += 1
                    next_epoch = migration._EPOCH_S * k
            until = next_epoch
        for job in active:
            if job.stalled_until_s > now:
                until = min(until, job.stalled_until_s)
        return self._rates(now, active), until

    outcomes = FlowLoop(flows, step).run().values()
    completions = {o.name: o.duration_s for o in outcomes}
    times = np.array(sorted(completions.values()))
    makespan = max(o.finish_s for o in outcomes) - min(o.start_s for o in outcomes)
    return migration.PolicyOutcome(
        policy=policy,
        mean_completion_s=float(times.mean()),
        p95_completion_s=float(np.percentile(times, 95)),
        makespan_s=makespan,
        aggregate_gbps=gbps(sum(o.bytes_moved for o in outcomes), makespan),
        migrations=sum(j.migrations for j in fresh.values()),
        per_stream_completion_s=completions,
        solver_stats=self.session.stats.snapshot(),
    )


class _FrozenSimulator(OnlineSimulator):
    #: Allocation problems posed: one per step with a running stream.
    problems = 0
    _rates = _frozen_rates
    run = _frozen_run


@pytest.fixture(scope="module")
def write_model(host):
    return IOModelBuilder(host, registry=RngRegistry(), runs=10).build(7, "write")


def _fields(outcome):
    return (
        outcome.policy,
        outcome.mean_completion_s.hex(),
        outcome.p95_completion_s.hex(),
        outcome.makespan_s.hex(),
        outcome.aggregate_gbps.hex(),
        outcome.migrations,
        [(name, t.hex()) for name, t in outcome.per_stream_completion_s.items()],
    )


def _answer(run, jobs, policy, problems):
    """Outcome fields plus problems posed, or the error raised."""
    try:
        outcome = run(jobs, policy)
    except (ReproError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return _fields(outcome), problems()


def _twins(machine, model, seed):
    new = OnlineSimulator(machine, model, registry=RngRegistry(seed))
    old = _FrozenSimulator(machine, model, registry=RngRegistry(seed))
    return new, old


#: The one answer the twins give differently, frozen side first: a run
#: whose every stream finishes at the instant it arrives (1 byte at
#: ~1e7 s) has a makespan of 0 s, which the list loop reports as a
#: typed error.
_ZERO_MAKESPAN = (
    ("raised", "ValueError", "elapsed time must be positive, got 0.0"),
    ("raised", "SimulationError",
     "makespan is 0 s: every stream finished at the instant it arrived, "
     "so the run has no aggregate bandwidth"),
)


def _assert_twins_agree(new, old, jobs, policies=POLICIES):
    stats = new.session.stats
    for policy in policies:
        before = stats.solves
        fresh = _answer(new.run, jobs, policy, lambda: stats.solves - before)
        posed = old.problems
        frozen = _answer(old.run, jobs, policy, lambda: old.problems - posed)
        if frozen == _ZERO_MAKESPAN[0]:
            frozen = _ZERO_MAKESPAN[1]
        assert fresh == frozen, policy


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("write_fraction", [1.0, 0.5])
def test_outcomes_match_the_frozen_flow_list_rates(host, write_model, seed, write_fraction):
    workload = OnlineWorkload(RngRegistry(seed), rate_per_s=0.2,
                              write_fraction=write_fraction)
    jobs = workload.generate(20, label="twin")
    if write_fraction < 1.0:
        assert {j.direction for j in jobs} == {"write", "read"}
    _assert_twins_agree(*_twins(host, write_model, seed), jobs)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=1, max_value=80),
    rate_exp=st.floats(min_value=-7.0, max_value=math.log10(2.0)),
    size_exp=st.floats(min_value=0.0, max_value=12.0),
    sigma=st.sampled_from([0.0, 0.35, 1.5]),
    write_fraction=st.floats(min_value=0.0, max_value=1.0),
)
# Every stream overlaps: a long queue, migrations and their stalls.
@example(seed=7, n=80, rate_exp=math.log10(2.0), size_exp=12.0, sigma=0.35,
         write_fraction=0.5)
# Arrivals ~1e7 s apart: idle jumps over ~500,000 epochs each.
@example(seed=5, n=6, rate_exp=-7.0, size_exp=11.0, sigma=0.35, write_fraction=1.0)
# One byte at ~1e7 s: the finish rounds to the arrival.
@example(seed=3, n=1, rate_exp=-7.0, size_exp=0.0, sigma=0.0, write_fraction=0.0)
@settings(max_examples=30, deadline=None)
def test_random_workloads_match_the_frozen_simulator(
    host, write_model, seed, n, rate_exp, size_exp, sigma, write_fraction
):
    """1-80 streams; arrivals 1e-7 to 2 per second, so idle gaps skip
    many epochs; sizes around 1 byte to 1e12; any mix of directions."""
    workload = OnlineWorkload(
        RngRegistry(seed), rate_per_s=10.0**rate_exp,
        mean_size_bytes=10.0**size_exp, size_sigma=sigma,
        write_fraction=write_fraction,
    )
    _assert_twins_agree(*_twins(host, write_model, seed), workload.generate(n))


@pytest.mark.parametrize(
    "jobs",
    [
        # "b" arrives within the loop's 1e-15 s admission tolerance of "a".
        [StreamJob("a", 0.0, 1e9), StreamJob("b", 5e-16, 1e9),
         StreamJob("c", 1.0, 1e9)],
        # "b" has exactly its retire threshold (1 byte) left when "a" ends.
        [StreamJob("a", 0.0, 3e6), StreamJob("b", 0.0, 3e6 + 1.0)],
    ],
    ids=["admission-tolerance", "retire-threshold"],
)
def test_tolerance_edges_match(host, write_model, jobs):
    _assert_twins_agree(*_twins(host, write_model, 1), jobs)


def test_only_the_frozen_side_runs_flow_loop(host, write_model, monkeypatch):
    loops, solves = [], []
    loop_run = FlowLoop.run
    maxmin_rates = session_module.maxmin_rates

    def spy(self):
        loops.append(self)
        return loop_run(self)

    def spy_solve(flows, capacities, stats=None):
        solves.append(flows)
        return maxmin_rates(flows, capacities, stats)

    monkeypatch.setattr(FlowLoop, "run", spy)
    monkeypatch.setattr(session_module, "maxmin_rates", spy_solve)
    jobs = OnlineWorkload(RngRegistry(6), rate_per_s=0.2).generate(12)
    new, old = _twins(host, write_model, 6)
    stats = new.session.stats
    allocate = stats.phase_wall_s.get("allocate")
    simulate = stats.phase_wall_s.get("simulate", 0.0)
    new.run(jobs, "class-migrate")
    assert loops == [] and solves == []
    # The run is one ``simulate`` phase: no flow list, no allocate span.
    assert stats.phase_wall_s.get("allocate") == allocate
    assert stats.phase_wall_s["simulate"] > simulate
    old.run(jobs, "class-migrate")
    assert len(loops) == 1 and len(solves) == old.problems > 0


def test_duplicate_stream_names_raise_alike(host, write_model):
    jobs = [StreamJob("dup", 0.0, GB), StreamJob("solo", 1.0, GB),
            StreamJob("dup", 2.0, GB)]
    new, old = _twins(host, write_model, 1)
    for policy in POLICIES:
        expected = ("raised", "SimulationError",
                    "duplicate flow names in simulation: ['dup']")
        assert _answer(new.run, jobs, policy, lambda: 0) == expected
        assert _answer(old.run, jobs, policy, lambda: 0) == expected


class _Hollow(float):
    """A service level of 0 whose per-stream share is positive, so the
    streams' demands pass and only their mean, the capacity, is 0."""

    def __truediv__(self, other):
        return 1.0


@pytest.mark.parametrize(
    "level, message",
    [
        (0.0, "flow 'wl/0': demand must be positive"),
        (_Hollow(0.0), "resource 'dev:{}' has non-positive capacity"),
    ],
    ids=["zero-level", "zero-capacity"],
)
def test_degenerate_levels_raise_alike(host, write_model, monkeypatch, level, message):
    def flat(*args):
        return level

    monkeypatch.setattr(engines, "placement_service_level", flat)
    monkeypatch.setattr(migration, "placement_service_level", flat)
    jobs = OnlineWorkload(RngRegistry(2), rate_per_s=0.2).generate(4)
    new, old = _twins(host, write_model, 2)
    for policy in POLICIES:
        expected = ("raised", "SimulationError", message.format(new.device.name))
        assert _answer(new.run, jobs, policy, lambda: 0) == expected
        assert _answer(old.run, jobs, policy, lambda: 0) == expected
