"""The online simulator's rates against the flow-list allocation it replaced.

``OnlineSimulator._rates`` hands per-stream demands to
:meth:`~repro.solver.session.SolverSession.shared_rates`.  Before, it
built one ``Flow`` per running stream and called
:meth:`~repro.solver.session.SolverSession.rates`; that body is frozen
below.  Over seeded workloads (write-only and mixed directions) and all
four policies, both must give the same :class:`PolicyOutcome`: every
field equal, floats by ``float.hex``.  ``solver_stats`` is left out on
purpose: it holds wall times, and the new path counts sweeps where the
old one counted cache lookups.
"""

from __future__ import annotations

import pytest

from repro.bench.engines import StreamPlacement, device_service_levels
from repro.core.iomodel import IOModelBuilder
from repro.core.migration import POLICIES, OnlineSimulator, OnlineWorkload
from repro.flows.flow import Flow
from repro.rng import RngRegistry


def _frozen_rates(self, now, active):
    """``OnlineSimulator._rates`` before ``shared_rates``, verbatim."""
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
    return self.session.rates(flows, {resource: agg})


class _FrozenSimulator(OnlineSimulator):
    _rates = _frozen_rates


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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("write_fraction", [1.0, 0.5])
def test_outcomes_match_the_frozen_flow_list_rates(host, write_model, seed, write_fraction):
    workload = OnlineWorkload(RngRegistry(seed), rate_per_s=0.2,
                              write_fraction=write_fraction)
    jobs = workload.generate(20, label="twin")
    if write_fraction < 1.0:
        assert {j.direction for j in jobs} == {"write", "read"}
    new = OnlineSimulator(host, write_model, registry=RngRegistry(seed))
    old = _FrozenSimulator(host, write_model, registry=RngRegistry(seed))
    for policy in POLICIES:
        assert _fields(new.run(jobs, policy)) == _fields(old.run(jobs, policy))
