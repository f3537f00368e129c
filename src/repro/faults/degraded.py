"""Degraded-mode flow simulation: reroute, back off, or fail — structurally.

:meth:`~repro.flows.network.FlowNetwork.simulate` runs against a *fixed*
capacity map and raises when a flow starves.  Under a
:class:`~repro.faults.plan.FaultPlan` neither holds: capacities change
at fault boundaries, and a flow whose resources die is an expected
state that the runner must handle gracefully.  :class:`DegradedFlowRunner`
runs on the same :class:`~repro.flows.network.FlowLoop`; its step hook
derates the capacities to the current time, bounds each step by the
plan's next boundary, and resolves every blocked flow in active order:

1. **re-route** — if a :func:`machine_rerouter` is installed and a path
   avoiding the dead resources survives on the faulted topology, the
   flow continues on the new resource set (outcome ``"rerouted"``);
2. **retry** — otherwise the flow parks and retries with seeded
   exponential backoff (the fault may recover); a flow that eventually
   completes this way reports ``"recovered"``;
3. **fail** — once the retry budget is exhausted the flow completes
   with a structured :class:`~repro.flows.network.FlowOutcome` of status
   ``"failed"`` (partial bytes, a human-readable reason) instead of
   raising, so multi-transfer shuffles report partial results.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from repro.errors import RouteLostError, RoutingError
from repro.faults.plan import FaultedMachine, FaultPlan
from repro.flows.flow import Flow
from repro.flows.network import FlowLoop, FlowOutcome
from repro.interconnect.planes import PLANE_DMA
from repro.memory.controller import dma_resource
from repro.obs import recorder as _obs
from repro.retrying import RetryPolicy
from repro.solver.capacity import link_resource
from repro.solver.incremental import maxmin_rates

__all__ = [
    "RetryPolicy",
    "DegradedFlowRunner",
    "reroute_resources",
    "machine_rerouter",
]

_DEAD_EPS = 1e-12

#: A rerouter maps (flow name, dead resources, time) to a surviving
#: resource set, or ``None`` when no alternative exists.
Rerouter = Callable[[str, tuple[str, ...], float], "tuple[str, ...] | None"]


class DegradedFlowRunner:
    """Time-domain flow simulation under a :class:`FaultPlan`.

    Parameters
    ----------
    capacities:
        The *healthy* capacity map; fault derating is applied per time
        slice, so faulted capacities never exceed these.
    plan:
        The fault schedule.  An empty plan reproduces
        :meth:`FlowNetwork.simulate` outcomes exactly (all ``"ok"``).
    rng:
        Seeded generator for backoff jitter; ``None`` disables jitter
        (still deterministic).
    retry:
        The backoff policy for blocked flows.
    rerouter:
        Optional :data:`Rerouter`; see :func:`machine_rerouter`.
    stats:
        Optional :class:`~repro.solver.stats.SolverStats` event counter
        (each step's :func:`~repro.solver.incremental.maxmin_rates` solve
        is not counted).
    """

    def __init__(
        self,
        capacities: Mapping[str, float],
        plan: FaultPlan | None = None,
        rng: np.random.Generator | None = None,
        retry: RetryPolicy | None = None,
        rerouter: Rerouter | None = None,
        stats=None,
    ) -> None:
        self.capacities = dict(capacities)
        self.plan = plan if plan is not None else FaultPlan()
        self.retry = retry if retry is not None else RetryPolicy()
        self.rerouter = rerouter
        self._rng = rng
        self._stats = stats

    def simulate(self, flows: Iterable[Flow]) -> dict[str, FlowOutcome]:
        """Run finite flows to completion or structured failure."""
        with _obs.span(
            "faults.degraded_run", faults=len(self.plan)
        ):
            _obs.count("faults.injected", len(self.plan))
            return FlowLoop(flows, self._step, self._stats).run()

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
        return maxmin_rates(loop.active.values(), caps), self.plan.next_boundary(now)


def reroute_resources(
    machine, src: int, dst: int
) -> tuple[str, ...]:
    """The DMA-plane resource set for a ``src -> dst`` bulk transfer.

    On a :class:`~repro.faults.plan.FaultedMachine` this is the surviving
    route's resource set.

    Raises
    ------
    RouteLostError
        If no route from ``src`` to ``dst`` survives on ``machine``.
    """
    resources = [dma_resource(src)]
    if src != dst:
        resources.append(dma_resource(dst))
        try:
            path = machine.path(PLANE_DMA, src, dst)
        except RoutingError as exc:
            raise RouteLostError(
                f"no DMA route from node {src} to node {dst} on "
                f"{machine.name!r}: {exc}"
            ) from exc
        for link in path.links:
            resources.append(link_resource(*link.ends))
    return tuple(resources)


def machine_rerouter(
    machine, plan: FaultPlan, endpoints: Mapping[str, tuple[int, int]]
) -> Rerouter:
    """A :data:`Rerouter` that re-routes DMA flows on the faulted topology.

    ``endpoints`` maps flow names to their ``(src, dst)`` node pair.
    Faulted machine views are cached per active-topology-fault set, so a
    plan with few boundaries costs few rebuilds.
    """
    views: dict[tuple[str, ...], FaultedMachine] = {}

    def reroute(
        name: str, dead: tuple[str, ...], t: float
    ) -> tuple[str, ...] | None:
        pair = endpoints.get(name)
        if pair is None:
            return None
        faults = plan.topology_faults_at(t)
        key = tuple(f.describe() for f in faults)
        view = views.get(key)
        if view is None:
            view = FaultedMachine(machine, faults)
            views[key] = view
        try:
            return reroute_resources(view, *pair)
        except RouteLostError:
            return None

    return reroute
