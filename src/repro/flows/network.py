"""Time-domain flow simulation: the event loop.

Long benchmarks (fio's 400-GB-per-stream transfers) are simulated by
recomputing rates at every *rate-change event* — a flow arriving or
completing, a parked flow waking, or a boundary the caller names (a
fault window) — and integrating bytes between events.
With identical, simultaneous streams the allocation is constant and the
loop converges in one step; with staggered or mixed workloads the
piecewise-constant rate profile is captured exactly.

:class:`FlowLoop` is that loop.  Two simulations run on it and differ
only in the step hook they pass: :meth:`FlowNetwork.simulate` (max-min
rates on fixed capacities) and
:class:`~repro.faults.degraded.DegradedFlowRunner` (rates on
fault-derated capacities, with blocked flows re-routed, parked or
failed).  :class:`~repro.core.migration.OnlineSimulator`, whose every
step is one shared device resource, runs the same arithmetic as its own
list loop, not on :class:`FlowLoop`.

:class:`FlowNetwork` rates come from one of two hooks, chosen once per
``simulate`` call.  When every flow crosses the same single resource
at weight 1 (the fio engines' ``dev:<device>:<direction>``), each step
is one :func:`~repro.solver.incremental.water_fill` sweep over the
active demands.  Any other problem takes one cold
:func:`~repro.solver.incremental.maxmin_rates` solve per step.  Both
give the same floats.

:func:`shared_finish` is the first of those cases for flows that also
start together with one size, the fio engine's size-based job: the
same loop arithmetic over plain lists, with no flow, outcome or loop
object.  ``FlowNetwork.simulate`` stays its reference.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.solver.incremental import maxmin_rates, water_fill
from repro.units import gbps, gbps_to_bytes_per_s

__all__ = ["FlowOutcome", "FlowLoop", "FlowNetwork", "shared_finish"]

_TIME_EPS = 1e-15

#: A step hook receives the loop at the start of a step (``loop.now``,
#: ``loop.active``) and returns the running flows' rates in Gbps plus
#: the caller's next boundary (an absolute time, or ``None``).  Active
#: flows absent from the rate map are paused for the step.  The hook may
#: :meth:`~FlowLoop.park`, :meth:`~FlowLoop.fail` or
#: :meth:`~FlowLoop.reroute` active flows before it answers.
StepHook = Callable[["FlowLoop"], "tuple[Mapping[str, float], float | None]"]


@dataclass(frozen=True)
class FlowOutcome:
    """Result of one flow's transfer.

    ``status`` is one of ``"ok"`` (never disturbed), ``"rerouted"``
    (continued on an alternative route), ``"recovered"`` (waited out a
    fault in parked retries) or ``"failed"`` (gave up; ``bytes_moved``
    holds the partial progress and ``reason`` says why).
    """

    name: str
    bytes_moved: float
    start_s: float
    finish_s: float
    status: str = "ok"
    reason: str | None = None
    retries: int = 0
    reroutes: int = 0

    @property
    def completed(self) -> bool:
        """Whether the transfer moved all of its bytes."""
        return self.status != "failed"

    @property
    def duration_s(self) -> float:
        """Wall time from start to completion (or abandonment)."""
        return self.finish_s - self.start_s

    @property
    def avg_gbps(self) -> float:
        """Average bandwidth over the flow's lifetime (0 for a zero-length one)."""
        duration = self.finish_s - self.start_s
        if duration <= 0:
            return 0.0
        return gbps(self.bytes_moved, duration)


class FlowLoop:
    """The piecewise-constant event loop over finite flows.

    Each step admits the flows whose ``start_s`` has come, in
    ``(start_s, name)`` order, and wakes parked flows whose wake time has
    come; both re-enter at the end of the active order.  It then asks the
    step hook for rates.  The step lasts until the next arrival, the next
    wake, the hook's boundary or the earliest completion, whichever comes
    first; a flow retires once no more than one byte, or a billionth of
    its size if that is larger, remains.  A flow that runs at a rate of
    zero raises :class:`~repro.errors.SimulationError`.  While nothing is
    active the clock jumps to the next arrival or wake.

    Parameters
    ----------
    flows:
        Uniquely named flows, each carrying ``size_bytes``.
    step:
        The caller's :data:`StepHook`.
    stats:
        Optional :class:`~repro.obs.stats.SolverStats`; every step counts
        one ``events``.
    """

    def __init__(self, flows: Iterable[Flow], step: StepHook, stats=None) -> None:
        pending = sorted(flows, key=lambda f: (f.start_s, f.name))
        for f in pending:
            if f.size_bytes is None:
                raise SimulationError(f"flow {f.name!r} has no size; use rates() instead")
        self._remaining = {f.name: float(f.size_bytes) for f in pending}  # type: ignore[arg-type]
        #: Bytes left at which each flow retires.
        self._done = {f.name: max(1.0, 1e-9 * f.size_bytes) for f in pending}  # type: ignore[operator]
        if len(self._remaining) != len(pending):
            names = [f.name for f in pending]
            raise SimulationError(
                "duplicate flow names in simulation: "
                f"{sorted({n for n in names if names.count(n) > 1})}"
            )
        self._pending = deque(pending)
        self._step = step
        self._stats = stats
        self._parked: dict[str, tuple[Flow, float]] = {}
        #: The simulated clock, in seconds.
        self.now = pending[0].start_s if pending else 0.0
        #: Admitted flows still transferring, in active order.
        self.active: dict[str, Flow] = {}
        #: Times each flow has been parked.
        self.retries: dict[str, int] = {}
        self._reroutes: dict[str, int] = {}
        self._outcomes: dict[str, FlowOutcome] = {}

    # --- actions for step hooks -------------------------------------------
    def park(self, name: str, wake_s: float) -> None:
        """Take an active flow out until ``wake_s`` (one retry)."""
        self._parked[name] = (self.active.pop(name), wake_s)
        self.retries[name] = self.retries.get(name, 0) + 1

    def fail(self, name: str, reason: str) -> None:
        """Retire an active flow now, with the bytes it has moved so far."""
        flow = self.active.pop(name)
        moved = float(flow.size_bytes) - self._remaining[name]  # type: ignore[arg-type]
        self._outcomes[name] = self._outcome(flow, moved, reason)

    def reroute(self, name: str, resources: Iterable[str]) -> None:
        """Move an active flow onto ``resources``; it keeps its place."""
        self.active[name] = replace(self.active[name], resources=tuple(resources))
        self._reroutes[name] = self._reroutes.get(name, 0) + 1

    # --- the loop ---------------------------------------------------------
    def run(self) -> dict[str, FlowOutcome]:
        """Run every flow to completion or failure; outcomes in finish order."""
        pending, parked, active = self._pending, self._parked, self.active
        remaining, outcomes, stats = self._remaining, self._outcomes, self._stats
        done = self._done
        guard = 0
        while pending or active or parked:
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - safety valve
                raise SimulationError("flow simulation failed to converge")
            if stats is not None:
                stats.events += 1
            now = self.now
            due = now + _TIME_EPS
            while pending and pending[0].start_s <= due:
                f = pending.popleft()
                active[f.name] = f
            if parked:
                for name in [n for n, (_, wake) in parked.items() if wake <= due]:
                    active[name] = parked.pop(name)[0]
            if active:
                rates, boundary = self._step(self)

            # The next arrival or wake bounds the step, or ends an idle one.
            t = pending[0].start_s if pending else math.inf
            if parked:
                t = min(t, min(wake for _, wake in parked.values()))
            if not active:
                if t != math.inf:
                    self.now = max(now, t)
                continue
            if boundary is not None:
                t = min(t, boundary)
            horizon = t - now
            speeds = []
            for name, rate in rates.items():
                rate_bps = gbps_to_bytes_per_s(rate)
                if rate_bps <= 0:
                    raise SimulationError(
                        f"flow {name!r} starved (rate 0); resource set "
                        f"{active[name].resources} cannot progress"
                    )
                left = remaining[name] / rate_bps
                if left < horizon:
                    horizon = left
                speeds.append((name, rate_bps))
            if horizon == math.inf or horizon < 0:
                raise SimulationError("no progress horizon in flow simulation")

            for name, rate_bps in speeds:
                remaining[name] -= rate_bps * horizon
            self.now = now + horizon
            for name in list(active):
                if remaining[name] <= done[name]:
                    f = active.pop(name)
                    outcomes[name] = self._outcome(f, float(f.size_bytes))  # type: ignore[arg-type]
        return outcomes

    def _outcome(self, flow: Flow, moved: float, reason: str | None = None) -> FlowOutcome:
        name = flow.name
        retries = self.retries.get(name, 0)
        reroutes = self._reroutes.get(name, 0)
        if reason is not None:
            status = "failed"
        elif reroutes:
            status = "rerouted"
        elif retries:
            status = "recovered"
        else:
            status = "ok"
        return FlowOutcome(
            name, moved, flow.start_s, self.now, status, reason, retries, reroutes
        )


def shared_finish(
    names: list[str],
    demands: list[float],
    size_bytes: float,
    resource: str,
    capacity: float,
    stats=None,
) -> tuple[dict[str, float], float]:
    """Equal-size flows that start together on one resource, run to the end.

    Flow ``names[i]`` wants at most ``demands[i]`` Gbps; each moves
    ``size_bytes`` from time 0 through ``resource`` alone, at weight 1.
    Returns each flow's average Gbps in finish order and the last finish
    time: for those flows' :class:`FlowOutcome`\\ s from
    :meth:`FlowNetwork.simulate`, ``{name: avg_gbps}`` and the latest
    ``finish_s``, float for float.  ``stats`` gets the same ``events``
    and ``solves``, and bad sizes, duplicate names, a starved flow or a
    step without a horizon raise the same
    :class:`~repro.errors.SimulationError`.

    It is :class:`FlowLoop`'s arithmetic over lists, with no flow,
    outcome or loop object: admission in name order; per step one
    :func:`~repro.solver.incremental.water_fill` over the active demands
    in active order, the horizon ``min(remaining / rate)`` in bytes/s,
    ``remaining -= rate * horizon``; a flow retires once at most
    ``max(1.0, 1e-9 * size)`` bytes remain.  The caller passes a
    positive, finite ``capacity`` and positive, finite demands (the
    inputs :meth:`FlowNetwork.simulate` would send to the same
    ``water_fill``); any other problem goes to that reference.
    """
    if size_bytes <= 0:
        raise SimulationError(f"flow {names[0]!r}: size must be positive")
    if len(set(names)) != len(names):
        raise SimulationError(
            "duplicate flow names in simulation: "
            f"{sorted({n for n in names if names.count(n) > 1})}"
        )
    order = sorted(range(len(names)), key=names.__getitem__)
    active = [names[i] for i in order]
    wants = [demands[i] for i in order]
    remaining = [size_bytes] * len(active)
    done = max(1.0, 1e-9 * size_bytes)
    finished: dict[str, float] = {}
    now = 0.0
    steps = 0
    while active:
        steps += 1
        if steps > 1_000_000:  # pragma: no cover - safety valve
            raise SimulationError("flow simulation failed to converge")
        if stats is not None:
            stats.events += 1
            stats.solves += 1
        # Bytes/s as gbps_to_bytes_per_s computes them, inlined.
        speeds = [rate * 1e9 / 8 for rate in water_fill(wants, capacity)]
        horizon = math.inf
        for name, left, speed in zip(active, remaining, speeds):
            if speed <= 0:
                raise SimulationError(
                    f"flow {name!r} starved (rate 0); resource set "
                    f"{(resource,)} cannot progress"
                )
            left /= speed
            if left < horizon:
                horizon = left
        if horizon == math.inf or horizon < 0:
            raise SimulationError("no progress horizon in flow simulation")
        remaining = [
            left - speed * horizon for left, speed in zip(remaining, speeds)
        ]
        now = now + horizon
        avg = gbps(size_bytes, now) if now > 0 else 0.0
        kept = []
        for i, left in enumerate(remaining):
            if left <= done:
                finished[active[i]] = avg
            else:
                kept.append(i)
        if len(kept) < len(active):
            active = [active[i] for i in kept]
            wants = [wants[i] for i in kept]
            remaining = [remaining[i] for i in kept]
    return finished, now


class FlowNetwork:
    """A set of capacitated resources shared by finite flows.

    Parameters
    ----------
    capacities:
        Resource name -> capacity in Gbps.
    stats:
        Optional :class:`~repro.solver.stats.SolverStats` that solves and
        simulation events are counted into.
    """

    def __init__(self, capacities: dict[str, float], stats=None) -> None:
        self.capacities = dict(capacities)
        self._stats = stats

    def rates(self, flows: Iterable[Flow]) -> dict[str, float]:
        """Instantaneous max-min rates for a set of concurrent flows."""
        return maxmin_rates(flows, self.capacities, self._stats)

    def simulate(self, flows: Iterable[Flow]) -> dict[str, FlowOutcome]:
        """Run finite flows to completion; outcomes in finish order.

        Every flow must carry ``size_bytes`` and a unique name.  Arrival
        times come from ``flow.start_s``.  When every flow crosses the
        same single resource at weight 1, and that resource has a
        positive capacity, each step is one
        :func:`~repro.solver.incremental.water_fill` sweep; any other
        problem takes one :func:`~repro.solver.incremental.maxmin_rates`
        solve per step.  Either way a step with a running flow counts
        one ``solves``.
        """
        flows = list(flows)
        capacities, stats = self.capacities, self._stats
        resource = _shared_resource(flows, capacities)
        if resource is None:
            def step(loop: FlowLoop):
                return maxmin_rates(loop.active.values(), capacities, stats), None
        else:
            capacity = capacities[resource]
            demand = {f.name: f.demand_gbps for f in flows}

            def step(loop: FlowLoop):
                active = loop.active
                if stats is not None:
                    stats.solves += 1
                rates = water_fill([demand[name] for name in active], capacity)
                return dict(zip(active, rates)), None

        return FlowLoop(flows, step, stats).run()

    def aggregate_gbps(self, outcomes: dict[str, FlowOutcome]) -> float:
        """Aggregate average bandwidth: total bytes over the busy interval.

        This matches how the paper reports multi-stream results ("the
        average aggregate performance" over the whole transfer).
        """
        if not outcomes:
            raise SimulationError("no outcomes to aggregate")
        total = sum(o.bytes_moved for o in outcomes.values())
        start = min(o.start_s for o in outcomes.values())
        finish = max(o.finish_s for o in outcomes.values())
        return gbps(total, finish - start)


def _shared_resource(flows: list[Flow], capacities: Mapping[str, float]) -> str | None:
    """The one resource every flow crosses alone at weight 1, if any.

    ``None`` unless that resource is in ``capacities`` with a positive
    capacity, so every input :func:`~repro.solver.incremental.maxmin_rates`
    would reject keeps its checks and messages.
    """
    resource = None
    for f in flows:
        if f.weight != 1.0 or len(f.resources) != 1:
            return None
        (r,) = f.resources
        if resource is None:
            resource = r
        elif r != resource:
            return None
    if resource is None or not capacities.get(resource, 0.0) > 0:
        return None
    return resource
