"""Cold max-min allocation over signature groups.

Flows with equal signatures get equal rates.  Progressive filling
treats two flows identically when they share (resource set, demand,
weight); only the multiset of signatures matters.  :func:`maxmin_rates`
therefore solves over *signature groups* (16 identical copy threads are
one group) with a scalar water-filling loop, :func:`_solve_groups`.  The
problems posed are small (a device shared by 1–16 streams, a copy's
threads on one DMA route), where plain float arithmetic is several
times cheaper than array dispatch.

Most problems the library poses are n weight-1 streams sharing one
device.  There every active group holds the same rate, so the rounds
collapse to a sweep over the sorted demands: :func:`water_fill` runs it
with the same IEEE operations as the group solve, without flows or
signatures.

The semantics are those of :func:`repro.flows.maxmin.maxmin_allocate`:
the property suite asserts agreement within 1e-9 on any problem, and
bit-identity with an array (numpy) formulation of the same rounds on
weight-1 problems — every flow the library builds has weight 1.0 — where
per-resource loads are exact integer sums.

Imports are deliberately minimal (the standard library + the error
hierarchy) so :mod:`repro.flows.network` can depend on this module
without cycles.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.errors import SimulationError

__all__ = ["maxmin_rates", "water_fill"]

_EPS = 1e-12


def maxmin_rates(
    flows: Iterable, capacities: Mapping[str, float], stats=None
) -> dict[str, float]:
    """Weighted max-min rates, same contract as ``maxmin_allocate``.

    Rejects, in this order, duplicate flow names, a resource missing
    from ``capacities``, a used resource whose capacity is not positive,
    an elastic flow that crosses no resource, a used resource whose
    capacity is NaN and an elastic flow whose every resource is
    infinite, each with a :class:`~repro.errors.SimulationError`.  Then
    one cold :func:`_solve_groups`; ``stats`` (a
    :class:`~repro.solver.stats.SolverStats`) counts one ``solves`` per
    call that has at least one flow.
    """
    flow_list = list(flows)
    names = [f.name for f in flow_list]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate flow names in allocation: {sorted(names)}")
    for f in flow_list:
        for r in f.resources:
            if r not in capacities:
                raise SimulationError(
                    f"flow {f.name!r} uses unknown resource {r!r}"
                )
    used = sorted({r for f in flow_list for r in f.resources})
    for r in used:
        if capacities[r] <= 0:
            raise SimulationError(f"resource {r!r} has non-positive capacity")
    unbounded = sorted(
        f.name
        for f in flow_list
        if not f.resources and math.isinf(f.demand_gbps)
    )
    if unbounded:
        raise SimulationError(
            "unbounded allocation: elastic flow(s) traverse no resources: "
            f"{unbounded}"
        )
    for r in used:
        if math.isnan(capacities[r]):
            raise SimulationError(
                f"resource {r!r} has capacity {capacities[r]!r}, not a number"
            )
    unbounded = sorted(
        f.name
        for f in flow_list
        if math.isinf(f.demand_gbps)
        and all(math.isinf(capacities[r]) for r in f.resources)
    )
    if unbounded:
        raise SimulationError(
            "unbounded allocation: elastic flow(s) cross only "
            f"infinite-capacity resources: {unbounded}"
        )
    if not flow_list:
        return {}

    if stats is not None:
        stats.solves += 1
    signatures = [
        (tuple(sorted(f.resources)), float(f.demand_gbps), float(f.weight))
        for f in flow_list
    ]
    per_signature = _solve_groups(
        signatures, {r: float(capacities[r]) for r in used}
    )
    return {f.name: per_signature[sig] for f, sig in zip(flow_list, signatures)}


def _solve_groups(
    signatures: list[tuple], capacities: dict[str, float]
) -> dict[tuple, float]:
    """Cold solve: scalar progressive filling over signature groups.

    Returns the *per-flow* rate of each signature.  A group of ``m``
    identical flows behaves exactly like one super-flow of ``m`` times
    the weight and demand whose rate is split evenly — the members raise
    together and freeze together.

    Each round sums the active groups' ``count * weight`` onto their
    resources, raises every active group by the largest increment no
    resource or demand forbids, and freezes the groups that reached
    their demand or cross a saturated resource.  On weight-1 problems
    the loads are exact integers, so the rates are bit-identical to an
    array formulation of the same rounds whatever its summation order;
    with fractional weights they may differ in the last bits and stay
    within 1e-9 of ``maxmin_allocate``.
    """
    counts: dict[tuple, int] = {}
    for sig in signatures:
        counts[sig] = counts.get(sig, 0) + 1
    sigs = list(counts)
    index = {r: i for i, r in enumerate(capacities)}
    members = [[index[r] for r in sig[0]] for sig in sigs]
    demands = [sig[1] for sig in sigs]  # per-flow demand
    weights = [sig[2] for sig in sigs]  # per-flow weight
    group_weight = [counts[sig] * sig[2] for sig in sigs]
    # A group reaches its demand once its rate is within _EPS of it.
    targets = [demand - _EPS for demand in demands]
    remaining = list(capacities.values())
    floors = [_EPS * cap + _EPS for cap in remaining]
    n_resources = len(remaining)
    rates = [0.0] * len(sigs)  # per-flow rate within each group
    active = list(range(len(sigs)))

    while active:
        load = [0.0] * n_resources
        for g in active:
            weight = group_weight[g]
            for r in members[g]:
                load[r] += weight
        loaded = [r for r in range(n_resources) if load[r] > 0.0]
        increment = min(
            [remaining[r] / load[r] for r in loaded]
            + [(demands[g] - rates[g]) / weights[g] for g in active]
        )
        if math.isinf(increment):  # pragma: no cover - pre-validated in maxmin_rates()
            raise SimulationError(
                "unbounded allocation: elastic flow(s) traverse no resources"
            )
        increment = max(increment, 0.0)

        for g in active:
            rates[g] += increment * weights[g]
        # Only loaded resources can saturate this round, and a resource
        # saturated in an earlier round has no active group left on it.
        saturated = set()
        for r in loaded:
            remaining[r] -= increment * load[r]
            if remaining[r] <= floors[r]:
                saturated.add(r)
        still_active = [
            g for g in active
            if rates[g] < targets[g] and saturated.isdisjoint(members[g])
        ]
        if len(still_active) == len(active):  # pragma: no cover - numeric safety valve
            raise SimulationError("progressive filling made no progress")
        active = still_active

    return dict(zip(sigs, rates))


def water_fill(demands: Sequence[float], capacity: float) -> list[float]:
    """Max-min rates of weight-1 flows that all cross one resource.

    ``demands`` are the flows' rate ceilings (``inf`` for elastic ones)
    and ``capacity`` the resource's; returns each flow's rate, in input
    order.  This is :func:`_solve_groups` on one resource, round for
    round and float for float.  Every active group holds the same rate
    ``r``, and ``load``, the active flow count, is exact as a float.
    Each round raises ``r`` by ``min(remaining / load, d_min - r)``
    (never below 0), where ``d_min`` is the lowest active demand, and
    takes ``increment * load`` off ``remaining``.  A saturated resource
    freezes every active flow; otherwise the flows within ``_EPS`` of
    their demand freeze, always a prefix of the sorted demands.  A NaN
    demand cannot be sorted, so such a problem goes to
    :func:`_solve_groups` itself.

    The caller validates the problem as :func:`maxmin_rates` would
    (positive capacity, positive demands).
    """
    ordered = sorted(demands)
    total = sum(ordered)
    if total != total:  # a NaN demand
        signatures = [(("",), float(d), 1.0) for d in demands]
        per_signature = _solve_groups(signatures, {"": float(capacity)})
        return [per_signature[sig] for sig in signatures]

    capacity = float(capacity)
    remaining = capacity
    floor = _EPS * capacity + _EPS
    rate = 0.0
    rate_of: dict[float, float] = {}
    i, n = 0, len(ordered)
    while i < n:
        load = float(n - i)
        increment = remaining / load
        gap = float(ordered[i]) - rate
        if gap < increment:
            increment = gap
        if math.isinf(increment):
            raise SimulationError(
                "unbounded allocation: elastic flow(s) traverse no resources"
            )
        if increment < 0.0:
            increment = 0.0
        rate += increment
        remaining -= increment * load
        if remaining <= floor:
            if i == 0:
                return [rate] * n
            for demand in ordered[i:]:
                rate_of[demand] = rate
            break
        first = i
        while i < n and not rate < ordered[i] - _EPS:
            rate_of[ordered[i]] = rate
            i += 1
        if i == first:  # pragma: no cover - numeric safety valve
            raise SimulationError("progressive filling made no progress")
    return [rate_of[d] for d in demands]
