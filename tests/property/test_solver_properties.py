"""Property-based equivalence of the incremental solver.

The memoized :class:`repro.solver.incremental.AllocationCache` must be
an observationally exact replacement for a cold
:func:`repro.flows.maxmin.maxmin_allocate` call: same rates (within
1e-9) on any problem, whether the answer is solved cold, served from the
signature-multiset cache, or re-keyed after a capacity change.  Its cold
solver must also be bit-identical, on weight-1 problems, to the numpy
formulation of the same progressive-filling rounds frozen below.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.flows.maxmin import maxmin_allocate
from repro.solver.incremental import (
    _EPS,
    AllocationCache,
    _solve_groups,
    flow_signature,
)

RESOURCES = ["r0", "r1", "r2", "r3", "r4"]

TOL = 1e-9


@st.composite
def problems(draw):
    n_resources = draw(st.integers(min_value=1, max_value=5))
    names = RESOURCES[:n_resources]
    caps = {
        r: draw(st.floats(min_value=0.5, max_value=100.0,
                          allow_nan=False, allow_infinity=False))
        for r in names
    }
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for i in range(n_flows):
        subset = draw(
            st.sets(st.sampled_from(names), min_size=1, max_size=n_resources)
        )
        demand = draw(
            st.one_of(
                st.just(math.inf),
                st.floats(min_value=0.1, max_value=50.0,
                          allow_nan=False, allow_infinity=False),
            )
        )
        weight = draw(st.floats(min_value=0.25, max_value=4.0,
                                allow_nan=False, allow_infinity=False))
        flows.append(
            Flow(name=f"f{i}", resources=tuple(sorted(subset)),
                 demand_gbps=demand, weight=weight)
        )
    # Duplicated signatures exercise the group-collapse path.
    if draw(st.booleans()) and flows:
        twin = flows[0]
        flows.append(
            Flow(name="twin", resources=twin.resources,
                 demand_gbps=twin.demand_gbps, weight=twin.weight)
        )
    return flows, caps


@given(problems())
@settings(max_examples=300, deadline=None)
def test_cold_solve_matches_maxmin(problem):
    flows, caps = problem
    expected = maxmin_allocate(flows, caps)
    actual = AllocationCache().rates(flows, caps)
    assert set(actual) == set(expected)
    for name in expected:
        assert actual[name] == expected[name] or (
            abs(actual[name] - expected[name]) <= TOL
        ), name


@given(problems())
@settings(max_examples=200, deadline=None)
def test_cached_solve_matches_maxmin(problem):
    """The second lookup (a cache hit) must return the same rates."""
    flows, caps = problem
    expected = maxmin_allocate(flows, caps)
    cache = AllocationCache()
    cache.rates(flows, caps)  # warm
    cached = cache.rates(flows, caps)
    for name in expected:
        assert abs(cached[name] - expected[name]) <= TOL, name


@given(problems())
@settings(max_examples=200, deadline=None)
def test_renamed_flows_reuse_cached_rates_correctly(problem):
    """A cache hit keyed on the signature multiset must hand the right
    rate to each flow even when names and ordering differ."""
    flows, caps = problem
    cache = AllocationCache()
    cache.rates(flows, caps)  # warm with the original names
    renamed = [
        Flow(name=f"alias-{i}", resources=f.resources,
             demand_gbps=f.demand_gbps, weight=f.weight)
        for i, f in enumerate(reversed(flows))
    ]
    actual = cache.rates(renamed, caps)
    expected = maxmin_allocate(renamed, caps)
    for name in expected:
        assert abs(actual[name] - expected[name]) <= TOL, name


@given(problems(), st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_capacity_change_is_not_served_stale(problem, scale):
    """Scaling a capacity changes the cache key, so the answer tracks the
    new capacities instead of replaying the old allocation."""
    flows, caps = problem
    cache = AllocationCache()
    cache.rates(flows, caps)  # warm at the original capacities
    scaled_caps = {r: c * scale for r, c in caps.items()}
    actual = cache.rates(flows, scaled_caps)
    expected = maxmin_allocate(flows, scaled_caps)
    for name in expected:
        assert abs(actual[name] - expected[name]) <= TOL, name


@given(problems())
@settings(max_examples=100, deadline=None)
def test_identical_signatures_get_identical_rates(problem):
    """The memoization premise itself: equal signatures, equal rates."""
    flows, caps = problem
    rates = AllocationCache().rates(flows, caps)
    by_signature = {}
    for f in flows:
        by_signature.setdefault(flow_signature(f), []).append(rates[f.name])
    for values in by_signature.values():
        assert max(values) - min(values) <= TOL


def _numpy_solve_groups(
    signatures: list[tuple], capacities: dict[str, float]
) -> dict[tuple, float]:
    """Reference: the vectorized numpy water-filling loop, kept verbatim.

    Returns the *per-flow* rate of each signature.  A group of ``m``
    identical flows behaves exactly like one super-flow of ``m`` times
    the weight and demand whose rate is split evenly — the members raise
    together and freeze together.
    """
    groups: OrderedDict[tuple, int] = OrderedDict()
    for sig in signatures:
        groups[sig] = groups.get(sig, 0) + 1
    sigs = list(groups)
    counts = np.array([groups[s] for s in sigs], dtype=float)
    weights = np.array([s[2] for s in sigs], dtype=float)  # per-flow weight
    demands = np.array([s[1] for s in sigs], dtype=float)  # per-flow demand
    group_weight = counts * weights

    resource_names = list(capacities)
    index = {r: i for i, r in enumerate(resource_names)}
    incidence = np.zeros((len(resource_names), len(sigs)))
    for g, sig in enumerate(sigs):
        for r in sig[0]:
            incidence[index[r], g] = 1.0

    caps = np.array([capacities[r] for r in resource_names], dtype=float)
    remaining = caps.copy()
    rates = np.zeros(len(sigs))  # per-flow rate within each group
    active = np.ones(len(sigs), dtype=bool)

    while active.any():
        load = incidence[:, active] @ group_weight[active]
        increment = np.inf
        loaded = load > 0.0
        if loaded.any():
            increment = float((remaining[loaded] / load[loaded]).min())
        with np.errstate(invalid="ignore"):
            headroom = (demands[active] - rates[active]) / weights[active]
        if headroom.size:
            increment = min(increment, float(headroom.min()))
        if math.isinf(increment):  # pragma: no cover - pre-validated in rates()
            raise SimulationError(
                "unbounded allocation: elastic flow(s) traverse no resources"
            )
        increment = max(increment, 0.0)

        rates[active] += increment * weights[active]
        remaining -= increment * load

        saturated = remaining <= _EPS * caps + _EPS
        touches_saturated = incidence[saturated].sum(axis=0) > 0.0
        newly_frozen = active & (
            (rates >= demands - _EPS) | touches_saturated
        )
        if not newly_frozen.any():  # pragma: no cover - numeric safety valve
            raise SimulationError("progressive filling made no progress")
        active &= ~newly_frozen

    return {sig: float(rates[g]) for g, sig in enumerate(sigs)}


@st.composite
def weight_one_groups(draw):
    """Signature lists as ``AllocationCache.rates`` poses them cold.

    1–16 groups over 1–17 resources, repeated and shuffled signatures,
    elastic (``inf``) demands, finite-demand groups that cross no
    resource, and capacities at the saturation threshold.
    """
    n_resources = draw(st.integers(min_value=1, max_value=17))
    names = [f"r{i:02d}" for i in range(n_resources)]
    caps = {
        r: draw(st.one_of(
            st.sampled_from([1e-13, 3e-12]),
            st.integers(min_value=1, max_value=64).map(float),
            st.floats(min_value=0.5, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
        ))
        for r in names
    }
    finite = st.one_of(
        st.integers(min_value=1, max_value=20).map(float),
        st.floats(min_value=0.01, max_value=60.0,
                  allow_nan=False, allow_infinity=False),
    )
    signatures = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        resources = tuple(sorted(draw(st.sets(
            st.sampled_from(names), max_size=min(n_resources, 4)
        ))))
        demand = draw(st.one_of(st.just(math.inf), finite) if resources else finite)
        copies = draw(st.integers(min_value=1, max_value=4))
        signatures += [(resources, demand, 1.0)] * copies
    signatures = draw(st.permutations(signatures))
    used = sorted({r for sig in signatures for r in sig[0]})
    return signatures, {r: caps[r] for r in used}


@given(weight_one_groups())
@settings(max_examples=200, deadline=None)
def test_cold_solve_is_bit_identical_to_numpy_rounds(problem):
    """Weight-1 loads are exact integers, so the scalar loop's rates
    match the numpy formulation bit for bit, in the same key order."""
    signatures, caps = problem
    expected = _numpy_solve_groups(signatures, caps)
    actual = _solve_groups(signatures, caps)
    assert list(actual) == list(expected)
    assert [r.hex() for r in actual.values()] == [
        r.hex() for r in expected.values()
    ]
