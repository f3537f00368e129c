"""Property-based equivalence of the cold max-min solve.

:func:`repro.solver.incremental.maxmin_rates` must give the rates of a
:func:`repro.flows.maxmin.maxmin_allocate` call (within 1e-9) on any
problem, and its group solve must be bit-identical, on weight-1
problems, to the numpy formulation of the same progressive-filling
rounds frozen below.  It replaced the allocation memo
(``AllocationCache``, frozen in :mod:`tests.property.frozen_allocation`),
so it must also give every answer the memo gave by ``float.hex`` on
weight-1 problems, including the problems posed again in another order,
under other names or at other capacities, and raise what the memo
raised with the same text.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.flows.maxmin import maxmin_allocate
from repro.obs.stats import SolverStats
from repro.solver.incremental import _EPS, _solve_groups, maxmin_rates
from tests.property.frozen_allocation import AllocationCache

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
    actual = maxmin_rates(flows, caps)
    assert set(actual) == set(expected)
    for name in expected:
        assert actual[name] == expected[name] or (
            abs(actual[name] - expected[name]) <= TOL
        ), name


@given(problems())
@settings(max_examples=100, deadline=None)
def test_identical_signatures_get_identical_rates(problem):
    """The group-solve premise itself: equal signatures, equal rates."""
    flows, caps = problem
    rates = maxmin_rates(flows, caps)
    by_signature = {}
    for f in flows:
        signature = (tuple(sorted(f.resources)), f.demand_gbps, f.weight)
        by_signature.setdefault(signature, []).append(rates[f.name])
    for values in by_signature.values():
        assert max(values) - min(values) <= TOL


@st.composite
def weight_one_problems(draw):
    """Weight-1 flows over 1-5 resources, demands from a small pool.

    The pool makes flows share signatures, so the memo's signature
    groups and its multiset key both see repeats.
    """
    names = RESOURCES[:draw(st.integers(min_value=1, max_value=5))]
    caps = {
        r: draw(st.one_of(
            st.integers(min_value=1, max_value=64).map(float),
            st.floats(min_value=0.5, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
        ))
        for r in names
    }
    demands = st.one_of(
        st.just(math.inf),
        st.sampled_from([0.5, 2.0, 7.25]),
        st.floats(min_value=0.1, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
    )
    flows = [
        Flow(
            name=f"f{i}",
            resources=tuple(draw(st.permutations(sorted(draw(st.sets(
                st.sampled_from(names), min_size=1
            )))))),
            demand_gbps=draw(demands),
        )
        for i in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    return flows, caps


def _hex(rates):
    return {name: rate.hex() for name, rate in rates.items()}


@given(weight_one_problems(), st.data())
@settings(max_examples=300, deadline=None)
def test_cold_solve_equals_the_frozen_memo(problem, data):
    """Each problem is posed four times: as drawn (a memo miss), in
    another order, under new names with its resources listed in reverse
    (both memo hits), and at scaled capacities (a miss).  Every posing
    is one solve on the cold side."""
    flows, caps = problem
    order = data.draw(st.permutations(range(len(flows))))
    scale = data.draw(st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
    renamed = [
        Flow(name=f"alias-{i}", resources=tuple(reversed(flows[k].resources)),
             demand_gbps=flows[k].demand_gbps)
        for i, k in enumerate(order)
    ]
    posings = [
        (flows, caps),
        ([flows[k] for k in order], caps),
        (renamed, caps),
        (flows, {r: c * scale for r, c in caps.items()}),
    ]
    memo, stats = AllocationCache(), SolverStats()
    for posed, capacities in posings:
        want = _hex(memo.rates(posed, capacities))
        got = maxmin_rates(posed, capacities, stats)
        assert list(got) == [f.name for f in posed]
        assert _hex(got) == want
    assert memo.hits >= 2
    assert stats.solves == len(posings)


_DEFECTS = ("duplicate", "unknown", "zero", "negative", "unbounded")


def _raised(solve, flows, caps):
    with pytest.raises(SimulationError) as info:
        solve(flows, caps)
    return str(info.value)


@given(weight_one_problems(), st.sets(st.sampled_from(_DEFECTS), min_size=1))
@settings(max_examples=200, deadline=None)
def test_cold_solve_rejects_what_the_frozen_memo_rejected(problem, defects):
    """Every mix of defects raises the same first error, so the checks
    run in the memo's order with its messages."""
    drawn, caps = problem
    flows, caps = list(drawn), dict(caps)
    if "duplicate" in defects:
        flows.append(Flow(name=drawn[0].name, resources=drawn[-1].resources))
    if "unknown" in defects:
        flows.append(Flow(name="stray", resources=("nowhere",)))
    if "zero" in defects:
        caps[drawn[-1].resources[0]] = 0.0
    if "negative" in defects:
        caps[drawn[0].resources[-1]] = -1.0
    if "unbounded" in defects:
        flows.append(Flow(name="elastic", resources=()))
    stats = SolverStats()
    assert _raised(
        lambda f, c: maxmin_rates(f, c, stats), flows, caps
    ) == _raised(AllocationCache().rates, flows, caps)
    assert stats.solves == 0


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
    """Signature lists as ``maxmin_rates`` poses them to ``_solve_groups``.

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
