"""The one-resource water-filling sweep against the general cold solve.

:func:`repro.solver.incremental.water_fill` must return, float for
float, what :func:`repro.solver.incremental._solve_groups` returns for
the same weight-1 flows on one resource, and raise what it raises.
:meth:`repro.solver.session.SolverSession.shared_rates` must answer and
fail exactly as the ``Flow`` list plus :meth:`SolverSession.rates` it
replaces.  Demands draw from a small pool so they repeat; the pool
holds ``inf`` (elastic flows), and capacities reach 1e-13 and 3e-12,
below the solve's saturation floor of ~1e-12.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.solver.incremental import _solve_groups, water_fill
from repro.solver.session import SolverSession

DEMANDS = st.one_of(
    st.just(math.inf),
    st.floats(min_value=1e-13, max_value=1e-11),
    st.floats(min_value=0.01, max_value=40.0),
    st.integers(min_value=1, max_value=8).map(float),
)

CAPACITIES = st.one_of(
    st.sampled_from([1e-13, 3e-12, 22.0, math.inf]),
    st.floats(min_value=1e-13, max_value=100.0),
)


@st.composite
def one_resource_problems(draw):
    pool = draw(st.lists(DEMANDS, min_size=1, max_size=4))
    demands = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=16))
    return demands, draw(CAPACITIES)


def _outcome(solve, *args):
    try:
        return [rate.hex() for rate in solve(*args)]
    except SimulationError as exc:
        return ("raised", str(exc))


def _reference(demands, capacity):
    signatures = [(("dev",), float(d), 1.0) for d in demands]
    per_signature = _solve_groups(signatures, {"dev": float(capacity)})
    return [per_signature[sig] for sig in signatures]


@given(one_resource_problems())
@example(([math.inf, math.inf], math.inf))  # unbounded: both raise
@example(([2.0, math.nan, 5.0], 4.0))  # NaN demand: the general solve
@example(([2.0, 5.0], math.nan))
@example(([1e-12, 1e-12, 3.0], 3e-12))
@settings(max_examples=500, deadline=None)
def test_water_fill_matches_solve_groups(problem):
    demands, capacity = problem
    assert _outcome(water_fill, demands, capacity) == _outcome(
        _reference, demands, capacity
    )


def _old_rates(session, names, demands, resource, capacity):
    flows = [
        Flow(name=name, resources=(resource,), demand_gbps=demand)
        for name, demand in zip(names, demands)
    ]
    return session.rates(flows, {resource: capacity})


def _answer(call, *args):
    try:
        rates = call(*args)
    except SimulationError as exc:
        return ("raised", str(exc))
    return [(name, rate.hex()) for name, rate in rates.items()]


@st.composite
def stream_problems(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pool = draw(st.lists(
        st.one_of(DEMANDS, st.sampled_from([0.0, -1.0])), min_size=1, max_size=4,
    ))
    demands = [draw(st.sampled_from(pool)) for _ in range(n)]
    names = [f"s{draw(st.integers(min_value=0, max_value=2 * n))}" for _ in range(n)]
    capacity = draw(st.one_of(CAPACITIES, st.sampled_from([0.0, -2.0])))
    return names, demands, capacity


@given(stream_problems())
@settings(max_examples=300, deadline=None)
def test_shared_rates_matches_flows_through_the_cache(problem):
    names, demands, capacity = problem
    args = (names, demands, "dev:nic", capacity)
    assert _answer(SolverSession().shared_rates, *args) == _answer(
        _old_rates, SolverSession(), *args
    )


@pytest.mark.parametrize(
    "names, demands, capacity, message",
    [
        (["a", "b"], [1.0, 0.0], 5.0, "flow 'b': demand must be positive"),
        (["a", "a"], [1.0, 2.0], 5.0, "duplicate flow names in allocation"),
        (["a"], [1.0], 0.0, "resource 'dev:nic' has non-positive capacity"),
    ],
)
def test_shared_rates_raises_the_flow_and_cache_messages(names, demands, capacity, message):
    with pytest.raises(SimulationError, match=message):
        SolverSession().shared_rates(names, demands, "dev:nic", capacity)


def test_shared_rates_is_one_allocate_solve_without_a_lookup():
    session = SolverSession()
    rates = session.shared_rates(["a", "b", "c"], [1.0, 4.0, 4.0], "dev:nic", 7.0)
    assert rates == {"a": 1.0, "b": 3.0, "c": 3.0}
    assert session.stats.solves == 1
    assert session.stats.lookups == 0
    assert list(session.stats.phase_wall_s) == ["allocate"]
    assert session.shared_rates([], [], "dev:nic", 7.0) == {}
    assert session.stats.solves == 1
