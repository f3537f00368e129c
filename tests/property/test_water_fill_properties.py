"""The one-resource water-filling sweep against the general cold solve.

:func:`repro.solver.incremental.water_fill` must return, float for
float, what :func:`repro.solver.incremental._solve_groups` returns for
the same weight-1 flows on one resource, and raise what it raises.
Demands draw from a small pool so they repeat; the pool holds ``inf``
(elastic flows), and capacities reach 1e-13 and 3e-12, below the
solve's saturation floor of ~1e-12.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.solver.incremental import _solve_groups, water_fill

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
