"""What ``maxmin_rates`` refuses before it solves."""

import math

import pytest

from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.solver.incremental import maxmin_rates
from repro.solver.stats import SolverStats


def _refused(flows, capacities):
    stats = SolverStats()
    with pytest.raises(SimulationError) as info:
        maxmin_rates(flows, capacities, stats)
    assert stats.solves == 0
    return str(info.value)


class TestRejections:
    def test_nan_capacity_names_the_resource_and_value(self):
        flows = [Flow("a", ("r",), demand_gbps=5.0), Flow("b", ("r", "s"))]
        assert _refused(flows, {"r": math.nan, "s": 3.0}) == (
            "resource 'r' has capacity nan, not a number"
        )

    def test_elastic_flow_on_infinite_resources_has_its_own_message(self):
        flows = [Flow("a", ("r",), demand_gbps=5.0), Flow("b", ("r", "s"))]
        assert _refused(flows, {"r": math.inf, "s": math.inf}) == (
            "unbounded allocation: elastic flow(s) cross only "
            "infinite-capacity resources: ['b']"
        )

    def test_one_finite_resource_bounds_an_elastic_flow(self):
        flows = [Flow("b", ("r", "s"))]
        assert maxmin_rates(flows, {"r": math.inf, "s": 3.0}) == {"b": 3.0}

    @pytest.mark.parametrize("capacities, flows, message", [
        ({"r": math.nan, "s": 0.0}, [Flow("b", ("r", "s"))],
         "resource 's' has non-positive capacity"),
        ({"r": math.nan, "s": -1.0}, [Flow("b", ("r", "s"))],
         "resource 's' has non-positive capacity"),
        ({"r": math.nan}, [Flow("a", ("r",), demand_gbps=1.0), Flow("b", ())],
         "elastic flow(s) traverse no resources: ['b']"),
        ({"r": math.nan}, [Flow("a", ("r",)), Flow("a", ("r",))],
         "duplicate flow names"),
        ({"r": math.inf}, [Flow("a", ("r", "t"))],
         "flow 'a' uses unknown resource 't'"),
    ])
    def test_the_memo_errors_come_first(self, capacities, flows, message):
        assert message in _refused(flows, capacities)

    def test_unused_resources_are_not_checked(self):
        flows = [Flow("a", ("r",), demand_gbps=2.0)]
        assert maxmin_rates(flows, {"r": 5.0, "s": math.nan}) == {"a": 2.0}
