"""Time-domain flow simulation."""

import pytest

from repro.errors import SimulationError
from repro.flows import network as network_module
from repro.flows.flow import Flow
from repro.flows.network import FlowNetwork
from repro.obs.stats import SolverStats
from repro.units import gbps_to_bytes_per_s


class TestSimulate:
    def test_single_flow_duration(self):
        net = FlowNetwork({"r": 8.0})
        size = gbps_to_bytes_per_s(8.0) * 10  # 10 seconds at full rate
        out = net.simulate([Flow(name="f", resources=("r",), size_bytes=size)])
        assert out["f"].finish_s == pytest.approx(10.0)
        assert out["f"].avg_gbps == pytest.approx(8.0)

    def test_equal_flows_finish_together(self):
        net = FlowNetwork({"r": 10.0})
        size = gbps_to_bytes_per_s(5.0) * 4
        flows = [Flow(name=f"f{i}", resources=("r",), size_bytes=size)
                 for i in range(2)]
        out = net.simulate(flows)
        assert out["f0"].finish_s == pytest.approx(out["f1"].finish_s)
        assert out["f0"].avg_gbps == pytest.approx(5.0)

    def test_survivor_speeds_up(self):
        # Two flows share; the small one finishes, the big one then gets
        # the whole resource.
        net = FlowNetwork({"r": 10.0})
        small = gbps_to_bytes_per_s(5.0) * 2  # 2 s at half rate
        big = gbps_to_bytes_per_s(5.0) * 6
        out = net.simulate([
            Flow(name="small", resources=("r",), size_bytes=small),
            Flow(name="big", resources=("r",), size_bytes=big),
        ])
        assert out["small"].finish_s == pytest.approx(2.0)
        # big: 2 s at 5 Gbps, remaining 20 Gbit at 10 Gbps -> 2 more s.
        assert out["big"].finish_s == pytest.approx(4.0)
        assert out["big"].avg_gbps > 5.0

    def test_staggered_arrival(self):
        net = FlowNetwork({"r": 10.0})
        size = gbps_to_bytes_per_s(10.0) * 2
        out = net.simulate([
            Flow(name="early", resources=("r",), size_bytes=size, start_s=0.0),
            Flow(name="late", resources=("r",), size_bytes=size, start_s=100.0),
        ])
        assert out["early"].finish_s == pytest.approx(2.0)
        assert out["late"].start_s == 100.0
        assert out["late"].finish_s == pytest.approx(102.0)

    def test_duplicate_names_rejected(self):
        # A second "f" must not silently replace the first one's transfer.
        net = FlowNetwork({"r": 8.0})
        with pytest.raises(SimulationError, match="duplicate flow names"):
            net.simulate([
                Flow(name="f", resources=("r",), size_bytes=1e9, start_s=0.0),
                Flow(name="f", resources=("r",), size_bytes=3e9, start_s=0.5),
            ])

    def test_requires_sizes(self):
        net = FlowNetwork({"r": 1.0})
        with pytest.raises(SimulationError):
            net.simulate([Flow(name="f", resources=("r",))])

    def test_rates_only_api(self):
        net = FlowNetwork({"r": 6.0})
        rates = net.rates([Flow(name=f"f{i}", resources=("r",)) for i in range(3)])
        assert sum(rates.values()) == pytest.approx(6.0)


@pytest.fixture()
def solves(monkeypatch):
    """Calls of ``maxmin_rates`` from the flow network, in order."""
    calls = []
    solve = network_module.maxmin_rates

    def spy(flows, capacities, stats=None):
        calls.append(list(flows))
        return solve(calls[-1], capacities, stats)

    monkeypatch.setattr(network_module, "maxmin_rates", spy)
    return calls


def _counted(capacities):
    stats = SolverStats()
    return FlowNetwork(capacities, stats=stats), stats


class TestOneResourceSweep:
    """Which problems ``simulate`` solves by sweep, and which by ``maxmin_rates``."""

    def test_one_resource_steps_are_sweeps_not_lookups(self, solves):
        net, stats = _counted({"r": 10.0, "other": 1.0})
        flows = [
            Flow(name=f"f{i}", resources=("r",), demand_gbps=2.0 + i,
                 size_bytes=1e9 * (i + 1))
            for i in range(4)
        ]
        net.simulate(flows)
        assert stats.events == 4
        assert stats.solves == 4
        assert solves == []

    @pytest.mark.parametrize(
        "flows",
        [
            # two resources on one flow
            [Flow(name="a", resources=("r", "other"), size_bytes=1e9)],
            # each flow alone on a different resource
            [Flow(name="a", resources=("r",), size_bytes=1e9),
             Flow(name="b", resources=("other",), size_bytes=1e9)],
            # a weight other than 1
            [Flow(name="a", resources=("r",), size_bytes=1e9, weight=2.0)],
        ],
    )
    def test_other_problems_take_maxmin_rates(self, solves, flows):
        net, stats = _counted({"r": 10.0, "other": 1.0})
        net.simulate(flows)
        assert len(solves) == stats.solves == stats.events > 0

    @pytest.mark.parametrize(
        "capacities, message",
        [
            ({"other": 1.0}, "flow 'a' uses unknown resource 'r'"),
            ({"r": 0.0}, "resource 'r' has non-positive capacity"),
        ],
    )
    def test_rejected_problems_keep_the_solver_errors(self, capacities, message):
        net, stats = _counted(capacities)
        with pytest.raises(SimulationError, match=message):
            net.simulate([Flow(name="a", resources=("r",), size_bytes=1e9)])
        assert stats.solves == 0


class TestAggregate:
    def test_aggregate_over_busy_interval(self):
        net = FlowNetwork({"r": 10.0})
        size = gbps_to_bytes_per_s(5.0) * 4
        out = net.simulate([
            Flow(name=f"f{i}", resources=("r",), size_bytes=size) for i in range(2)
        ])
        assert net.aggregate_gbps(out) == pytest.approx(10.0)

    def test_aggregate_rejects_empty(self):
        with pytest.raises(SimulationError):
            FlowNetwork({}).aggregate_gbps({})


class TestOutcome:
    def test_outcome_fields(self):
        net = FlowNetwork({"r": 8.0})
        size = gbps_to_bytes_per_s(8.0) * 1
        out = net.simulate([Flow(name="f", resources=("r",), size_bytes=size)])
        o = out["f"]
        assert o.name == "f"
        assert o.bytes_moved == pytest.approx(size)
        assert o.duration_s == pytest.approx(1.0)
