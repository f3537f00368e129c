"""Degraded-mode flow simulation: reroute, retry, structured failure."""

import pytest

from repro.errors import RouteLostError, SimulationError
from repro.faults.degraded import (
    DegradedFlowRunner,
    RetryPolicy,
    machine_rerouter,
    reroute_resources,
)
from repro.faults.events import FaultEvent, LinkFail, NicPortFlap
from repro.faults.plan import FaultedMachine, FaultPlan
from repro.flows.flow import Flow
from repro.flows.network import FlowNetwork
from repro.rng import RngRegistry
from repro.solver.capacity import build_capacities

GB = 1e9


def wire_flow(name="f", size=10 * GB, start=0.0):
    return Flow(name=name, resources=("uplink-tx:h0",), demand_gbps=10.0,
                size_bytes=size, start_s=start)


class TestHealthyEquivalence:
    def test_empty_plan_matches_flow_network(self, bare_host):
        capacities = build_capacities(bare_host)
        flows = [
            Flow(name=f"c{i}", resources=reroute_resources(bare_host, i, 7),
                 demand_gbps=16.0, size_bytes=GB)
            for i in (0, 2, 5)
        ]
        degraded = DegradedFlowRunner(capacities).simulate(flows)
        healthy = FlowNetwork(capacities).simulate(flows)
        # Same outcomes, exactly, in the same (finish) order.
        assert list(degraded.items()) == list(healthy.items())
        assert all(o.status == "ok" and o.retries == 0 for o in degraded.values())


class TestRetry:
    def test_flow_recovers_after_flap_window(self):
        plan = FaultPlan([FaultEvent(NicPortFlap(host="h0"), at_s=0.0, until_s=1.0)])
        runner = DegradedFlowRunner({"uplink-tx:h0": 10.0}, plan=plan)
        outcome = runner.simulate([wire_flow()])["f"]
        assert outcome.status == "recovered"
        assert outcome.retries > 0
        assert outcome.bytes_moved == pytest.approx(10 * GB)
        # Blocked for >= the 1 s outage, then 8 s of transfer at 10 Gbps.
        assert outcome.finish_s > 9.0

    def test_budget_exhaustion_fails_structurally(self):
        plan = FaultPlan([NicPortFlap(host="h0")])  # permanent, never recovers
        runner = DegradedFlowRunner(
            {"uplink-tx:h0": 10.0}, plan=plan, retry=RetryPolicy(max_retries=2)
        )
        outcome = runner.simulate([wire_flow()])["f"]
        assert outcome.status == "failed"
        assert not outcome.completed
        assert outcome.retries == 2
        assert outcome.bytes_moved == 0.0
        assert "uplink-tx:h0" in outcome.reason
        assert "2 retries" in outcome.reason

    def test_midstream_failure_keeps_partial_bytes(self):
        plan = FaultPlan([FaultEvent(NicPortFlap(host="h0"), at_s=4.0)])
        runner = DegradedFlowRunner(
            {"uplink-tx:h0": 10.0}, plan=plan, retry=RetryPolicy(max_retries=1)
        )
        outcome = runner.simulate([wire_flow()])["f"]
        assert outcome.status == "failed"
        # 4 s at 10 Gbps = 5 GB of the 10 GB moved before the fault.
        assert outcome.bytes_moved == pytest.approx(5 * GB)

    def test_jitter_is_seeded(self):
        plan = FaultPlan([FaultEvent(NicPortFlap(host="h0"), at_s=0.0, until_s=1.0)])

        def finish(seed):
            runner = DegradedFlowRunner(
                {"uplink-tx:h0": 10.0}, plan=plan,
                rng=RngRegistry(seed).stream("backoff"),
            )
            return runner.simulate([wire_flow()])["f"].finish_s

        assert finish(1) == finish(1)
        assert finish(1) != finish(2)


class TestReroute:
    def test_flow_reroutes_around_failed_link(self, bare_host):
        plan = FaultPlan([FaultEvent(LinkFail(a=2, b=7), at_s=0.05)])
        endpoints = {"f": (2, 7)}
        runner = DegradedFlowRunner(
            build_capacities(bare_host),
            plan=plan,
            rerouter=machine_rerouter(bare_host, plan, endpoints),
        )
        flow = Flow(name="f", resources=reroute_resources(bare_host, 2, 7),
                    demand_gbps=16.0, size_bytes=2 * GB)
        outcome = runner.simulate([flow])["f"]
        assert outcome.status == "rerouted"
        assert outcome.reroutes == 1
        assert outcome.retries == 0
        assert outcome.bytes_moved == pytest.approx(2 * GB)

    def test_no_alternative_falls_back_to_retries(self, bare_host):
        # Fail both of node 0's cables: no route survives.
        plan = FaultPlan([
            FaultEvent(LinkFail(a=0, b=1), at_s=0.05),
            FaultEvent(LinkFail(a=0, b=7), at_s=0.05),
        ])
        runner = DegradedFlowRunner(
            build_capacities(bare_host),
            plan=plan,
            retry=RetryPolicy(max_retries=1),
            rerouter=machine_rerouter(bare_host, plan, {"f": (0, 7)}),
        )
        flow = Flow(name="f", resources=reroute_resources(bare_host, 0, 7),
                    demand_gbps=16.0, size_bytes=8 * GB)
        outcome = runner.simulate([flow])["f"]
        assert outcome.status == "failed"
        assert outcome.retries == 1
        assert 0 < outcome.bytes_moved < 8 * GB


class TestHelpers:
    def test_reroute_resources_spans_path(self, bare_host):
        resources = reroute_resources(bare_host, 2, 7)
        assert resources[0] == "ctrl-dma:2"
        assert resources[1] == "ctrl-dma:7"
        assert "link-dma:2>7" in resources

    def test_reroute_resources_local(self, bare_host):
        assert reroute_resources(bare_host, 3, 3) == ("ctrl-dma:3",)

    def test_route_lost_error(self, bare_host):
        view = FaultedMachine(bare_host, [LinkFail(a=0, b=1), LinkFail(a=0, b=7)])
        with pytest.raises(RouteLostError):
            reroute_resources(view, 0, 7)

    def test_unsized_flow_rejected(self):
        runner = DegradedFlowRunner({"uplink-tx:h0": 10.0})
        with pytest.raises(SimulationError):
            runner.simulate([
                Flow(name="f", resources=("uplink-tx:h0",), demand_gbps=1.0)
            ])

    def test_retry_policy_validation(self):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(FaultError):
            RetryPolicy(base_delay_s=0.0)
        with pytest.raises(FaultError):
            RetryPolicy(jitter=1.0)

    def test_backoff_grows(self):
        policy = RetryPolicy(base_delay_s=0.25, multiplier=2.0, jitter=0.0)
        delays = [policy.delay_s(i, None) for i in range(3)]
        assert delays == [0.25, 0.5, 1.0]
