"""Dispatch core and TCP transport: deadlines, backpressure, breaker, drain."""

import asyncio
import json
import sys
import threading
from collections import Counter

import pytest

from repro.retrying import RetryPolicy
from repro.rng import RngRegistry
from repro.service.backend import AdvisoryBackend
from repro.service import server
from repro.service.breaker import CircuitBreaker
from repro.service.server import (
    AsyncPlacementServer,
    PlacementService,
    ServiceConfig,
)
from repro.service.soak import LogicalClock, build_soak_plan


def line(method, params=None, req_id=1):
    msg = {"jsonrpc": "2.0", "id": req_id, "method": method}
    if params is not None:
        msg["params"] = params
    return json.dumps(msg)


@pytest.fixture()
def service(host):
    clock = LogicalClock()
    backend = AdvisoryBackend(host, registry=RngRegistry(), runs=3)
    breaker = CircuitBreaker(
        failure_threshold=2,
        backoff=RetryPolicy(max_retries=0, base_delay_s=1.0,
                            multiplier=2.0, jitter=0.0),
        clock=clock,
    )
    return PlacementService(backend, breaker=breaker, clock=clock)


class TestDispatch:
    def test_advise_round_trip(self, service):
        out = json.loads(service.handle_line(line("advise", {
            "target": 7, "tasks": 4,
        })))
        assert out["result"]["degraded"] is False

    def test_health_and_ready(self, service):
        health = json.loads(service.handle_line(line("health")))["result"]
        assert health["status"] == "ok"
        ready = json.loads(service.handle_line(line("ready")))["result"]
        assert ready["ready"] is False  # not warmed yet
        service.backend.warm((7,))
        assert json.loads(
            service.handle_line(line("ready"))
        )["result"]["ready"] is True

    def test_expired_deadline_is_typed(self, service):
        out = json.loads(service.handle_line(line("classify", {
            "target": 7, "deadline_ms": 0,
        })))
        assert out["error"]["kind"] == "deadline_exceeded"

    def test_draining_refuses_work_but_answers_health(self, service):
        service.draining = True
        out = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert out["error"]["kind"] == "shutting_down"
        health = json.loads(service.handle_line(line("health")))
        assert "result" in health

    def test_junk_never_raises(self, service):
        for junk in ("", "{", "[]", '{"jsonrpc":"2.0"}', "\x00\xff"):
            out = json.loads(service.handle_line(junk))
            assert "error" in out

    def test_internal_errors_are_sanitised(self, service, monkeypatch):
        def boom(**kwargs):
            raise RuntimeError("secret traceback detail")

        monkeypatch.setattr(service.backend, "classify", boom)
        out = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert out["error"]["kind"] == "internal_error"
        assert "secret" not in out["error"]["message"]


class TestBreakerFlow:
    def test_trip_degraded_reply_then_half_open_recovery(self, service, host):
        clock = service.clock
        backend = service.backend
        backend.warm((7,))  # record last-good snapshots
        plan = build_soak_plan(host, 7, 0.0, 100.0)
        backend.set_machine(plan.apply(host, at_s=1.0))

        # Two consecutive solver failures trip the breaker; the tripping
        # request itself downgrades to the last-good answer.
        first = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert first["error"]["kind"] == "solver_error"
        second = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert second["result"]["degraded"] is True
        assert service.breaker.state == CircuitBreaker.OPEN

        # While open: degraded answers without touching the solver.
        out = json.loads(service.handle_line(line("advise", {
            "target": 7, "tasks": 3,
        })))
        assert out["result"]["degraded"] is True

        # Open + no snapshot coverage -> typed unavailable.
        out = json.loads(service.handle_line(line("plan", {})))
        assert out["error"]["kind"] == "unavailable"

        # Fabric heals; once the window elapses the half-open probe
        # succeeds and the service is fully live again.
        backend.restore_machine()
        clock.advance(2.0)
        out = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert out["result"]["degraded"] is False
        assert service.breaker.state == CircuitBreaker.CLOSED

    def test_caller_mistakes_do_not_trip(self, service):
        for _ in range(3):
            out = json.loads(service.handle_line(line("classify", {
                "target": 99,
            })))
            assert out["error"]["kind"] == "invalid_params"
        assert service.breaker.state == CircuitBreaker.CLOSED


async def _client(port, lines):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for payload in lines:
        writer.write((payload + "\n").encode())
    await writer.drain()
    out = [json.loads(await reader.readline()) for _ in lines]
    writer.close()
    await writer.wait_closed()
    return out


class TestAsyncTransport:
    def test_requests_answered_over_tcp(self, service):
        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            out = await _client(server.port, [
                line("health", req_id=1),
                line("advise", {"target": 7, "tasks": 2}, req_id=2),
            ])
            await server.drain()
            return out

        replies = asyncio.run(run())
        assert {r["id"] for r in replies} == {1, 2}
        assert all("result" in r for r in replies)

    def test_queue_full_rejects_with_overloaded(self, service):
        release = threading.Event()
        real = service.handle_line

        def slow(request_line):
            release.wait(timeout=10)
            return real(request_line)

        service.handle_line = slow

        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=1, workers=1)
            )
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # 1 in-flight + 1 queued + N rejected
            for i in range(4):
                writer.write((line("health", req_id=i) + "\n").encode())
                await writer.drain()
                await asyncio.sleep(0.05)  # let admission happen in order
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            release.set()
            rest = [json.loads(await reader.readline()) for _ in range(2)]
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return [first, second] + rest, server.rejected

        replies, rejected = asyncio.run(run())
        kinds = [r["error"]["kind"] for r in replies if "error" in r]
        assert kinds.count("overloaded") == 2
        assert rejected == 2
        assert sum(1 for r in replies if "result" in r) == 2

    def test_deadline_cancels_slow_request(self, service):
        release = threading.Event()
        real = service.handle_line

        def slow(request_line):
            release.wait(timeout=10)
            return real(request_line)

        service.handle_line = slow
        service.clock = __import__("time").monotonic  # real queue-wait timing

        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=4, workers=1)
            )
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write((line("health", req_id=1) + "\n").encode())
            writer.write(
                (line("classify", {"target": 7, "deadline_ms": 100}, req_id=2)
                 + "\n").encode()
            )
            await writer.drain()
            # Pin the single worker on request 1 for longer than request
            # 2's deadline, then let it go.
            await asyncio.sleep(0.3)
            release.set()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return first, second

        first, second = asyncio.run(run())
        # The slow in-flight request pins the single worker; the queued
        # request's deadline expires and it is answered with the typed
        # error as soon as a worker picks it up.
        answered = {first["id"]: first, second["id"]: second}
        assert answered[2]["error"]["kind"] == "deadline_exceeded"

    def test_drain_answers_queued_work_then_refuses(self, service):
        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            port = server.port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write((line("health", req_id=1) + "\n").encode())
            await writer.drain()
            first = json.loads(await reader.readline())
            await server.drain()
            assert service.draining
            # The listener is closed: new connections are refused.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            writer.close()
            await writer.wait_closed()
            return first

        first = asyncio.run(run())
        assert "result" in first


class TestLiveMetrics:
    """The always-on live plane: metrics method, flight recorder, drift."""

    def test_health_reports_uptime_and_flight_occupancy(self, service):
        before = json.loads(service.handle_line(line("health")))["result"]
        assert before["uptime_s"] == 0.0  # logical clock has not ticked
        assert before["flight_recorder"]["span_capacity"] > 0
        service.clock.advance(3.0)
        after = json.loads(service.handle_line(line("health")))["result"]
        assert after["uptime_s"] == 3.0
        # The first health answer became a completed span.
        assert after["flight_recorder"]["span_total"] == 1

    def test_ready_reports_warm_target_count(self, service):
        ready = json.loads(service.handle_line(line("ready")))["result"]
        assert ready["warm_targets"] == 0
        service.backend.warm((7,))
        ready = json.loads(service.handle_line(line("ready")))["result"]
        assert ready["warm_targets"] == 1

    def test_metrics_method_round_trip(self, service):
        service.backend.warm((7,))
        service.handle_line(line("advise", {"target": 7, "tasks": 4}))
        service.handle_line(line("classify", {"target": 7}))
        out = json.loads(service.handle_line(line("metrics")))
        result = out["result"]
        assert result["requests"] == 3
        assert result["tiers"]["2"] == 2
        assert result["counters"]["service.tier.2.answers"] == 2
        hist = result["histograms"]["service.latency.method.advise"]
        assert hist["count"] == 1
        assert hist["p99"] == 0.0  # logical clock: every duration is 0
        assert result["drift"]["watched"] == 2  # write + read models
        assert "flight" not in result

    def test_metrics_flight_param_dumps_recorder(self, service):
        service.backend.warm((7,))
        service.handle_line(line("advise", {"target": 7, "tasks": 4}))
        out = json.loads(service.handle_line(
            line("metrics", {"flight": True})
        ))
        flight = out["result"]["flight"]
        assert flight["spans"][0]["name"] == "advise"
        assert flight["spans"][0]["tag"] == 2

    def test_metrics_answered_while_draining(self, service):
        service.draining = True
        out = json.loads(service.handle_line(line("metrics")))
        assert "result" in out

    def test_typed_errors_become_flight_events(self, service):
        service.handle_line(line("classify", {"target": 99}))
        # Error events are buffered; any plane read (here the public
        # metrics method) drains them into the ring.
        out = json.loads(service.handle_line(line("metrics", {"flight": True})))
        events = out["result"]["flight"]["events"]
        assert events[-1]["kind"] == "error"
        assert events[-1]["tags"] == {"kind": "invalid_params"}

    def test_breaker_trip_fires_event_counter_and_dump_sink(
        self, service, host
    ):
        dumps = []
        service.flight_dump_sink = dumps.append
        service.backend.warm((7,))
        plan = build_soak_plan(host, 7, 0.0, 100.0)
        service.backend.set_machine(plan.apply(host, at_s=1.0))
        service.handle_line(line("classify", {"target": 7}))
        service.handle_line(line("classify", {"target": 7}))
        assert service.breaker.state == CircuitBreaker.OPEN
        assert service.live.counters["service.breaker.trips"] == 1
        trip_events = [
            e for e in service.live.flight.events()
            if e["kind"] == "breaker-trip"
        ]
        assert len(trip_events) == 1
        assert trip_events[0]["tags"]["state"] == CircuitBreaker.OPEN
        assert len(dumps) == 1 and "spans" in dumps[0]

    def test_drift_drill_degraded_fabric_fires_event(self, service, host):
        from repro.faults.events import LinkDegrade
        from repro.faults.plan import FaultedMachine
        from repro.obs.live import REGIME_BANDWIDTH, REGIME_CONTENTION

        backend = service.backend
        backend.warm((7,))  # reference characterization
        # Serve a few fast-tier answers off the healthy model.
        for i in range(3):
            service.handle_line(line("classify", {"target": 7}, req_id=i))
        assert service.drift.events == 0

        # Derate every cable touching the device node, both directions:
        # solves still succeed, but the class bandwidths drop far past
        # the 10% drift threshold.
        cables = sorted(
            {tuple(sorted(ends)) for ends in host.links if 7 in ends}
        )
        faults = [
            LinkDegrade(src, dst, 0.4)
            for a, b in cables for src, dst in ((a, b), (b, a))
        ]
        backend.set_machine(FaultedMachine(host, faults))
        out = json.loads(service.handle_line(line("classify", {"target": 7})))
        assert "result" in out  # the faulted solve lands (tier 3)
        assert out["result"]["tier"] == 3

        assert service.drift.events == 1
        event = service.drift.last
        assert event["target"] == 7 and event["mode"] == "write"
        assert event["deviation"] > 0.10
        assert event["served_answers"] == 3
        assert event["regime"] in (REGIME_BANDWIDTH, REGIME_CONTENTION)
        assert service.live.counters["service.drift.events"] == 1
        drift_events = [
            e for e in service.live.flight.events() if e["kind"] == "drift"
        ]
        assert len(drift_events) == 1 and drift_events[0]["tags"] == event

    def test_queue_wait_histogram_fills_over_tcp(self, service):
        async def run():
            server = AsyncPlacementServer(
                service, ServiceConfig(port=0, queue_limit=8, workers=2)
            )
            await server.start()
            await _client(server.port, [line("health", req_id=1)])
            await server.drain()

        asyncio.run(run())
        assert service.live.hists["service.queue_wait"].count == 1

    def test_null_plane_disables_recording(self, host):
        from repro.obs.live import NullLivePlane

        backend = AdvisoryBackend(host, registry=RngRegistry(), runs=3)
        service = PlacementService(
            backend, clock=LogicalClock(), live=NullLivePlane()
        )
        assert service.drift is None
        service.handle_line(line("advise", {"target": 7, "tasks": 4}))
        assert service.live.hists == {}
        assert service.live.counters == {}
        assert service.live.flight.span_total == 0


class TestConcurrentDrain:
    """The TCP transport runs ``handle_line`` on several threads at once."""

    #: (method, params) per line kind; ``metrics`` drains mid-stream.
    MIX = (
        ("predict_eq1", {"target": 7, "streams": [2, 2, 0]}),
        ("classify", {"target": 7}),
        ("health", None),
        ("metrics", None),
        ("bogus", None),
    )

    def test_every_line_folds_once(self, service, monkeypatch):
        # Small batches make full-buffer drains race the appends and the
        # metrics drains of other threads.
        monkeypatch.setattr(server, "_OBS_BATCH", 4 * 64)
        service.backend.warm((7,))
        threads, per_thread = 4, 300
        plan = [self.MIX[i % len(self.MIX)] for i in range(per_thread)]
        replies: list[list[str]] = [[] for _ in range(threads)]
        start = threading.Barrier(threads)

        def client(out):
            start.wait(timeout=60)
            for i, (method, params) in enumerate(plan):
                out.append(service.handle_line(line(method, params, req_id=i)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client, args=(out,))
                       for out in replies]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [len(out) for out in replies] == [per_thread] * threads
        service._drain_obs()

        sent = Counter(method for method, _params in plan)
        tiers = Counter(
            json.loads(reply).get("result", {}).get("tier", "-")
            for out in replies for reply in out
        )
        live = service.live
        for method, n in sent.items():
            view = method if method != "bogus" else "?"
            assert live.hists[f"service.latency.method.{view}"].count == n * threads
        for tier in (1, 2, 3):
            assert live.counters.get(f"service.tier.{tier}.answers", 0) == tiers[tier]
            view = live.hists.get(f"service.latency.tier.{tier}")
            assert (view.count if view is not None else 0) == tiers[tier]
        assert tiers[1] and tiers[2]
        occupancy = live.flight.occupancy()
        assert occupancy["span_total"] == threads * per_thread
        assert occupancy["event_total"] == sent["bogus"] * threads
