"""Unit tests for the live metrics plane (`repro.obs.live`)."""

import json
import math

import pytest

from repro.obs.live import (
    EVENT_CAPACITY,
    HIST_BASE,
    REGIME_BANDWIDTH,
    REGIME_CONTENTION,
    REGIME_LATENCY,
    REGIME_RECLASSIFIED,
    SPAN_CAPACITY,
    ZERO_BUCKET,
    DriftWatch,
    FlightRecorder,
    Hist,
    LivePlane,
    NullLivePlane,
    classify_regime,
    render_scrape,
)


class TestHist:
    def test_empty(self):
        h = Hist()
        assert h.count == 0
        assert h.quantile(0.5) is None
        d = h.to_dict()
        assert d["count"] == 0 and d["min"] is None and d["p99"] is None

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = Hist()
        h.record(0.0)
        h.record(-1.5)
        assert h.counts == {ZERO_BUCKET: 2}
        assert h.quantile(0.99) == 0.0
        assert h.min == -1.5 and h.max == 0.0

    def test_bucket_bounds_contain_value(self):
        for v in (1e-9, 0.001, 0.37, 1.0, 7.25, 1e6):
            idx = Hist.bucket_index(v)
            upper = Hist.bucket_upper(idx)
            assert v <= upper
            assert v > upper / HIST_BASE or math.isclose(v, upper / HIST_BASE)

    def test_exact_moments(self):
        h = Hist()
        values = [0.1, 0.2, 0.3, 0.0, 4.5]
        for v in values:
            h.record(v)
        assert h.count == len(values)
        assert h.sum == pytest.approx(sum(values))
        assert h.min == 0.0 and h.max == 4.5

    def test_quantile_within_one_bucket(self):
        h = Hist()
        for i in range(1, 101):
            h.record(i / 100.0)
        for q in (0.5, 0.9, 0.99):
            true = q  # uniform 0.01..1.00
            got = h.quantile(q)
            assert got >= true - 1e-12
            assert got <= true * HIST_BASE + 1e-12

    def test_merge_equals_concatenated_stream(self):
        a, b, c = Hist(), Hist(), Hist()
        left = [0.01, 0.5, 0.0, 3.0]
        right = [0.02, 0.5, 9.0]
        for v in left:
            a.record(v)
            c.record(v)
        for v in right:
            b.record(v)
            c.record(v)
        a.merge(b)
        assert a.counts == c.counts
        assert a.count == c.count
        assert a.min == c.min and a.max == c.max
        assert a.sum == pytest.approx(c.sum)

    def test_to_dict_buckets_sorted_noncumulative(self):
        h = Hist()
        for v in (0.0, 1.0, 1.0, 100.0):
            h.record(v)
        uppers = [row[0] for row in h.to_dict()["buckets"]]
        assert uppers == sorted(uppers)
        assert sum(row[1] for row in h.to_dict()["buckets"]) == h.count


class TestFlightRecorder:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(span_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(event_capacity=0)

    def test_defaults(self):
        fr = FlightRecorder()
        occ = fr.occupancy()
        assert occ["span_capacity"] == SPAN_CAPACITY
        assert occ["event_capacity"] == EVENT_CAPACITY

    def test_unwrapped_order(self):
        fr = FlightRecorder(span_capacity=4, event_capacity=4)
        for i in range(3):
            fr.note_span(float(i), f"m{i}", 0.001 * i, tag=i)
        spans = fr.spans()
        assert [s["seq"] for s in spans] == [0, 1, 2]
        assert spans[0]["name"] == "m0" and spans[-1]["tag"] == 2

    def test_wraparound_keeps_newest_oldest_first(self):
        fr = FlightRecorder(span_capacity=4, event_capacity=2)
        for i in range(6):
            fr.note_span(float(i), "m", 0.0)
            fr.note_event(float(i), "error", {"i": i})
        spans = fr.spans()
        assert [s["seq"] for s in spans] == [2, 3, 4, 5]
        events = fr.events()
        assert [e["seq"] for e in events] == [4, 5]
        occ = fr.occupancy()
        assert occ["spans"] == 4 and occ["span_total"] == 6
        assert occ["events"] == 2 and occ["event_total"] == 6

    def test_dump_is_json_able(self):
        fr = FlightRecorder(span_capacity=2, event_capacity=2)
        fr.note_span(1.0, "advise", 0.25, tag=2)
        fr.note_event(1.5, "drift", {"deviation": 0.5})
        dump = json.loads(json.dumps(fr.dump()))
        assert dump["spans"][0]["name"] == "advise"
        assert dump["events"][0]["tags"] == {"deviation": 0.5}


class TestLivePlane:
    def test_counters_and_hists(self):
        plane = LivePlane()
        plane.count("a")
        plane.count("a", 2)
        plane.record("h", 0.5)
        assert plane.counters == {"a": 3}
        assert plane.hists["h"].count == 1

    def test_record_latency_folds_method_and_tier_views(self):
        plane = LivePlane()
        plane.record_latency("advise", 1, 0.001, 1)
        plane.record_latency("advise", 2, 0.002, 1)
        plane.record_latency("health", "-", 0.0, 1)
        merged = plane.snapshot()["histograms"]
        assert merged["service.latency.method.advise"]["count"] == 2
        assert merged["service.latency.tier.1"]["count"] == 1
        assert merged["service.latency.tier.2"]["count"] == 1
        # '-' (untiered) answers get no tier aggregate
        assert "service.latency.tier.-" not in merged
        assert merged["service.latency.method.health"]["count"] == 1
        assert list(merged) == sorted(merged)

    def test_null_plane_folds_nothing(self):
        plane = NullLivePlane()
        plane.record_latency("advise", 1, 0.001, 3)
        assert plane.hists == {}
        assert plane.snapshot()["histograms"] == {}

    def test_snapshot_shape(self):
        snap = LivePlane().snapshot()
        assert set(snap) == {"counters", "histograms", "flight_recorder"}

    def test_null_plane_is_inert(self):
        plane = NullLivePlane()
        assert plane.enabled is False
        plane.record("h", 1.0)
        plane.count("c")
        assert plane.hists == {} and plane.counters == {}


class TestClassifyRegime:
    def test_uniform_shift_is_bandwidth_bound(self):
        old = {0: 10.0, 1: 5.0}
        new = {0: 7.0, 1: 3.5}  # both -30%
        regime, shift = classify_regime(old, new, 0.10)
        assert regime == REGIME_BANDWIDTH
        assert shift == pytest.approx(0.30)

    def test_uneven_shift_is_contention_bound(self):
        old = {0: 10.0, 1: 5.0}
        new = {0: 5.0, 1: 5.0}  # one class halves, the other holds
        regime, _ = classify_regime(old, new, 0.10)
        assert regime == REGIME_CONTENTION

    def test_small_shift_is_latency_bound(self):
        old = {0: 10.0}
        new = {0: 10.2}
        regime, _ = classify_regime(old, new, 0.10)
        assert regime == REGIME_LATENCY

    def test_disjoint_ranks_is_reclassified(self):
        regime, shift = classify_regime({0: 1.0}, {1: 1.0}, 0.10)
        assert regime == REGIME_RECLASSIFIED
        assert shift == math.inf


class TestDriftWatch:
    def test_threshold_validation(self):
        plane = LivePlane()
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                DriftWatch(plane, threshold=bad)

    def test_first_solve_sets_reference_silently(self):
        plane = LivePlane()
        watch = DriftWatch(plane)
        assert watch.note_solve(7, "write", {0: 10.0}, now=0.0) is None
        assert watch.events == 0
        assert plane.counters == {}

    def test_stable_model_never_fires(self):
        plane = LivePlane()
        watch = DriftWatch(plane)
        watch.note_solve(7, "write", {0: 10.0}, now=0.0)
        for _ in range(5):
            watch.note_answer(7, "write", 10.0)
        assert watch.note_solve(7, "write", {0: 10.0}, now=1.0) is None
        assert plane.counters == {"service.drift.checks": 1}
        assert watch.stats()["events"] == 0

    def test_drift_fires_event_counters_and_flight(self):
        plane = LivePlane()
        watch = DriftWatch(plane, threshold=0.10)
        watch.note_solve(7, "write", {0: 10.0, 1: 5.0}, now=0.0)
        for _ in range(3):
            watch.note_answer(7, "write", 7.5)
        event = watch.note_solve(7, "write", {0: 6.0, 1: 3.0}, now=2.0)
        assert event is not None
        assert event["regime"] == REGIME_BANDWIDTH
        assert event["served_answers"] == 3
        assert event["deviation"] == pytest.approx(
            abs(7.5 - 4.5) / 4.5, rel=1e-6
        )
        assert plane.counters["service.drift.events"] == 1
        assert plane.counters[
            f"service.drift.regime.{REGIME_BANDWIDTH}"
        ] == 1
        drift_events = [
            e for e in plane.flight.events() if e["kind"] == "drift"
        ]
        assert len(drift_events) == 1
        assert drift_events[0]["tags"] == event
        assert watch.stats()["last"] == event

    def test_no_served_traffic_compares_superseded_model(self):
        plane = LivePlane()
        watch = DriftWatch(plane, threshold=0.10)
        watch.note_solve(7, "read", {0: 10.0}, now=0.0)
        event = watch.note_solve(7, "read", {0: 5.0}, now=1.0)
        assert event is not None
        assert event["served_answers"] == 0
        assert event["served_mean_gbps"] == pytest.approx(10.0)

    def test_served_estimator_resets_each_solve(self):
        plane = LivePlane()
        watch = DriftWatch(plane, threshold=0.10)
        watch.note_solve(7, "write", {0: 10.0}, now=0.0)
        watch.note_answer(7, "write", 10.0)
        watch.note_solve(7, "write", {0: 10.0}, now=1.0)
        assert (7, "write") not in watch.served


class TestRenderScrape:
    PAYLOAD = {
        "machine": "ref",
        "uptime_s": 1.5,
        "requests": 4,
        "degraded_served": 1,
        "breaker": {"state": "closed", "trips": 2},
        "tiers": {"1": 3, "2": 1},
        "errors": {"parse_error": 1},
        "counters": {"service.tier.1.answers": 3},
        "histograms": {
            "service.latency.tier.1": {
                "count": 3,
                "sum": 0.003,
                "min": 0.001,
                "max": 0.001,
                "buckets": [[0.001059, 3]],
                "p50": 0.001059,
                "p90": 0.001059,
                "p99": 0.001059,
            }
        },
        "drift": {"threshold": 0.1, "events": 0, "watched": 2, "last": None},
        "flight_recorder": {
            "spans": 4, "span_capacity": 256, "span_total": 4,
            "events": 0, "event_capacity": 64, "event_total": 0,
        },
    }

    def test_pure_function_stable_output(self):
        assert render_scrape(self.PAYLOAD) == render_scrape(self.PAYLOAD)

    def test_key_rows_present(self):
        text = render_scrape(self.PAYLOAD)
        assert "repro_uptime_seconds 1.5\n" in text
        assert "repro_service_requests_total 4\n" in text
        assert 'repro_breaker_state{state="closed"} 1\n' in text
        assert 'repro_service_tier_answers_total{tier="1"} 3\n' in text
        assert 'repro_service_errors_total{kind="parse_error"} 1\n' in text
        assert "repro_service_tier_1_answers_total 3\n" in text
        assert (
            'repro_service_latency_tier_1_seconds_bucket{le="+Inf"} 3\n'
            in text
        )
        assert "repro_service_latency_tier_1_seconds_count 3\n" in text
        assert (
            'repro_service_latency_tier_1_seconds{quantile="0.99"} 0.001059\n'
            in text
        )
        assert "repro_service_drift_watched 2\n" in text
        assert (
            'repro_flight_recorder_occupancy{ring="spans"} 4\n' in text
        )

    def test_histogram_buckets_cumulative(self):
        payload = dict(self.PAYLOAD)
        payload["histograms"] = {
            "h": {
                "count": 3, "sum": 1.0, "min": 0.0, "max": 1.0,
                "buckets": [[0.0, 1], [1.0, 2]],
                "p50": 1.0, "p90": 1.0, "p99": 1.0,
            }
        }
        text = render_scrape(payload)
        assert 'repro_h_seconds_bucket{le="0.0"} 1\n' in text
        assert 'repro_h_seconds_bucket{le="1.0"} 3\n' in text

    def test_empty_payload_renders(self):
        assert render_scrape({}) == "\n"
