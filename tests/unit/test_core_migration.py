"""Online placement and migration."""

import math

import pytest

from repro.core.iomodel import IOModelBuilder
from repro.core.migration import (
    POLICIES,
    OnlineSimulator,
    OnlineWorkload,
    StreamJob,
)
from repro.errors import ModelError
from repro.rng import RngRegistry
from repro.units import GB


@pytest.fixture(scope="module")
def write_model(host):
    return IOModelBuilder(host, registry=RngRegistry(), runs=10).build(7, "write")


@pytest.fixture()
def simulator(host, write_model, registry):
    return OnlineSimulator(host, write_model, registry=registry)


@pytest.fixture()
def jobs(registry):
    return OnlineWorkload(registry, rate_per_s=0.15).generate(25, label="test")


class TestStreamJob:
    def test_valid(self):
        job = StreamJob(name="j", arrival_s=1.0, size_bytes=GB)
        assert job.remaining_bytes == GB
        assert job.node is None

    def test_bad_size_rejected(self):
        with pytest.raises(ModelError):
            StreamJob(name="j", arrival_s=0.0, size_bytes=0)

    def test_bad_direction_rejected(self):
        with pytest.raises(ModelError):
            StreamJob(name="j", arrival_s=0.0, size_bytes=GB, direction="up")

    @pytest.mark.parametrize("arrival", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_arrival_rejected(self, arrival):
        with pytest.raises(ModelError, match="stream 'j': arrival"):
            StreamJob(name="j", arrival_s=arrival, size_bytes=GB)

    @pytest.mark.parametrize("arrival", [2.0**43, 1e20])
    def test_arrival_beyond_clock_resolution_rejected(self, arrival):
        # From 2**43 s on, one step of the float clock is >= 2**-9 s.
        with pytest.raises(ModelError, match=r"stream 'j': arrival .*below 2\*\*43 s"):
            StreamJob(name="j", arrival_s=arrival, size_bytes=GB)

    def test_arrival_just_below_the_bound_accepted(self):
        job = StreamJob(name="j", arrival_s=math.nextafter(2.0**43, 0), size_bytes=GB)
        assert job.arrival_s < 2.0**43

    @pytest.mark.parametrize("size", [math.inf, math.nan])
    def test_non_finite_size_rejected(self, size):
        with pytest.raises(ModelError, match="stream 'j': size"):
            StreamJob(name="j", arrival_s=0.0, size_bytes=size)


class TestWorkload:
    def test_sorted_arrivals(self, jobs):
        arrivals = [j.arrival_s for j in jobs]
        assert arrivals == sorted(arrivals)

    def test_deterministic(self):
        a = OnlineWorkload(RngRegistry(3)).generate(5)
        b = OnlineWorkload(RngRegistry(3)).generate(5)
        assert [(j.arrival_s, j.size_bytes) for j in a] == [
            (j.arrival_s, j.size_bytes) for j in b
        ]

    def test_directions_follow_fraction(self):
        jobs = OnlineWorkload(RngRegistry(), write_fraction=0.0).generate(10)
        assert all(j.direction == "read" for j in jobs)

    @pytest.mark.parametrize("rate", [math.nan, 0.0, -1.0])
    def test_rate_must_be_positive(self, rate):
        with pytest.raises(ModelError, match="workload rate must be positive"):
            OnlineWorkload(rate_per_s=rate)

    def test_validation(self):
        with pytest.raises(ModelError):
            OnlineWorkload(rate_per_s=0)
        with pytest.raises(ModelError):
            OnlineWorkload(write_fraction=2.0)
        with pytest.raises(ModelError):
            OnlineWorkload().generate(0)


class TestSimulator:
    def test_all_policies_complete_all_streams(self, simulator, jobs):
        for policy in POLICIES:
            outcome = simulator.run(jobs, policy)
            assert len(outcome.per_stream_completion_s) == len(jobs)
            assert outcome.mean_completion_s > 0

    def test_inputs_not_mutated(self, simulator, jobs):
        before = [(j.node, j.remaining_bytes) for j in jobs]
        simulator.run(jobs, "local")
        assert [(j.node, j.remaining_bytes) for j in jobs] == before

    def test_local_policy_never_migrates(self, simulator, jobs):
        assert simulator.run(jobs, "local").migrations == 0

    def test_migrate_policy_migrates_under_pressure(self, simulator, jobs):
        outcome = simulator.run(jobs, "class-migrate")
        assert outcome.migrations > 0

    def test_each_move_is_counted_once(self, host, write_model, monkeypatch):
        moves = []
        plan = OnlineSimulator._plan_migrations

        def spy(self, now, active):
            moves.append(plan(self, now, active))
            return moves[-1]

        monkeypatch.setattr(OnlineSimulator, "_plan_migrations", spy)
        jobs = OnlineWorkload(RngRegistry(7), rate_per_s=0.15).generate(25, label="test")
        sim = OnlineSimulator(host, write_model, registry=RngRegistry(7))
        outcome = sim.run(jobs, "class-migrate")
        assert sum(moves) == outcome.migrations > 0

    def test_class_spread_beats_local(self, simulator, jobs):
        local = simulator.run(jobs, "local")
        spread = simulator.run(jobs, "class-spread")
        assert spread.mean_completion_s < local.mean_completion_s

    def test_unknown_policy_rejected(self, simulator, jobs):
        with pytest.raises(ModelError):
            simulator.run(jobs, "clairvoyant")

    def test_missing_device_rejected(self, write_model, registry):
        from repro.topology.builders import reference_host

        bare = reference_host(with_devices=False)
        with pytest.raises(ModelError):
            OnlineSimulator(bare, write_model, registry=registry)

    def test_deterministic(self, host, write_model):
        wl = OnlineWorkload(RngRegistry(9)).generate(10)
        a = OnlineSimulator(host, write_model, registry=RngRegistry(9)).run(wl, "random")
        b = OnlineSimulator(host, write_model, registry=RngRegistry(9)).run(wl, "random")
        assert a.mean_completion_s == b.mean_completion_s

    def test_single_stream_runs_at_cap(self, simulator):
        job = StreamJob(name="solo", arrival_s=0.0, size_bytes=40 * GB)
        outcome = simulator.run([job], "class-spread")
        # One RDMA_WRITE stream: per-stream cap 22.5 Gbps.
        duration = outcome.per_stream_completion_s["solo"]
        gbps = 40 * GB * 8 / 1e9 / duration
        assert gbps == pytest.approx(22.5, rel=0.02)

    def test_outcome_render(self, simulator, jobs):
        text = simulator.run(jobs, "local").render()
        assert "mean" in text and "Gbps" in text

    def test_mixed_direction_workload(self, host, write_model, registry):
        # Streams of both directions share the device; the simulator
        # must serve each at its own direction's service level.
        wl = OnlineWorkload(registry, rate_per_s=0.2, write_fraction=0.5)
        jobs = wl.generate(16, label="mixed")
        assert {j.direction for j in jobs} == {"write", "read"}
        sim = OnlineSimulator(host, write_model, registry=registry)
        outcome = sim.run(jobs, "class-spread")
        assert len(outcome.per_stream_completion_s) == 16


class TestEpochCatchUp:
    """class-migrate replays every 20 s epoch an idle jump skipped."""

    def test_planning_calls_do_not_grow_with_idle_time(
        self, host, write_model, monkeypatch
    ):
        # Arrivals ~1e7 s apart skip ~500,000 epochs between streams;
        # only the passes that could move something may be planned.
        calls = []
        plan = OnlineSimulator._plan_migrations

        def spy(self, now, active):
            calls.append(now)
            if len(calls) > 100:
                raise AssertionError("planning is linear in idle time")
            return plan(self, now, active)

        monkeypatch.setattr(OnlineSimulator, "_plan_migrations", spy)
        jobs = OnlineWorkload(RngRegistry(), rate_per_s=1e-7).generate(3)
        assert jobs[-1].arrival_s > 1e6
        sim = OnlineSimulator(host, write_model, registry=RngRegistry())
        outcome = sim.run(jobs, "class-migrate")
        assert len(outcome.per_stream_completion_s) == 3
        assert len(calls) <= 10
