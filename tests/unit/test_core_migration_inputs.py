"""Online simulator and workload inputs: read once, typed errors."""

import math

import numpy as np
import pytest

from repro.core.iomodel import IOModelBuilder
from repro.core.migration import POLICIES, OnlineSimulator, OnlineWorkload
from repro.errors import ModelError, SimulationError
from repro.rng import RngRegistry


@pytest.fixture(scope="module")
def write_model(host):
    return IOModelBuilder(host, registry=RngRegistry(), runs=10).build(7, "write")


@pytest.fixture()
def jobs():
    return OnlineWorkload(RngRegistry(4), rate_per_s=0.2).generate(8, label="once")


def _simulator(host, write_model):
    return OnlineSimulator(host, write_model, registry=RngRegistry(4))


class TestJobsReadOnce:
    def test_run_accepts_a_generator(self, host, write_model, jobs):
        expected = _simulator(host, write_model).run(jobs, "class-spread")
        outcome = _simulator(host, write_model).run(
            (j for j in jobs), "class-spread"
        )
        assert outcome.per_stream_completion_s == expected.per_stream_completion_s
        assert len(outcome.per_stream_completion_s) == len(jobs)

    def test_compare_accepts_a_generator(self, host, write_model, jobs):
        expected = _simulator(host, write_model).compare(jobs)
        outcomes = _simulator(host, write_model).compare(j for j in jobs)
        assert list(outcomes) == list(POLICIES)
        for policy in POLICIES:
            assert (outcomes[policy].per_stream_completion_s
                    == expected[policy].per_stream_completion_s)

    @pytest.mark.parametrize("empty", [[], (), iter([])])
    def test_run_rejects_an_empty_workload(self, host, write_model, empty):
        with pytest.raises(ModelError, match="at least one stream"):
            _simulator(host, write_model).run(empty, "local")

    def test_compare_rejects_an_empty_workload(self, host, write_model):
        with pytest.raises(ModelError, match="at least one stream"):
            _simulator(host, write_model).compare([])


class TestWorkloadErrors:
    @pytest.mark.parametrize("sigma", [-1.0, -1e-9, math.inf, math.nan])
    def test_bad_size_sigma_rejected(self, sigma):
        with pytest.raises(ModelError, match="size_sigma"):
            OnlineWorkload(size_sigma=sigma).generate(2)

    def test_zero_size_sigma_gives_the_mean_size(self):
        jobs = OnlineWorkload(size_sigma=0.0, mean_size_bytes=1e9).generate(3)
        assert [j.size_bytes for j in jobs] == [1e9] * 3

    @pytest.mark.parametrize("count", [2.5, 2.0, "3", None])
    def test_non_integer_stream_count_rejected(self, count):
        with pytest.raises(ModelError, match="stream count must be an integer"):
            OnlineWorkload().generate(count)

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), 3])
    def test_integer_stream_counts_accepted(self, count):
        jobs = OnlineWorkload(RngRegistry(2)).generate(count)
        assert [j.name for j in jobs] == ["wl/0", "wl/1", "wl/2"]

    @pytest.mark.parametrize("rate", [math.inf, -math.inf])
    def test_infinite_rate_rejected_at_construction(self, rate):
        with pytest.raises(ModelError, match=r"got rate_per_s=-?inf"):
            OnlineWorkload(rate_per_s=rate)

    @pytest.mark.parametrize("size", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_mean_size_rejected_at_construction(self, size):
        with pytest.raises(ModelError, match=r"got mean_size_bytes="):
            OnlineWorkload(mean_size_bytes=size)


class TestZeroMakespan:
    """One byte arriving at ~5.2e6 s finishes at the float of its
    arrival, so the run spans 0 s and has no aggregate bandwidth."""

    @staticmethod
    def _one_byte():
        return OnlineWorkload(
            RngRegistry(3), rate_per_s=1e-7, mean_size_bytes=1.0,
            size_sigma=0.0, write_fraction=0.0,
        ).generate(1)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_is_a_simulation_error(self, host, write_model, policy):
        with pytest.raises(SimulationError, match="makespan is 0 s"):
            _simulator(host, write_model).run(self._one_byte(), policy)

    def test_cli_replay_exits_2(self, tmp_path, capsys):
        from repro.cli.main import main
        from repro.core.traces import save_trace

        trace = tmp_path / "one-byte.trace"
        save_trace(self._one_byte(), trace)
        assert main(["online", "--trace", str(trace)]) == 2
        assert "makespan is 0 s" in capsys.readouterr().err
