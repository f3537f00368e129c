"""Workload trace save/replay."""

import pytest

from repro.core.migration import OnlineSimulator, OnlineWorkload
from repro.core.traces import load_trace, save_trace
from repro.errors import ModelError
from repro.rng import RngRegistry


@pytest.fixture()
def jobs(registry):
    return OnlineWorkload(registry, rate_per_s=0.2).generate(12, label="trace")


class TestRoundTrip:
    def test_save_and_load(self, jobs, tmp_path):
        path = tmp_path / "workload.trace"
        assert save_trace(jobs, path) == 12
        back = load_trace(path)
        assert [(j.name, j.arrival_s, j.size_bytes, j.direction) for j in back] \
            == [(j.name, j.arrival_s, j.size_bytes, j.direction) for j in jobs]

    def test_replay_gives_identical_results(self, jobs, tmp_path, host, registry):
        from repro.core.iomodel import IOModelBuilder

        path = tmp_path / "workload.trace"
        save_trace(jobs, path)
        model = IOModelBuilder(host, registry=registry, runs=5).build(7, "write")
        a = OnlineSimulator(host, model, registry=RngRegistry(1)).run(
            jobs, "class-spread"
        )
        b = OnlineSimulator(host, model, registry=RngRegistry(1)).run(
            load_trace(path), "class-spread"
        )
        assert a.mean_completion_s == b.mean_completion_s


class TestValidation:
    def test_empty_refused(self, tmp_path):
        with pytest.raises(ModelError):
            save_trace([], tmp_path / "x.trace")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError):
            load_trace(tmp_path / "ghost.trace")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ModelError):
            load_trace(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"format_version": 99}\n{"name": "x"}\n',
                        encoding="utf-8")
        with pytest.raises(ModelError):
            load_trace(path)

    def test_malformed_line_reports_position(self, jobs, tmp_path):
        path = tmp_path / "bad.trace"
        save_trace(jobs[:2], path)
        path.write_text(
            path.read_text(encoding="utf-8") + '{"name": "incomplete"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ModelError, match="line 4"):
            load_trace(path)

    @pytest.mark.parametrize("arrival, size", [
        ("Infinity", "1e9"),
        ("NaN", "1e9"),
        ("-1.0", "1e9"),
        ("8796093022208.0", "1e9"),
        ("0.0", "Infinity"),
        ("0.0", "NaN"),
    ])
    def test_bad_number_reports_position(self, tmp_path, arrival, size):
        path = tmp_path / "bad.trace"
        path.write_text(
            '{"format_version": 1, "streams": 1}\n'
            f'{{"name": "s0", "arrival_s": {arrival}, "size_bytes": {size}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ModelError, match="line 2 .*stream 's0'"):
            load_trace(path)

    def test_duplicate_names_rejected(self, jobs, tmp_path):
        path = tmp_path / "dup.trace"
        save_trace([jobs[0], jobs[0]], path)
        with pytest.raises(ModelError):
            load_trace(path)

    @pytest.mark.parametrize("header", ["[1]", "3", '"v1"', "null"])
    def test_header_must_be_an_object(self, tmp_path, header):
        path = tmp_path / "bad.trace"
        path.write_text(
            f'{header}\n{{"name": "s0", "arrival_s": 0.0, "size_bytes": 1e9}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ModelError, match="expected a JSON object"):
            load_trace(path)

    def test_truncated_trace_rejected(self, jobs, tmp_path):
        path = tmp_path / "cut.trace"
        save_trace(jobs[:3], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ModelError, match="declares 3 streams but holds 2"):
            load_trace(path)

    def test_header_without_a_count_accepted(self, tmp_path):
        path = tmp_path / "plain.trace"
        path.write_text(
            '{"format_version": 1}\n'
            '{"name": "s0", "arrival_s": 0.0, "size_bytes": 1e9}\n',
            encoding="utf-8",
        )
        assert [j.name for j in load_trace(path)] == ["s0"]
