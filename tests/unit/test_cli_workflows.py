"""CLI workflows spanning several subcommands."""

import json

from repro.cli.main import main


class TestPredictMeasure:
    def test_predict_with_measurement(self, capsys):
        assert main(["predict", "--streams", "2,2,0,0", "--measure"]) == 0
        out = capsys.readouterr().out
        assert "Eq. 1 prediction" in out
        assert "relative error" in out


class TestAdviseCompare:
    def test_advise_with_comparison(self, capsys):
        assert main(["advise", "--tasks", "8", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "tasks over classes" in out
        assert "spread:" in out
        assert "all-local:" in out


class TestExperimentJson:
    def test_json_artifact_written(self, tmp_path, capsys):
        target = tmp_path / "t3.json"
        assert main(["experiment", "t3", "--quick", "--json", str(target)]) == 0
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["exp_id"] == "t3"
        assert data["passed"] is True
        assert data["checks"]

    def test_all_with_outdir(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        assert main(["experiment", "all", "--quick", "--outdir", str(outdir)]) == 0
        files = sorted(p.name for p in outdir.glob("*.txt"))
        assert "t1.txt" in files and "fw2.txt" in files
        assert len(files) == 21

    def test_all_with_jobs_merges_in_registry_order(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        assert main(["experiment", "all", "--quick", "--jobs", "2",
                     "--outdir", str(outdir)]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if " PASS " in line]
        assert [line.split()[0] for line in lines] == [
            "t1", "t2", "t3", "f3", "f4", "f5", "f6", "f7", "f10",
            "t4", "t5", "eq1", "s1",
            "a1", "a2", "a3", "a4", "a5", "a6", "fw1", "fw2",
        ]
        # Per-experiment wall time column plus the wall-clock summary.
        assert all(" s  " in line for line in lines)
        assert "21 experiments in" in out
        assert len(list(outdir.glob("*.txt"))) == 21

    def test_all_rejects_nonpositive_jobs(self, capsys):
        assert main(["experiment", "all", "--quick", "--jobs", "0"]) == 2


class TestOnlineTraces:
    def test_save_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "wl.trace"
        assert main(["online", "--streams", "8", "--rate", "0.3",
                     "--save-trace", str(trace)]) == 0
        first = capsys.readouterr().out
        assert trace.exists()
        assert main(["online", "--trace", str(trace)]) == 0
        second = capsys.readouterr().out
        assert "replaying 8 streams" in second
        # Same workload, same seed: identical policy lines.
        policy_lines = lambda text: [  # noqa: E731
            line for line in text.splitlines() if "mean" in line
        ]
        assert policy_lines(first) == policy_lines(second)

    def test_bad_traces_exit_2(self, tmp_path, capsys):
        stream = '{"name": "s0", "arrival_s": 0.0, "size_bytes": 1e9}\n'
        not_an_object = tmp_path / "list.trace"
        not_an_object.write_text("[1]\n" + stream, encoding="utf-8")
        truncated = tmp_path / "cut.trace"
        truncated.write_text(
            '{"format_version": 1, "streams": 2}\n' + stream, encoding="utf-8"
        )
        assert main(["online", "--trace", str(not_an_object)]) == 2
        assert main(["online", "--trace", str(truncated)]) == 2


class TestPlan:
    def test_plan_recommendation(self, capsys):
        assert main(["plan", "--write-weight", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "attachment ranking" in out
        assert "recommendation: attach at node" in out
